"""Frozen oracle: the Megatron column/row split, checked against the dense layer.

Tensor parallelism is not a compression target of the paper (its all-reduces
stay on intra-node NVLink), and the engine does not execute it: the functional
stages compute the dense result and ``ThreeDParallelEngine`` only accounts the
TP all-reduce traffic (``_log_tensor_parallel_traffic``).  These layers, and
:func:`verify_tensor_parallel` on a real weight of an engine, are what justify
charging the tensor-parallel axis traffic and no error.  Moved here unchanged
from ``repro.parallel.tensor_parallel`` and ``ThreeDParallelEngine`` when the
engine stopped running the check at every ``tp > 1`` build.

* :class:`ColumnParallelLinear` splits the weight along its *output* dimension; each
  rank computes a slice of the output, which is concatenated (all-gather) when the
  full activation is needed.
* :class:`RowParallelLinear` splits along the *input* dimension; each rank computes a
  partial sum which must be all-reduced.

A Megatron transformer layer uses a column-parallel QKV/fc1 followed by a
row-parallel proj/fc2 so that only two all-reduces per layer per direction are
needed.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.collectives import CommunicationLog, SimulatedProcessGroup


class ColumnParallelLinear:
    """``y = x @ W`` with ``W`` split column-wise across ``tp`` ranks."""

    def __init__(
        self,
        weight: np.ndarray,
        tensor_parallel_degree: int,
        log: CommunicationLog | None = None,
    ) -> None:
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError(f"weight must be 2-D, got shape {weight.shape}")
        out_features = weight.shape[1]
        if out_features % tensor_parallel_degree != 0:
            raise ValueError(
                f"output width {out_features} not divisible by TP degree {tensor_parallel_degree}"
            )
        self.tensor_parallel_degree = int(tensor_parallel_degree)
        self.log = log if log is not None else CommunicationLog()
        self.weight_shards = np.split(weight, tensor_parallel_degree, axis=1)

    def forward(self, x: np.ndarray, gather_output: bool = True) -> np.ndarray | list[np.ndarray]:
        """Compute the output; optionally all-gather the per-rank slices."""
        partials = [x @ shard for shard in self.weight_shards]
        if not gather_output:
            return partials
        group = SimulatedProcessGroup(
            list(range(self.tensor_parallel_degree)),
            self.log,
            category="tensor_parallel",
            spans_nodes=False,
        )
        group.all_gather(partials, description="column-parallel gather")
        return np.concatenate(partials, axis=-1)


class RowParallelLinear:
    """``y = x @ W`` with ``W`` split row-wise; partial results are all-reduced."""

    def __init__(
        self,
        weight: np.ndarray,
        tensor_parallel_degree: int,
        log: CommunicationLog | None = None,
    ) -> None:
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError(f"weight must be 2-D, got shape {weight.shape}")
        in_features = weight.shape[0]
        if in_features % tensor_parallel_degree != 0:
            raise ValueError(
                f"input width {in_features} not divisible by TP degree {tensor_parallel_degree}"
            )
        self.tensor_parallel_degree = int(tensor_parallel_degree)
        self.log = log if log is not None else CommunicationLog()
        self.weight_shards = np.split(weight, tensor_parallel_degree, axis=0)

    def forward(self, x_shards: list[np.ndarray] | np.ndarray) -> np.ndarray:
        """Compute the output from per-rank input shards (or a full input).

        When given a full input, it is split along the last dimension — the layout a
        preceding :class:`ColumnParallelLinear` with ``gather_output=False`` produces.
        """
        if isinstance(x_shards, np.ndarray):
            x_shards = np.split(np.asarray(x_shards, dtype=np.float64), self.tensor_parallel_degree, axis=-1)
        if len(x_shards) != self.tensor_parallel_degree:
            raise ValueError(
                f"expected {self.tensor_parallel_degree} input shards, got {len(x_shards)}"
            )
        partials = [shard @ weight for shard, weight in zip(x_shards, self.weight_shards)]
        group = SimulatedProcessGroup(
            list(range(self.tensor_parallel_degree)),
            self.log,
            category="tensor_parallel",
            spans_nodes=False,
        )
        reduced = group.all_reduce(partials, op="sum", description="row-parallel reduce")
        return reduced[0]


def verify_tensor_parallel(engine, atol: float = 1e-10) -> None:
    """Check the Megatron column/row split against the dense computation.

    The functional stages compute dense matmuls; this verifies — on a real
    weight of ``engine``'s model — that splitting it across ``tp`` ranks with a
    column-parallel layer feeding a row-parallel layer reproduces the dense
    result.
    """
    layer = engine.replicas[0][0].layers[0]
    up_weight = layer.mlp.fc.weight.data
    down_weight = layer.mlp.proj.weight.data
    rng = np.random.default_rng(engine.seed)
    x = rng.standard_normal((3, up_weight.shape[0]))
    scratch = CommunicationLog()
    column = ColumnParallelLinear(up_weight, engine.tensor_parallel_degree, log=scratch)
    row = RowParallelLinear(down_weight, engine.tensor_parallel_degree, log=scratch)
    sharded = row.forward(column.forward(x, gather_output=False))
    dense = (x @ up_weight) @ down_weight
    if not np.allclose(sharded, dense, atol=atol):
        raise RuntimeError(
            "tensor-parallel split diverged from the dense computation"
        )

"""The per-parameter data-parallel sync, frozen as the oracle of the bucketed one.

The engine synchronises DP gradients one way: ``BucketedDataParallelSync`` fires
flat buckets and codec buckets over the replicas' arenas and keeps every
error-feedback residual in a per-bucket slab.  It replaced a second mechanism
that walked the stages parameter by parameter — one exact all-reduce per
parameter, or one codec call per parameter with its residual stored under the
parameter's key — and ran ``Schedule(kind="serial")``.  That walk is kept here,
frozen, so the bucketed path stays held to it bit for bit.

What is frozen is the walk, the keys and the residual bookkeeping.  The
per-segment kernels are the production ones: the qsgd/top-k compressors'
``roundtrip`` (behind :class:`~repro.compression.ErrorFeedback`, which the
bucketed path does not use) and PowerSGD's ``_reduce_segment``.  Its traffic
is its log records, one per collective (P and Q per PowerSGD parameter), each
with the parameter's uncompressed bytes as ``original_bytes`` (on P for
PowerSGD): :func:`dp_traffic_by_stage` reads either path's records per stage.

The per-parameter Adam / AdamW loop is frozen here too, as the oracle of
:class:`repro.optim.FusedAdam`: the fused step over the flat arena must give
the loop's weights and moments bit for bit (``tests/test_arena.py``,
``benchmarks/perf/bench_core.py``).
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

import numpy as np

from repro.compression import ErrorFeedback, QSGDCompressor, TopKCompressor
from repro.compression.powersgd import matrix_view
from repro.core.selective_stage import SelectiveStageCompression
from repro.parallel.collectives import CommunicationLog, SimulatedProcessGroup
from repro.parallel.data_parallel import is_embedding_parameter
from repro.parallel.engine import CODEC_SEED, ThreeDParallelEngine
from repro.parallel.pipeline_engine import WIRE_BYTES_PER_ELEMENT
from repro.plan import Boundary, CompressionSpec
from repro.tensor.parameter import Parameter


class FrozenPerParameterPowerSGD:
    """Distributed PowerSGD of one parameter at a time, one residual per key."""

    def __init__(self, rank: int, error_feedback: bool, seed: int = 0) -> None:
        self.kernel = SelectiveStageCompression(
            rank=rank, error_feedback=error_feedback, seed=seed
        )
        self.residuals: dict[str, np.ndarray] = {}

    def reduce(self, key, stage_index, gradients, group) -> list[np.ndarray]:
        del stage_index
        num_replicas = len(gradients)
        if num_replicas != group.size:
            raise ValueError(f"got {num_replicas} gradients but the group has {group.size} ranks")
        original_shape = np.shape(gradients[0])
        shape = matrix_view(np.asarray(gradients[0])).shape
        residual, ready = None, False
        if self.kernel.error_feedback:
            ready = key in self.residuals
            if not ready:
                self.residuals[key] = np.empty(shape)
            residual = self.residuals[key].reshape(-1)
        outputs = [np.empty(original_shape) for _ in range(num_replicas)]
        total = outputs[0].reshape(-1)
        total[...] = np.asarray(gradients[0], dtype=np.float64).reshape(-1)
        for gradient in gradients[1:]:
            total += np.asarray(gradient, dtype=np.float64).reshape(-1)
        p_bytes, q_bytes = self.kernel._reduce_segment(
            key,
            shape,
            total,
            None,
            [output.reshape(-1) for output in outputs[1:]],
            residual,
            ready,
            num_replicas,
        )
        group.record_collective(
            "all_reduce",
            p_bytes,
            compressed=True,
            description=f"{key}:P",
            original_bytes=int(outputs[0].size * WIRE_BYTES_PER_ELEMENT),
        )
        group.record_collective(
            "all_reduce", q_bytes, compressed=True, description=f"{key}:Q", original_bytes=0
        )
        return outputs


class FrozenPerParameterReduce:
    """The DP hook's per-parameter ``reduce``: exact, PowerSGD or error-feedback codecs."""

    def __init__(self, spec: CompressionSpec, num_stages: int, seed: int = 0) -> None:
        self.spec = spec
        self.compressed_stages = spec.compressed_stages(num_stages)
        self.powersgd = self.feedback = None
        if spec.codec == "powersgd":
            self.powersgd = FrozenPerParameterPowerSGD(spec.rank, spec.error_feedback, seed)
        elif spec.codec == "qsgd":
            self.feedback = ErrorFeedback(
                QSGDCompressor(bits=spec.bits, seed=seed), enabled=spec.error_feedback
            )
        elif spec.codec == "topk":
            self.feedback = ErrorFeedback(
                TopKCompressor(fraction=spec.fraction, min_elements=spec.min_elements),
                enabled=spec.error_feedback,
            )

    def codec_applies(self, stage_index: int, gradient: np.ndarray) -> bool:
        return (
            stage_index in self.compressed_stages
            and gradient.ndim >= 2
            and gradient.size >= self.spec.min_elements
        )

    @np.errstate(invalid="ignore")  # a poisoned gradient reaches the guard, as in the engine
    def reduce(self, key, stage_index, gradients, group) -> list[np.ndarray]:
        num_replicas = len(gradients)
        if not self.codec_applies(stage_index, np.asarray(gradients[0])):
            return group.all_reduce(gradients, op="mean", description=key)
        if self.powersgd is not None:
            return self.powersgd.reduce(key, stage_index, gradients, group)

        approximations: list[np.ndarray] = []
        payload_total = 0
        for replica, gradient in enumerate(gradients):
            approximation, payload, _ = self.feedback.compress_with_feedback(
                np.asarray(gradient, dtype=np.float64), f"{key}:replica{replica}"
            )
            approximations.append(approximation)
            payload_total += payload.payload_bytes
        gathered = group.all_gather(
            approximations,
            payload_bytes=payload_total // num_replicas,
            compressed=True,
            description=key,
        )
        synced = np.mean(np.stack(gathered[0]), axis=0)
        return [synced.copy() for _ in range(num_replicas)]


class FrozenPerParameterSync:
    """The stage-by-stage, parameter-by-parameter walk, every record exposed.

    The engine calls the sync's ``fold`` once per replica and stage; the
    last replica's fold of a stage runs the frozen walk over that stage, and
    ``synchronize`` (the process executor's) over every stage.  Each replica
    must own its gradient buffer (:func:`run_per_parameter` sees to it): the
    walk reads them all at once.
    """

    def __init__(
        self,
        replicas: Sequence[Sequence],
        hook: FrozenPerParameterReduce,
        log: CommunicationLog | None = None,
    ) -> None:
        self.replicas = [list(replica) for replica in replicas]
        self.hook = hook
        self.log = log if log is not None else CommunicationLog()

    def prepare(self) -> None:
        """Nothing to allocate ahead: the frozen walk allocates as it goes."""

    def fold(self, order, replica: int, stage_index: int) -> None:
        if replica == len(self.replicas) - 1:
            order.at((len(self.replicas), stage_index))
            self._synchronize_stage(stage_index)

    def synchronize(self, threads: int = 1) -> None:
        """The frozen walk; ``threads`` (the engine's) is ignored: it runs on the caller."""
        for stage_index in range(len(self.replicas[0])):
            self._synchronize_stage(stage_index)

    def _synchronize_stage(self, stage_index: int) -> None:
        degree = len(self.replicas)
        if degree == 1:
            return
        parameter_lists = [
            list(replica[stage_index].parameters()) for replica in self.replicas
        ]
        for position, reference in enumerate(parameter_lists[0]):
            if not reference.requires_grad or is_embedding_parameter(reference):
                continue
            parameters = [parameters[position] for parameters in parameter_lists]
            group = SimulatedProcessGroup(
                list(range(degree)), self.log, category="data_parallel", spans_nodes=True
            )
            synced = self.hook.reduce(
                reference.name or f"stage{stage_index}.param{position}",
                stage_index,
                [parameter.grad for parameter in parameters],
                group,
            )
            for parameter, new_grad in zip(parameters, synced):
                parameter.grad[...] = new_grad


def run_per_parameter(engine: ThreeDParallelEngine) -> FrozenPerParameterSync:
    """Make ``engine`` synchronise its DP gradients through the frozen walk.

    The engine's DP hook is swapped too; the walk's records land in the
    engine's log.
    """
    for arena in engine.arenas[1:]:
        arena.rebind_storage(grad=np.zeros_like(arena.grad))
    engine.dp_reduce = FrozenPerParameterReduce(
        engine.plan.spec(Boundary.DP), engine.num_stages, seed=CODEC_SEED
    )
    engine.bucketed_sync = FrozenPerParameterSync(engine.replicas, engine.dp_reduce, engine.log)
    return engine.bucketed_sync


def dp_traffic_by_stage(records) -> dict[int, dict[str, int]]:
    """Per pipeline stage: the DP records, how many went compressed, and their
    per-rank original and payload bytes.

    The stage is the ``stage<i>`` (bucket) or ``stage[<i>]`` (parameter name)
    prefix of each record's description.
    """
    traffic: dict[int, dict[str, int]] = {}
    for record in records:
        if record.category != "data_parallel":
            continue
        stage = int(re.match(r"stage\[?(\d+)", record.description).group(1))
        entry = traffic.setdefault(
            stage, {"records": 0, "compressed": 0, "original_bytes": 0, "payload_bytes": 0}
        )
        entry["records"] += 1
        entry["compressed"] += int(record.compressed)
        entry["original_bytes"] += record.original_bytes
        entry["payload_bytes"] += record.payload_bytes
    return traffic


class Adam:
    """Adam optimiser (Kingma & Ba, 2015) with optional L2 regularisation."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.parameters: Sequence[Parameter] = list(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._exp_avg = [np.zeros_like(parameter.data) for parameter in self.parameters]
        self._exp_avg_sq = [np.zeros_like(parameter.data) for parameter in self.parameters]
        scratch_size = max((parameter.size for parameter in self.parameters), default=0)
        self._scratch = np.empty(scratch_size, dtype=np.float64)
        self._scratch2 = np.empty(scratch_size, dtype=np.float64)

    def zero_grad(self) -> None:
        """Zero every managed parameter gradient."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def _regularised_grad(self, parameter: Parameter, out: np.ndarray) -> np.ndarray:
        if self.weight_decay:
            np.multiply(parameter.data, self.weight_decay, out=out)
            out += parameter.grad  # grad + wd * data (addition commutes bitwise)
            return out
        return parameter.grad

    def _apply_decoupled_decay(self, parameter: Parameter, scratch: np.ndarray) -> None:
        """Hook for AdamW-style decoupled decay (no-op for plain Adam)."""

    def step(self) -> None:
        """Apply one Adam update (in-place, no per-parameter temporaries)."""
        self._step_count += 1
        bias_correction1 = 1.0 - self.beta1**self._step_count
        bias_correction2 = 1.0 - self.beta2**self._step_count
        for parameter, exp_avg, exp_avg_sq in zip(
            self.parameters, self._exp_avg, self._exp_avg_sq
        ):
            if not parameter.requires_grad:
                continue
            tmp = self._scratch[: parameter.size].reshape(parameter.shape)
            tmp2 = self._scratch2[: parameter.size].reshape(parameter.shape)
            grad = self._regularised_grad(parameter, tmp)
            exp_avg *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=tmp2)
            exp_avg += tmp2
            exp_avg_sq *= self.beta2
            np.multiply(grad, 1.0 - self.beta2, out=tmp2)
            tmp2 *= grad
            exp_avg_sq += tmp2

            np.divide(exp_avg_sq, bias_correction2, out=tmp)  # grad scratch is free now
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            np.divide(exp_avg, bias_correction1, out=tmp2)
            tmp2 *= self.lr
            tmp2 /= tmp
            self._apply_decoupled_decay(parameter, tmp)
            parameter.data -= tmp2


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019)."""

    def _regularised_grad(self, parameter: Parameter, out: np.ndarray) -> np.ndarray:
        # Decoupled decay: the gradient is not modified.
        return parameter.grad

    def _apply_decoupled_decay(self, parameter: Parameter, scratch: np.ndarray) -> None:
        if self.weight_decay:
            np.multiply(parameter.data, self.lr * self.weight_decay, out=scratch)
            parameter.data -= scratch

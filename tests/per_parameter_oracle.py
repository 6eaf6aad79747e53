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
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np

from repro.compression import ErrorFeedback, QSGDCompressor, TopKCompressor
from repro.compression.powersgd import matrix_view
from repro.core.selective_stage import SelectiveStageCompression
from repro.parallel.collectives import CommunicationLog, SimulatedProcessGroup
from repro.parallel.data_parallel import is_embedding_parameter
from repro.parallel.engine import CODEC_SEED, ThreeDParallelEngine
from repro.parallel.pipeline_engine import WIRE_BYTES_PER_ELEMENT
from repro.plan import Boundary, CompressionSpec


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
        p_bytes, q_bytes = self.kernel._reduce_segment(
            key,
            shape,
            [np.asarray(gradient, dtype=np.float64).reshape(-1) for gradient in gradients],
            [output.reshape(-1) for output in outputs],
            residual,
            ready,
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
    """The stage-by-stage, parameter-by-parameter walk, every record exposed."""

    def __init__(
        self,
        replicas: Sequence[Sequence],
        hook: FrozenPerParameterReduce,
        log: CommunicationLog | None = None,
    ) -> None:
        self.replicas = [list(replica) for replica in replicas]
        self.hook = hook
        self.log = log if log is not None else CommunicationLog()

    def synchronize(self, threads: int = 1) -> None:
        """The frozen walk; ``threads`` (the engine's) is ignored: it runs on the caller."""
        degree = len(self.replicas)
        if degree == 1:
            return
        for stage_index in range(len(self.replicas[0])):
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

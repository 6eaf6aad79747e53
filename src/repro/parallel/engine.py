"""Unified 3D-parallel execution engine.

One training iteration composes the three parallelism axes:

* ``data_parallel_degree`` replicas of the functional pipeline
  (:class:`~repro.parallel.pipeline_engine.PipelineParallelEngine`, with
  compressed backpropagation hooks on the backward inter-stage channel), all
  walked as one pipeline under the ``serial`` executor
  (:func:`~repro.parallel.pipeline_engine.walk_pipelines`), one per forked
  worker under ``process``;
* a **compressed data-parallel all-reduce** at the DP boundary — PowerSGD (the
  paper's distributed factor all-reduce), QSGD, or top-k, each with
  error-feedback residuals in per-bucket slabs, reusing :mod:`repro.compression`;
* the fused (or baseline) embedding synchronisation from
  :mod:`repro.core.fused_embedding`;
* tensor-parallel shards: the functional stages compute the dense result (the
  Megatron column/row split is numerically exact, which
  :meth:`ThreeDParallelEngine.verify_tensor_parallel` checks against
  :mod:`repro.parallel.tensor_parallel`), while the intra-node all-reduce traffic is
  accounted through :mod:`repro.parallel.collectives`.

Parameters and gradients live in flat
:class:`~repro.parallel.arena.ParameterArena` buffers with per-parameter views.
The DP replicas' arenas share **one** weight buffer (the model is built once;
the other replicas are copies whose parameters view it), so the group has one
:class:`repro.optim.FusedAdam` (:meth:`ThreeDParallelEngine.build_optimizer`).
The DP boundary is synchronised by one
:class:`~repro.parallel.data_parallel.BucketedDataParallelSync`: size-targeted
flat gradient buckets, and :class:`~repro.parallel.arena.CodecBucket` groups
for the codec-selected parameters, fired in backward-completion order (last
stage first), each reduced by folding the replicas' gradients into replica 0's
buffer one replica at a time.  Under ``serial`` a stage's walk thread folds
each replica as soon as its gradients there are final, overlapping the rest of
the walk as the paper's DP traffic overlaps the pipeline cool-down; the
replicas after replica 0 then need only one gradient buffer between them, two
in all.  Under ``process`` each worker writes a gradient segment of its own
and the parent folds them after the walk.  ``Schedule(kind="serial")`` logs
every bucket exposed (the overlap-off ablation; bit-for-bit the same weights);
``Schedule.dp_fire`` picks the firing granularity the overlapped buckets are
accounted at.

Everything is routed through one :class:`~repro.parallel.collectives.CommunicationLog`
so per-axis and per-boundary traffic can be reported exactly — the numbers behind
the breakdown/throughput figures.

Correctness anchor: with compression disabled everywhere the engine reproduces the
single-device reference model's gradients bit-for-bit (``tests/test_parallel_engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.compression import Compressor, QSGDCompressor, TopKCompressor
from repro.core.compressed_backprop import CompressedBackpropagation
from repro.core.fused_embedding import EmbeddingSynchronizer
from repro.core.selective_stage import SelectiveStageCompression
from repro.nn.gpt_stage import build_gpt_stages
from repro.nn.module import replicate_sharing_weights
from repro.nn.transformer import GPTModelConfig
from repro.optim.fused_adam import FusedAdam
from repro.parallel.arena import (
    BucketResidualStore,
    CodecBucket,
    GradientBucket,
    ParameterArena,
    ReplicaFold,
    pin_allocator_policy,
    trim_heap,
)
from repro.parallel.collectives import (
    REDUCE_TILE,
    CommunicationLog,
    SimulatedProcessGroup,
    record_ring_all_reduce,
)
from repro.parallel.data_parallel import BucketedDataParallelSync
from repro.parallel.pipeline_engine import (
    WIRE_BYTES_PER_ELEMENT,
    InterStageChannel,
    PipelineParallelEngine,
    walk_pipelines,
    walk_threads,
)
from repro.parallel.tensor_parallel import ColumnParallelLinear, RowParallelLinear
from repro.plan import Boundary, CompressionSpec, ParallelPlan
from repro.resilience import (
    FaultInjector,
    GuardrailPolicy,
    RecoveryPoint,
    ResilienceExhausted,
    ResilienceReport,
    SupervisionPolicy,
)
from repro.utils.state import capture_tree

#: Seed of the codecs' random initial factors on the backward inter-stage channel
#: and the DP all-reduce — a constant, independent of the weight-initialisation
#: seed, so two runs that differ only in ``seed=`` compress with the same codec
#: streams.
CODEC_SEED = 0

#: Megatron transformer layer: two all-reduces per layer per direction (attention
#: output projection and MLP down-projection are row-parallel).
TP_ALL_REDUCES_PER_LAYER_PER_DIRECTION = 2

#: The DP hook's reductions run under this: a poisoned gradient (inf/NaN under
#: fault injection) must reach the guard that rolls the step back, not raise
#: inside a codec kernel (inf - inf is NaN on purpose, as in ``orthogonalise``).
_POISON_PASSES = np.errstate(invalid="ignore")


class CompressedGradientAllReduce:
    """DP-boundary all-reduce with pluggable compression codecs.

    Implements the :class:`repro.parallel.data_parallel.BucketedCompressionHook`
    protocol.  Every bucket goes through it, one
    :class:`~repro.parallel.arena.ReplicaFold` per replica in replica order —
    flat exact buckets through :meth:`reduce_bucket`, codec buckets through
    :meth:`reduce_codec_bucket` — and the last replica's fold logs one record
    per collective, its ``original_bytes`` the bucket's uncompressed bytes; the
    codec is applied only to the selected stages' 2-D parameters
    (:meth:`codec_applies`).

    Codecs
    ------
    ``"none"``
        Exact mean all-reduce — the gradient-parity anchor.
    ``"powersgd"``
        The paper's distributed protocol: residual-corrected gradients are
        factorised, the P and Q factors are all-reduced (the only traffic), every
        replica reconstructs the same approximation, and the group keeps one
        residual (delegated to
        :class:`~repro.core.selective_stage.SelectiveStageCompression`).
    ``"qsgd"`` / ``"topk"``
        Each replica compresses its residual-corrected gradient, the payloads are
        all-gathered, every replica decompresses all of them and averages —
        identical results on every replica, classic per-replica error feedback.
    """

    def __init__(self, spec: CompressionSpec, num_stages: int, seed: int = 0) -> None:
        #: The plan's DP-boundary spec: codec, its knob, error feedback, the
        #: selected stage fraction and the per-parameter size floor.
        self.spec = spec
        self.num_stages = int(num_stages)
        self.compressed_stages: set[int] = spec.compressed_stages(num_stages)
        self.powersgd: SelectiveStageCompression | None = None
        #: The qsgd/top-k codec; its residuals live in per-bucket slabs below
        #: (under ``spec.error_feedback``), its own state is its RNG counters.
        self.compressor: Compressor | None = None
        if spec.codec == "powersgd":
            self.powersgd = SelectiveStageCompression(
                rank=spec.rank, error_feedback=spec.error_feedback, seed=seed
            )
        elif spec.codec == "qsgd":
            self.compressor = QSGDCompressor(bits=spec.bits, seed=seed)
        elif spec.codec == "topk":
            self.compressor = TopKCompressor(
                fraction=spec.fraction, min_elements=spec.min_elements
            )
        # Bucket-path state for the qsgd/topk codecs: per-bucket flat residual
        # slabs (one row per replica, segment layout = the bucket's) and, per
        # stage, one scratch row for all its buckets (the row a later
        # replica's approximation is decompressed into, grown to the widest
        # segment) and a codec that shares ``compressor``'s per-key state but
        # owns its scratch: stages' buckets are reduced on different threads
        # at once.
        self._bucket_residuals = BucketResidualStore()
        self._codec_scratch: dict[int, np.ndarray] = {}
        self._stage_compressors: dict[int, Compressor] = {}

    # -- BucketedCompressionHook protocol -------------------------------------------

    def codec_applies(self, stage_index: int, gradient: np.ndarray) -> bool:
        """Whether this stage/parameter pair is routed through the codec.

        The bucketed sync uses this to split the arena into exact flat buckets
        (everything else) and codec buckets (these parameters), which go through
        :meth:`reduce_codec_bucket` — one codec invocation per bucket, one
        compression key per parameter segment.
        """
        if stage_index not in self.compressed_stages:
            return False
        if gradient.ndim < 2:
            return False
        return gradient.size >= self.spec.min_elements

    def reserve(self, buckets: Sequence[CodecBucket], replicas: int) -> None:
        """Allocate everything the folds of ``buckets`` use, on the calling thread.

        Residual slabs, each stage's codec and scratch row, and the codec's
        per-key state, created in the order the buckets are given (their
        firing order) and, within a bucket, segment by segment and replica by
        replica: helper threads then allocate nothing, and a checkpoint's
        layout is the one-thread reduce's.
        """
        if self.powersgd is not None:
            self.powersgd.reserve(buckets)
            return
        for bucket in buckets:
            if self.spec.error_feedback:
                self._bucket_residuals.slab(bucket, replicas)
            compressor, _ = self._stage_codec(bucket)
            compressor.reserve(
                max(segment.num_elements for segment in bucket.segments),
                [
                    f"{segment.name}:replica{replica}"
                    for segment in bucket.segments
                    for replica in range(replicas)
                ],
            )

    def _stage_codec(self, bucket: CodecBucket) -> tuple[Compressor, np.ndarray]:
        """The bucket's stage's codec and scratch row, grown to the bucket's widest segment."""
        stage = bucket.stage_index
        compressor = self._stage_compressors.get(stage)
        if compressor is None:
            assert self.compressor is not None  # codec is qsgd or topk
            compressor = self._stage_compressors[stage] = self.compressor.with_own_scratch()
        largest = max(segment.num_elements for segment in bucket.segments)
        scratch = self._codec_scratch.get(stage)
        if scratch is None or scratch.size < largest:
            scratch = self._codec_scratch[stage] = np.empty(largest)
        return compressor, scratch

    @_POISON_PASSES
    def reduce_bucket(
        self, bucket: GradientBucket, fold: ReplicaFold, group: SimulatedProcessGroup
    ) -> None:
        """Fold one replica into the exact mean all-reduce of one flat gradient bucket, in place.

        Buckets carry only uncompressed parameters (the bucketed sync routes
        codec-selected ones through :meth:`reduce_codec_bucket`), so the payload
        always equals the original volume; the win is message granularity, not
        bytes.  Each later replica's span is added into replica 0's (``g0 +
        g1``, then ``+= g2 ...``, the order ``np.stack(...).mean(axis=0)``
        sums in, so the same bits); the last fold adds its span, divides by
        the replica count and copies the result to ``fold.copies`` tile by
        tile, while each tile is still in cache, and logs the all-reduce.
        """
        span = slice(bucket.start, bucket.stop)
        mean, gradient = fold.total[span], fold.gradient[span]
        if not fold.last:
            if fold.replica > 0:
                mean += gradient
            return
        copies = [copy[span] for copy in fold.copies]
        for start in range(0, mean.size, REDUCE_TILE):
            tile = mean[start : start + REDUCE_TILE]
            if fold.replica > 0:
                tile += gradient[start : start + REDUCE_TILE]
            tile /= fold.replicas
            for copy in copies:
                copy[start : start + REDUCE_TILE] = tile
        group.record_collective(
            "all_reduce",
            int(mean.size * WIRE_BYTES_PER_ELEMENT),
            description=(
                f"stage{bucket.stage_index} bucket{bucket.index} "
                f"({len(bucket.parameter_names)} params)"
            ),
        )

    @_POISON_PASSES
    def reduce_codec_bucket(
        self, bucket: CodecBucket, fold: ReplicaFold, group: SimulatedProcessGroup
    ) -> None:
        """Fold one replica into the codec-compressed all-reduce of one bucket, in place.

        One hook invocation covers every codec-selected parameter of the bucket:
        each segment keeps its own compression key (so RNG streams and
        warm-started factors do not depend on how parameters are bucketed),
        while message granularity, Python dispatch, and residual storage are
        per *bucket* — residuals live in one flat
        ``(replicas, elements)`` slab and the kernels run via
        ``compress_into``/``decompress_into``.  The slab doubles as the
        workspace: the replica's corrected gradient is accumulated into its
        row (``residual += gradient`` — addition commutes bitwise), compressed
        there, and turned back into the new residual by subtracting the
        approximation in place.  Replica 0's approximation is decompressed
        straight into its own buffer, which holds the sum from then on; every
        later replica's is decompressed into the stage's scratch row and added
        (the order ``np.mean`` sums in, so the same bits).  The last fold
        divides the sum by the replica count, copies it into ``fold.copies``
        and logs the all-gather.  The working set grows with neither the
        bucket count nor the replica count.  Each stage compresses with its
        own codec and scratch, so buckets of different stages may be reduced
        at once.
        """
        if self.powersgd is not None:
            self.powersgd.reduce_bucket(bucket, fold, group)
            return

        compressor, scratch = self._stage_codec(bucket)
        residual_slab, residual_ready = (
            self._bucket_residuals.slab(bucket, fold.replicas)
            if self.spec.error_feedback
            else (None, False)
        )
        payload_per_rank = 0
        for segment in bucket.segments:
            span = slice(segment.start, segment.stop)
            view = fold.gradient[span]
            if residual_slab is None:
                corrected = view
            else:
                corrected = residual_slab[fold.replica, segment.offset : segment.offset + segment.num_elements]
                if residual_ready:
                    corrected += view
                else:  # nothing stored yet: the first call adds no residual
                    corrected[...] = view
            payload = compressor.compress_into(
                corrected.reshape(segment.shape), f"{segment.name}:replica{fold.replica}"
            )
            synced = fold.total[span]
            approximation = synced if fold.replica == 0 else scratch[: segment.num_elements]
            compressor.decompress_into(payload, approximation.reshape(segment.shape))
            if residual_slab is not None:
                corrected -= approximation
            if fold.replica > 0:
                synced += approximation
            if fold.last:
                synced /= fold.replicas
                for copy in fold.copies:
                    copy[span] = synced
            # Every replica puts the same payload size on the wire.
            payload_per_rank += payload.payload_bytes
        if not fold.last:
            return
        self._bucket_residuals.filled(bucket)
        group.record_collective(
            "all_gather",
            payload_per_rank,
            compressed=True,
            description=(
                f"stage{bucket.stage_index} codec-bucket{bucket.index} "
                f"({len(bucket.segments)} params)"
            ),
            original_bytes=int(bucket.num_elements * WIRE_BYTES_PER_ELEMENT),
        )

    # -- reporting -------------------------------------------------------------------

    def residual_memory_bytes(self) -> int:
        """Memory held by the error-feedback residual slabs."""
        total = self._bucket_residuals.memory_bytes()
        if self.powersgd is not None:
            return total + self.powersgd.residual_memory_bytes()
        return total

    def state_dict(self) -> dict:
        """All cross-iteration DP-codec state (residuals, warm starts, RNG counters).

        Array leaves are the live buffers (the engine's ``mutable_state``
        detaches them; a checkpoint writes them as they are).
        """
        return {
            "powersgd": self.powersgd.state_dict() if self.powersgd is not None else None,
            "compressor": self.compressor.state_dict() if self.compressor is not None else None,
            "bucket_residuals": self._bucket_residuals.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        for name, component in (("powersgd", self.powersgd), ("compressor", self.compressor)):
            stored = state[name]
            if (component is None) != (stored is None):
                raise ValueError(
                    f"checkpoint {name} state does not match this codec configuration"
                )
            if component is not None:
                component.load_state_dict(stored)
        self._bucket_residuals.load_state_dict(state["bucket_residuals"])

    def clear_replica_state(self) -> None:
        """Restart the per-replica error-feedback accumulation (degradation).

        After a replica loss the per-replica residual indexing is stale (and
        PowerSGD's one residual is the mean over a group that no longer
        exists), so the residual slabs are dropped; the replica-agnostic warm
        starts (PowerSGD Q factors) and RNG call counts survive.
        """
        if self.powersgd is not None:
            self.powersgd.clear_residuals()
        self._bucket_residuals.clear()


#: Axis names of the per-iteration traffic report.
TRAFFIC_AXES = (
    "pipeline_forward",
    "pipeline_backward",
    "data_parallel",
    "embedding",
    "tensor_parallel",
)

#: Log-category → axis mapping.
_CATEGORY_TO_AXIS = {
    "inter_stage_forward": "pipeline_forward",
    "inter_stage_backward": "pipeline_backward",
    "data_parallel": "data_parallel",
    "embedding_dp": "embedding",
    "embedding_sync": "embedding",
    "tensor_parallel": "tensor_parallel",
}


@dataclass
class EngineIterationResult:
    """Outcome of one unified-engine iteration (before the optimiser step)."""

    mean_loss: float
    num_micro_batches: int
    #: Wire bytes moved on each axis during this iteration.
    axis_wire_bytes: dict[str, float] = field(default_factory=dict)
    #: Fraction of each axis's records flagged compressed during this iteration.
    axis_compressed_fraction: dict[str, float] = field(default_factory=dict)
    #: Backward inter-stage wire bytes per pipeline boundary.
    pipeline_boundary_wire_bytes: dict[int, float] = field(default_factory=dict)
    #: Split of the DP axis by whether the all-reduce was issued inside the
    #: pipeline cool-down (overlapped) or after the pipeline drained (exposed).
    dp_exposed_wire_bytes: float = 0.0
    dp_overlapped_wire_bytes: float = 0.0
    #: Resilience events of this iteration (faults injected, collective
    #: retries); populated only when a fault injector is wired.
    resilience: "ResilienceReport | None" = None
    # How the iteration ran, not what it produced: left out of equality.
    #: Threads the walk, the DP sync and the optimiser step run on
    #: (:func:`~repro.parallel.pipeline_engine.walk_threads`).
    threads: int = field(default=1, compare=False)
    #: Seconds of the pipeline walk(s), under ``serial`` the in-walk DP reduce
    #: and embedding sync too.
    walk_s: float = field(default=0.0, compare=False)
    #: Seconds of the DP sync after the walk (``process`` only: under
    #: ``serial`` it runs in the walk).
    dp_sync_s: float = field(default=0.0, compare=False)
    #: ``serial`` executor only: busy seconds per op kind per stage, wait
    #: seconds per stage, and per walk thread the seconds of its folds (the
    #: DP reduce and embedding sync steps) and of its drained step.
    op_busy_s: dict[str, list[float]] = field(default_factory=dict, compare=False)
    stage_wait_s: list[float] = field(default_factory=list, compare=False)
    reduce_s: list[float] = field(default_factory=list, compare=False)
    #: Seconds of the embedding sync, in the walk or after it.
    embedding_sync_s: float = field(default=0.0, compare=False)
    #: Seconds of the recovery point's capture at the top of the iteration
    #: (0 when nothing is captured).
    capture_s: float = field(default=0.0, compare=False)
    #: Seconds of the guard's gradient validation and of the optimiser step,
    #: filled in by the loop that validates and steps
    #: (:meth:`repro.training.trainer.Pretrainer.train_iteration`).
    validate_s: float = field(default=0.0, compare=False)
    step_s: float = field(default=0.0, compare=False)

    @property
    def total_wire_bytes(self) -> float:
        return sum(self.axis_wire_bytes.values())

    @property
    def dp_overlapped_fraction(self) -> float:
        """Fraction of this iteration's DP wire bytes hidden in the cool-down."""
        total = self.dp_exposed_wire_bytes + self.dp_overlapped_wire_bytes
        if total <= 0:
            return 0.0
        return self.dp_overlapped_wire_bytes / total


def axis_report(
    records,
) -> tuple[dict[str, float], dict[str, float], dict[str, float], dict[int, float], float]:
    """Per-axis wire bytes, compressed fractions and bytes-saved fractions,
    per-boundary backward bytes and overlapped DP bytes, in one pass over ``records``.

    An axis's bytes-saved fraction is ``1 - payload / original`` over its
    records' per-rank ``payload_bytes`` and ``original_bytes``.
    """
    wire = {axis: 0.0 for axis in TRAFFIC_AXES}
    counts = {axis: 0 for axis in TRAFFIC_AXES}
    compressed = {axis: 0 for axis in TRAFFIC_AXES}
    payload = {axis: 0 for axis in TRAFFIC_AXES}
    original = {axis: 0 for axis in TRAFFIC_AXES}
    boundaries: dict[int, float] = {}
    dp_overlapped = 0.0
    for record in records:
        axis = _CATEGORY_TO_AXIS.get(record.category)
        if axis is None:
            continue
        wire[axis] += record.wire_bytes
        counts[axis] += 1
        compressed[axis] += 1 if record.compressed else 0
        payload[axis] += record.payload_bytes
        original[axis] += record.original_bytes
        if record.category == "inter_stage_backward" and len(record.ranks) >= 2:
            # Boundary b sits between stages b and b + 1: the smaller rank.
            boundary = min(record.ranks)
            boundaries[boundary] = boundaries.get(boundary, 0.0) + record.wire_bytes
        elif record.category == "data_parallel" and record.overlapped:
            dp_overlapped += record.wire_bytes
    fractions = {
        axis: (compressed[axis] / counts[axis] if counts[axis] else 0.0)
        for axis in TRAFFIC_AXES
    }
    saved = {
        axis: (1.0 - payload[axis] / original[axis] if original[axis] else 0.0)
        for axis in TRAFFIC_AXES
    }
    return wire, fractions, saved, boundaries, dp_overlapped


def hook_state(hook) -> dict | None:
    """A compression hook's live ``state_dict()`` (``None`` where the hook is off)."""
    return hook.state_dict() if hook is not None else None


def _load_hook_states(hooks, states) -> None:
    if len(states) != len(hooks):
        raise ValueError(f"state has {len(states)} hook states, engine has {len(hooks)} hooks")
    for hook, state in zip(hooks, states):
        if (hook is None) != (state is None):
            raise ValueError("compression hook state does not match this configuration")
        if hook is not None:
            hook.load_state_dict(state)


@dataclass
class ReplicaResult:
    """What one replica's pipeline run in a worker produced (its reply).

    ``state`` and ``diagnostics`` belong to the replica's one compression
    hook, its channel's ``backward_hook`` (``None`` and empty where it is
    off).
    """

    loss: float
    records: list
    state: dict | None
    #: Fig. 11 error-independence records.
    diagnostics: list


def _take_since(items: list, mark: int) -> list:
    """Remove and return ``items[mark:]``."""
    taken = items[mark:]
    del items[mark:]
    return taken


def _stage_parameters(stages) -> list:
    """Every parameter of one replica's stages, stage 0 first: its arena order."""
    return [parameter for stage in stages for parameter in stage.parameters()]


def replica_runs_at_once(executor: str, replicas: int) -> int:
    """How many replica runs execute at once, sharing the usable cores.

    Every replica under the ``process`` executor (one worker each); one under
    ``serial``, which runs them all in one walk.
    """
    return replicas if executor == "process" else 1


def run_replica(pipeline_engine, batches, replica_runs: int, state) -> ReplicaResult:
    """Run one replica's pipeline iteration in a worker and take out what it appended.

    This run's slices of the channel log and of the hook's ``diagnostics``
    are removed from those lists and returned.
    ``replica_runs`` (:func:`replica_runs_at_once`) bounds the threads its
    pipeline walk spreads over.  ``state`` (the ``run`` message's; ``None``
    where the hook is off) is loaded first and the new state returned.
    """
    hook = pipeline_engine.channel.backward_hook
    if state is not None:
        hook.load_state_dict(state)
    records = pipeline_engine.channel.log.records
    diagnostics = hook.diagnostics if hook is not None else []
    record_mark, diagnostic_mark = len(records), len(diagnostics)
    loss = pipeline_engine.run_iteration(batches, replica_runs).mean_loss
    return ReplicaResult(
        loss=loss,
        records=_take_since(records, record_mark),
        state=hook.state_dict() if state is not None else None,
        diagnostics=_take_since(diagnostics, diagnostic_mark),
    )


class ThreeDParallelEngine:
    """One training iteration across pipeline × data × tensor parallelism.

    The engine is configured by a declarative :class:`repro.plan.ParallelPlan`
    and nothing else::

        engine = ThreeDParallelEngine(model_config, ParallelPlan.preset("cb_fe_sc"))

    The plan supplies the topology (pipeline depth, DP replicas, TP degree),
    the schedule (kind, DP firing granularity, memory cap), every boundary's
    compression spec, the execution substrate and the optional resilience
    section; ``plan.with_topology(...)`` / ``with_boundary(...)`` /
    ``with_executor(...)`` / ``with_resilience(...)`` derive variants.

    Parameters
    ----------
    model_config:
        Architecture of the GPT model (replicated on every DP replica, split into
        ``plan.topology.pp`` pipeline stages).
    plan:
        The run description, stored as ``self.plan``.
    log:
        Shared communication log; one is created when omitted.
    seed:
        Weight-initialisation seed (shared by all replicas, as in real DDP).  The
        codecs' random factors are seeded by :data:`CODEC_SEED`, not by this.
    collect_cb_diagnostics:
        Record the Fig. 11 error-independence statistics on replica 0.
    """

    def __init__(
        self,
        model_config: GPTModelConfig,
        plan: ParallelPlan,
        *,
        log: CommunicationLog | None = None,
        seed: int = 0,
        collect_cb_diagnostics: bool = False,
    ) -> None:
        # Before the stages and arenas allocate anything; forked workers inherit it.
        pin_allocator_policy()
        # And from a trimmed heap: what an engine built and dropped before this
        # one freed stays in the heap under the pinned trim threshold, and this
        # one's buffers laid out around it leave the heap fragmented, which
        # every worker forked from it inherits.  BENCH_e2e's
        # train_process_guarded (three trainers built, the last one timed)
        # read a 208-225 MB peak across checkouts, 200-208 MB with this trim.
        trim_heap()
        self.plan = plan
        self.model_config = model_config
        self.num_stages = plan.topology.pp
        self.data_parallel_degree = plan.topology.dp
        # The pipeline execution schedule: every replica's pipeline engine
        # walks the kind's op lists (1F1B for "1f1b"/"serial", ZB-H1 for
        # "zb1", synthesized for "auto"; bit-for-bit identical weights).
        # "auto" additionally carries the plan's activation-memory cap into
        # the synthesizer.  Model chunks are simulated, not executed: refuse
        # them rather than run plain 1F1B under an interleaved label (at
        # pp == 1 they change nothing, as in the simulator).
        if self.num_stages > 1 and plan.schedule.num_model_chunks > 1:
            raise ValueError(
                f"num_model_chunks={plan.schedule.num_model_chunks} at pp={self.num_stages}: "
                "the functional engine does not execute the interleaved schedule; "
                "use num_model_chunks=1 (the simulator accepts it)"
            )
        self.schedule_kind = plan.schedule.kind
        self.memory_cap_factor = plan.schedule.memory_cap_factor
        self.tensor_parallel_degree = plan.topology.tp
        if model_config.hidden_size % self.tensor_parallel_degree != 0:
            raise ValueError(
                f"hidden size {model_config.hidden_size} not divisible by tensor-parallel "
                f"degree {self.tensor_parallel_degree}"
            )
        self.log = log if log is not None else CommunicationLog()
        self.seed = int(seed)

        # One model per DP group, in flat-arena storage.  Replica 0 draws every
        # weight and its arena becomes the group's one weight buffer; every
        # further replica is a structural copy whose parameters view that
        # buffer from the start (no draw, no weight array of its own).  Under
        # ``serial`` replicas 1..dp-1 share one gradient buffer, under
        # ``process`` each worker writes its own.  Per-parameter views
        # make the fused optimiser a whole-buffer op and DP buckets
        # zero-copy flat spans.  The list is the arenas' live group:
        # ``drop_replica`` shrinks it.
        first = build_gpt_stages(model_config, self.num_stages, seed=self.seed)
        weights = ParameterArena(_stage_parameters(first))
        self.replicas: list[list] = [first]
        shared = None
        for _ in range(1, self.data_parallel_degree):
            stages = replicate_sharing_weights(first)
            arena = ParameterArena(_stage_parameters(stages), weights_of=weights, grad_of=shared)
            if plan.executor == "serial":
                # One walk folds each replica's stage gradient into replica
                # 0's before the next replica writes it: one more buffer.
                shared = arena
            self.replicas.append(stages)
        self.arenas: list[ParameterArena] = weights.group

        pp = plan.spec(Boundary.PP)
        self.pipeline_engines: list[PipelineParallelEngine] = []
        for replica_index, stages in enumerate(self.replicas):
            cb_hook = None
            if pp.compresses:
                cb_hook = CompressedBackpropagation(
                    num_stages=self.num_stages,
                    rank=pp.rank,
                    lazy_error_propagation=pp.error_feedback,
                    epilogue_only=pp.epilogue_only,
                    compressor=pp.codec,
                    topk_fraction=pp.fraction,
                    collect_diagnostics=collect_cb_diagnostics and replica_index == 0,
                    seed=CODEC_SEED,
                )
            channel = InterStageChannel(log=self.log, backward_hook=cb_hook)
            self.pipeline_engines.append(
                PipelineParallelEngine(
                    stages,
                    channel,
                    schedule_kind=self.schedule_kind,
                    memory_cap_factor=self.memory_cap_factor,
                )
            )

        self.dp_reduce = CompressedGradientAllReduce(
            plan.spec(Boundary.DP), self.num_stages, seed=CODEC_SEED
        )
        self.bucketed_sync = self._build_bucketed_sync()
        self.embedding_sync = self._build_embedding_sync()

        # Resilience seams: the plan's ``resilience`` section wires a fault
        # injector and guardrail budgets; without one the report stays empty
        # and no extra work happens on the iteration path.
        self.resilience = ResilienceReport()
        self.fault_injector: FaultInjector | None = None
        self.guardrails = GuardrailPolicy()
        #: Worker supervision (hang watchdog + respawn + escalation): armed
        #: when a resilience section rides a process-executor plan.  ``None``
        #: means the raw executor runs — its receive deadline still bounds
        #: hangs, but failures are fatal.
        self.supervision: SupervisionPolicy | None = None
        if plan.resilience is not None:
            self.fault_injector = plan.resilience.injector()
            self.guardrails = plan.resilience.policy()
            if plan.executor == "process":
                self.supervision = plan.resilience.supervision_policy()
        #: The pre-iteration capture that the guard's rollback restores from;
        #: ``run_iteration`` refreshes it once per call.  Installed by the
        #: guarded trainer; ``None`` means nothing is captured.
        self.recovery_point: RecoveryPoint | None = None
        self._iteration_index = 0

        # Process-parallel execution (repro.exec): started lazily on the first
        # run_iteration so that engines which are built but never stepped (plan
        # validation, traffic prediction) never fork.
        self.executor_kind = plan.executor
        self._process_executor = None
        self._supervisor = None

        if self.tensor_parallel_degree > 1:
            self.verify_tensor_parallel()

    def _build_bucketed_sync(self) -> BucketedDataParallelSync | None:
        """The DP sync over the current replicas (``None`` at DP1)."""
        if self.data_parallel_degree <= 1:
            return None
        return BucketedDataParallelSync(
            self.replicas,
            self.arenas,
            hook=self.dp_reduce,
            log=self.log,
            bucket_bytes=self.plan.spec(Boundary.DP).bucket_bytes,
            exclude_embedding=True,
            dp_fire=self.plan.schedule.dp_fire,
            schedule_kind=self.schedule_kind,
        )

    def _build_embedding_sync(self) -> EmbeddingSynchronizer:
        """The embedding synchroniser over the current replicas (fused under FE)."""
        return EmbeddingSynchronizer(
            self.replicas,
            log=self.log,
            fused=self.plan.spec(Boundary.EMBEDDING).codec == "fused",
        )

    # -- parameters -------------------------------------------------------------------

    @property
    def cb_hooks(self) -> list[CompressedBackpropagation | None]:
        """Each replica's compressed-backpropagation hook (``None`` where PP is off).

        Read from the channels, so it always lists the current replicas.
        """
        return [engine.channel.backward_hook for engine in self.pipeline_engines]

    def parameters(self, replica: int = 0):
        """Parameters of one replica (stable order: stage 0 first)."""
        return self.pipeline_engines[replica].parameters()

    def zero_grad(self) -> None:
        """Zero gradients on every replica (one flat write per arena).

        Not part of an iteration: :meth:`run_iteration` overwrites every
        gradient it produces.  For callers that want a clean buffer outside
        one.
        """
        for arena in self.arenas:
            arena.zero_grad()

    def build_optimizer(self, **adam_kwargs) -> FusedAdam:
        """The DP group's one optimiser: one pair of moments over the shared weights.

        The only way to build one for an engine (``FusedAdam`` refuses anything
        but the whole group): it steps the shared weights from the first live
        replica's synchronised gradient and its ``zero_grad`` (not needed
        between iterations) clears every live replica's gradients, before and
        after :meth:`drop_replica`.
        """
        return FusedAdam(self.arenas, **adam_kwargs)

    # -- tensor parallelism -----------------------------------------------------------

    def verify_tensor_parallel(self, atol: float = 1e-10) -> None:
        """Check the Megatron column/row split against the dense computation.

        The functional stages compute dense matmuls; this verifies — on a real
        weight of this model — that splitting it across ``tp`` ranks with a
        column-parallel layer feeding a row-parallel layer reproduces the dense
        result, which is what justifies charging only traffic (not error) to the
        tensor-parallel axis.
        """
        layer = self.replicas[0][0].layers[0]
        up_weight = layer.mlp.fc.weight.data
        down_weight = layer.mlp.proj.weight.data
        rng = np.random.default_rng(self.seed)
        x = rng.standard_normal((3, up_weight.shape[0]))
        scratch = CommunicationLog()
        column = ColumnParallelLinear(up_weight, self.tensor_parallel_degree, log=scratch)
        row = RowParallelLinear(down_weight, self.tensor_parallel_degree, log=scratch)
        sharded = row.forward(column.forward(x, gather_output=False))
        dense = (x @ up_weight) @ down_weight
        if not np.allclose(sharded, dense, atol=atol):
            raise RuntimeError(
                "tensor-parallel split diverged from the dense computation"
            )

    def _log_tensor_parallel_traffic(self, micro_batch_shapes: list[tuple[int, int]]) -> None:
        """Account the intra-node TP all-reduces of one iteration.

        Two all-reduces per transformer layer per direction (forward and backward)
        per micro-batch per replica, each carrying the full ``(batch, seq, hidden)``
        activation.  The functional stages already compute the exact (dense) result,
        so only traffic is recorded.
        """
        if self.tensor_parallel_degree <= 1:
            return
        num_layers = self.model_config.num_layers
        for batch, seq in micro_batch_shapes:
            payload = batch * seq * self.model_config.hidden_size * WIRE_BYTES_PER_ELEMENT
            for direction in ("fwd", "bwd"):
                for _ in range(num_layers * TP_ALL_REDUCES_PER_LAYER_PER_DIRECTION):
                    record_ring_all_reduce(
                        self.log,
                        payload,
                        self.tensor_parallel_degree,
                        category="tensor_parallel",
                        description=f"tp all-reduce ({direction})",
                    )

    # -- training ----------------------------------------------------------------------

    def run_iteration(self, per_replica_micro_batches: Sequence[Sequence]) -> EngineIterationResult:
        """Run one full 3D-parallel iteration (forward+backward+gradient sync).

        ``per_replica_micro_batches[d]`` is replica ``d``'s list of micro-batches,
        either ``(tokens, targets)`` tuples or
        :class:`repro.data.dataloader.MicroBatch` objects.  Each replica's
        pipeline run writes its gradients (nothing is added to what the buffers
        held before, so no ``zero_grad`` is needed first); they are left in the
        stage parameters, synchronised across replicas.  The optimiser step is
        the caller's.

        Under the ``serial`` executor every replica runs in one walk.  As soon
        as a replica's gradients of a stage are final, the stage's thread
        poisons that replica's scheduled gradient faults there and folds them
        into replica 0's buffer — the DP buckets' and, on stage 0 and stage
        ``pp - 1``, the embedding copies' — with no barrier; the last
        replica's folds finish both syncs.  Under ``process`` the parent
        poisons and folds every replica's gradient segment in replica order
        after the workers reply.  The collective-fault retries follow the
        walk.
        """
        if len(per_replica_micro_batches) != self.data_parallel_degree:
            raise ValueError(
                f"expected micro-batches for {self.data_parallel_degree} replicas, "
                f"got {len(per_replica_micro_batches)}"
            )
        normalised: list[list[tuple[np.ndarray, np.ndarray]]] = [
            [
                batch.as_tuple() if hasattr(batch, "as_tuple") else tuple(batch)
                for batch in replica_batches
            ]
            for replica_batches in per_replica_micro_batches
        ]
        record_mark = len(self.log.records)

        shapes: list[tuple[int, int]] = [
            (int(tokens.shape[0]), int(tokens.shape[1]))
            for replica_batches in normalised
            for tokens, _ in replica_batches
        ]
        executor = self._ensure_process_executor() if self.executor_kind == "process" else None
        capture_started = perf_counter()
        if self.recovery_point is not None:
            self.recovery_point.capture()
        capture_s = perf_counter() - capture_started
        report_before = self.resilience.copy()
        injector = self.fault_injector
        threads = walk_threads(
            self.num_stages, replica_runs_at_once(self.executor_kind, self.data_parallel_degree)
        )
        sync = self.bucketed_sync
        walk, embedding_s, dp_sync_s = None, [0.0] * threads, 0.0
        walk_started = perf_counter()
        if executor is not None:
            # One forked worker per replica over shared-memory arenas; what is
            # order-sensitive (fault injection, the syncs) stays here.  Under
            # supervision crashed or hung workers are respawned and the
            # iteration replayed bit-exactly from the untouched weights.
            if self._supervisor is not None:
                results = self._supervisor.run(normalised, self._iteration_index)
            else:
                results, failures = executor.run_collect(normalised, self._iteration_index)
                if failures:
                    raise failures[min(failures)]
            # The one place worker results reach the parent, in replica order,
            # so the log reads as the serial walk leaves it.
            for pipeline_engine, result in zip(self.pipeline_engines, results):
                self.log.records.extend(result.records)
                hook = pipeline_engine.channel.backward_hook
                if hook is not None:
                    hook.load_state_dict(result.state)
                    hook.diagnostics.extend(result.diagnostics)
            mean_loss = float(np.mean([result.loss for result in results]))
            # The workers' hook-state arrays are copied into the hooks by now: free
            # them before the syncs allocate, or a later fork inherits a fuller heap.
            del results, result
            self._log_tensor_parallel_traffic(shapes)
            applied = {
                (replica, stage): self._corrupt_gradients(replica, stage)
                for replica in range(self.data_parallel_degree)
                for stage in range(self.num_stages)
            }
        else:
            # Allocated here, on the calling thread, before the walk's threads fold.
            if sync is not None:
                sync.prepare()
            self.embedding_sync.prepare()
            embedding_stages = self.embedding_sync.stages
            applied = {}

            def folded(replica: int, stage: int, order) -> None:
                # Poison lands before the fold, so it propagates through the
                # collectives and error feedback like a real numerical blow-up.
                applied[replica, stage] = self._corrupt_gradients(replica, stage)
                if sync is not None:
                    sync.fold(order, replica, stage)
                if stage in embedding_stages:
                    started = perf_counter()
                    # Ranked after every DP record, as the sync after the walk.
                    order.at((self.data_parallel_degree + 1, 0))
                    self.embedding_sync.synchronize(replica, stage)
                    embedding_s[stage * threads // self.num_stages] += perf_counter() - started

            def drained(block: int, order) -> None:
                if block == 0:
                    # Ranked after every walk op, before the DP records.
                    order.at((self.data_parallel_degree, -1))
                    self._log_tensor_parallel_traffic(shapes)

            walk = walk_pipelines(self.pipeline_engines, normalised, threads, folded, drained)
            mean_loss = walk.mean_loss
        walk_s = perf_counter() - walk_started
        for _, specs in sorted(applied.items()):
            for spec in specs:
                self.resilience.record_fault(spec.kind)
        if injector is not None:
            # Transient collective faults are accounted at the sync: a retry
            # resends what no reduce has consumed, so it is sound.
            attempt = 0
            while injector.collective_fault_pending(self._iteration_index, attempt):
                if attempt >= self.guardrails.max_collective_retries:
                    raise ResilienceExhausted(
                        f"data-parallel collective still failing after {attempt} "
                        f"retries at iteration {self._iteration_index}"
                    )
                self.resilience.record_fault("collective")
                self.resilience.collective_retries += 1
                self.resilience.backoff_seconds += (
                    self.guardrails.backoff_base_seconds * (2.0**attempt)
                )
                attempt += 1

        if executor is not None:
            dp_started = perf_counter()
            if sync is not None:
                sync.synchronize(threads)
            embedding_started = perf_counter()
            dp_sync_s = embedding_started - dp_started
            self.embedding_sync.synchronize()
            embedding_s = [perf_counter() - embedding_started]
        self._iteration_index += 1

        wire, fractions, _, boundaries, dp_overlapped = axis_report(
            self.log.records[record_mark:]
        )
        return EngineIterationResult(
            mean_loss=mean_loss,
            num_micro_batches=len(normalised[0]),
            axis_wire_bytes=wire,
            axis_compressed_fraction=fractions,
            pipeline_boundary_wire_bytes=boundaries,
            dp_exposed_wire_bytes=wire.get("data_parallel", 0.0) - dp_overlapped,
            dp_overlapped_wire_bytes=dp_overlapped,
            resilience=(
                self.resilience.delta_since(report_before) if injector is not None else None
            ),
            threads=threads,
            capture_s=capture_s,
            walk_s=walk_s,
            dp_sync_s=dp_sync_s,
            embedding_sync_s=sum(embedding_s),
            op_busy_s=walk.op_busy_s if walk is not None else {},
            stage_wait_s=walk.stage_wait_s if walk is not None else [],
            reduce_s=walk.reduce_s if walk is not None else [],
        )

    # -- resilience --------------------------------------------------------------------

    def _corrupt_gradients(self, replica: int, stage: int) -> list:
        """Poison this iteration's NaN/Inf faults into one replica's stage; the specs applied."""
        if self.fault_injector is None:
            return []
        # [replica][stage] -> the arena spans of its trainable parameters
        spans: list[list[list]] = [[[] for _ in stages] for stages in self.replicas]
        spans[replica][stage] = [
            self.arenas[replica].span(parameter)
            for parameter in self.replicas[replica][stage].parameters()
            if parameter.requires_grad
        ]
        return self.fault_injector.corrupt_gradients(self._iteration_index, self.arenas, spans)

    def drop_replica(self, index: int) -> None:
        """Permanently remove one DP replica and shrink the group (degradation).

        The gradient mean automatically rescales to the survivors because every
        sync object is rebuilt over the shrunk replica list, and ``cb_hooks``
        is read from the surviving channels.  Per-replica error-feedback residuals
        restart (their replica indexing is stale); PowerSGD warm starts and RNG
        call counts survive.
        """
        if self.data_parallel_degree <= 1:
            raise ResilienceExhausted(
                "lost the last data-parallel replica — nothing left to train on"
            )
        if not 0 <= index < self.data_parallel_degree:
            raise ValueError(
                f"replica index {index} out of range for dp={self.data_parallel_degree}"
            )
        if self._process_executor is not None:
            # Retire the worker (and its gradient segment) before the replica
            # objects disappear under it; the weights segment is the group's.
            self._process_executor.drop_worker(index)
        del self.replicas[index]
        del self.pipeline_engines[index]
        self.arenas[index].leave_group()  # shrinks self.arenas; the weights stay put
        first = self.arenas[0]
        if any(np.may_share_memory(first.grad, arena.grad) for arena in self.arenas[1:]):
            # Replica 1 became the first, whose buffer the folds sum into:
            # it may no longer share the others'.
            first.rebind_storage(grad=np.empty_like(first.grad))
        self.data_parallel_degree -= 1
        self.dp_reduce.clear_replica_state()
        self.bucketed_sync = self._build_bucketed_sync()
        self.embedding_sync = self._build_embedding_sync()

    def live_mutable_state(self) -> dict:
        """Every cross-iteration mutable buffer outside the arenas/optimisers.

        The one inventory that the recovery point (through
        :meth:`mutable_state`) and the checkpoint writer both walk: DP-codec
        error-feedback residuals and warm starts (``dp_reduce``) and each
        replica's compressed-backpropagation residual/warm-start state
        (``cb_hooks``).  Array leaves are the *live* buffers —
        valid until the next iteration mutates them, which is all a checkpoint
        write needs.  The parent's hooks are the only copy, under the process
        executor too (each ``run`` message and reply carries the state).
        """
        return {
            "dp_reduce": self.dp_reduce.state_dict(),
            "cb_hooks": [hook_state(hook) for hook in self.cb_hooks],
        }

    def mutable_state(self, out: dict | None = None) -> dict:
        """A detached copy of :meth:`live_mutable_state`.

        ``out`` is a previous capture whose buffers are refilled in place
        (``np.copyto``) wherever shapes still match — how the per-iteration
        :class:`~repro.resilience.RecoveryPoint` avoids reallocating.
        """
        return capture_tree(self.live_mutable_state(), out)

    def load_mutable_state(self, state: dict) -> None:
        _load_hook_states(self.cb_hooks, state["cb_hooks"])
        self.dp_reduce.load_state_dict(state["dp_reduce"])

    # -- process-parallel execution ----------------------------------------------------

    def _ensure_process_executor(self):
        """Fork the replica workers on first use (``executor_kind == "process"``).

        When a :class:`~repro.resilience.SupervisionPolicy` is armed the
        executor gets its hang-watchdog deadline from the policy and a
        :class:`~repro.exec.WorkerSupervisor` wraps it.
        """
        if self._process_executor is None:
            # Lazy import: repro.exec builds on this module's objects.
            from repro.exec import ProcessExecutor, WorkerSupervisor

            policy = self.supervision
            self._process_executor = ProcessExecutor(
                self,
                worker_timeout=policy.worker_timeout if policy is not None else None,
            )
            if policy is not None:
                self._supervisor = WorkerSupervisor(
                    self._process_executor, policy, self.resilience
                )
        if not self._process_executor.started:
            self._process_executor.start()
        return self._process_executor

    def close(self) -> None:
        """Shut down the process executor, if one was started (idempotent).

        Each worker is reaped through :mod:`repro.exec.workers`' one ladder
        (shutdown sentinel, bounded join, then kill) and the shared-memory
        segments are unlinked; the arenas return to private memory and the
        engine keeps working on the serial path with the same state.  A no-op
        for serial engines, so callers may close unconditionally.
        """
        if self._process_executor is not None:
            self._process_executor.close()
            self._process_executor = None
            self._supervisor = None

    def __enter__(self) -> "ThreeDParallelEngine":
        return self

    def __exit__(self, exc_type, exc_value, exc_traceback) -> None:
        self.close()

    # -- evaluation --------------------------------------------------------------------

    def evaluate_loss(self, token_ids: np.ndarray, targets: np.ndarray) -> float:
        """Loss of a batch on replica 0 (no gradients touched)."""
        return self.pipeline_engines[0].evaluate_loss(token_ids, targets)

    def forward_logits(self, token_ids: np.ndarray) -> np.ndarray:
        """Inference pass on replica 0 returning logits."""
        return self.pipeline_engines[0].forward_logits(token_ids)

    # -- diagnostics -------------------------------------------------------------------

    def weights_in_sync(self, tolerance: float = 1e-9) -> bool:
        """Whether all replicas (and the tied embedding copies) hold identical weights.

        Across replicas that is normally a storage fact — parameters that are
        views of the group's one weight buffer cannot differ, and only ones
        found bound elsewhere are compared by value; the tied embedding copies
        *within* a replica are separate parameters and always are.
        """
        reference = self.pipeline_engines[0].parameters()
        for engine in self.pipeline_engines[1:]:
            for ref_param, other_param in zip(reference, engine.parameters()):
                if np.may_share_memory(ref_param.data, other_param.data):
                    continue
                if not np.allclose(ref_param.data, other_param.data, atol=tolerance):
                    return False
        for replica in self.replicas:
            copies = replica[0].embedding_parameters()
            if replica[-1] is not replica[0]:
                copies = copies + replica[-1].embedding_parameters()
            for copy in copies[1:]:
                if not np.allclose(copies[0].data, copy.data, atol=tolerance):
                    return False
        return True

    def residual_memory_bytes(self) -> int:
        """Total error-feedback memory: CB lazy-error residuals + DP residuals."""
        total = self.dp_reduce.residual_memory_bytes()
        for hook in self.cb_hooks:
            if hook is not None:
                total += hook.residual_memory_bytes()
        return total

    def traffic_summary(self) -> dict[str, float]:
        """Cumulative per-axis wire bytes over the engine's lifetime."""
        return axis_report(self.log.records)[0]

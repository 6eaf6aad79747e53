"""Data-parallel gradient synchronisation across model replicas.

The gradients must be averaged across the data-parallel group.
:class:`BucketedDataParallelSync` is the one mechanism that does it: flat
gradient buckets carved out of the replicas' parameter arenas, fired in
backward-completion order, with the paper's *selective stage compression*
plugged in through the :class:`BucketedCompressionHook` protocol.  The
schedule kind only decides whether the buckets' traffic counts as overlapped.
The shared embedding weight is excluded here so that
:class:`repro.core.fused_embedding.EmbeddingSynchronizer` can handle it (fused
or not).

A reduce is a *fold* (:meth:`BucketedDataParallelSync.fold`): replica by
replica, each replica's stage gradient is folded into replica 0's buffer
(:class:`~repro.parallel.arena.ReplicaFold`), and the last replica's fold
finishes the mean and copies it into the group's other gradient buffers.
Under the serial executor a stage's walk thread folds replica ``r`` as soon
as its last gradient write on the stage is done, before replica ``r + 1``
writes there — which is what lets replicas 1…dp−1 share one gradient buffer.
Under the process executor :meth:`BucketedDataParallelSync.synchronize`
runs the same folds over the workers' segments after the walk, each thread
folding its block of stages.  A bucket touches only its own gradient spans,
its own per-key codec state and its stage's codec scratch, everything a fold
uses is allocated on the calling thread first
(:meth:`BucketedDataParallelSync.prepare`), and the records land at their
firing position through :class:`~repro.parallel.op_order.OpOrder`, so
gradients, the log and a checkpoint equal the one-thread sync's at any
thread count.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.nn.gpt_stage import GPTStage
from repro.parallel.arena import (
    CodecBucket,
    GradientBucket,
    ParameterArena,
    ReplicaFold,
    build_codec_buckets,
    build_gradient_buckets,
    distinct_buffers,
)
from repro.parallel.collectives import CommunicationLog, SimulatedProcessGroup
from repro.parallel.op_order import OpOrder, fork_join
from repro.plan import DP_FIRE_KINDS, SCHEDULE_KINDS, SPLIT_BACKWARD_KINDS, validate_schedule_kind
from repro.tensor.parameter import Parameter

#: Parameters whose name contains this marker are the tied embedding copies.
EMBEDDING_NAME_MARKER = "word_embeddings"


def is_embedding_parameter(parameter: Parameter) -> bool:
    """True for the shared word-embedding weight (first/last stage copies)."""
    return EMBEDDING_NAME_MARKER in parameter.name


class BucketedCompressionHook(Protocol):
    """What :class:`BucketedDataParallelSync` needs from the codec/accounting hook."""

    def codec_applies(self, stage_index: int, gradient: np.ndarray) -> bool:
        """Whether this stage/parameter pair is routed through the codec."""
        ...

    def reserve(self, buckets: Sequence[CodecBucket], replicas: int) -> None:
        """Allocate, on the calling thread, everything the folds of ``buckets`` use."""
        ...

    def reduce_bucket(
        self, bucket: GradientBucket, fold: ReplicaFold, group: SimulatedProcessGroup
    ) -> None:
        """Fold one replica into the exact mean all-reduce of one bucket (with accounting)."""
        ...

    def reduce_codec_bucket(
        self, bucket: CodecBucket, fold: ReplicaFold, group: SimulatedProcessGroup
    ) -> None:
        """Fold one replica into the codec-compressed all-reduce of one codec bucket.

        Buckets of different stages may be folded at once, on different
        threads, so any scratch it keeps must be per stage.
        """
        ...


class BucketedDataParallelSync:
    """Bucketed DP gradient sync issued in backward-completion order.

    In a 1F1B pipeline the *last* stage drains its backward work first and the
    first stage last, so the DP all-reduces of later stages can be fired while
    earlier stages are still computing — the paper's overlap of DP traffic with
    the pipeline cool-down.  This synchroniser walks the stages in that completion
    order (stage ``S-1`` down to ``0``); every stage's gradients leave either as
    size-targeted flat *buckets* carved out of the replicas'
    :class:`~repro.parallel.arena.ParameterArena` (one zero-copy all-reduce per
    bucket instead of one per parameter) or — for the parameters selective stage
    compression selects — as :class:`~repro.parallel.arena.CodecBucket` groups,
    one codec invocation per bucket on the flat arena views with error-feedback
    residuals in per-bucket slabs.

    ``dp_fire`` sets the granularity the traffic is accounted at (the log's
    ``overlapped`` flag): ``"stage"`` fires a stage's buckets when its backward
    pass has drained, so only stage 0's traffic is exposed; ``"micro_batch"``
    fires each bucket inside the final micro-batch's backward as its gradients
    become final (deepest layers first), so only stage 0's input-side bucket
    is.  The split-backward kinds (``schedule_kind`` ``"zb1"``/``"auto"``)
    finalise gradients per W pass, so they always fire micro-batch-granular.
    Under ``"serial"`` (the overlap-off ablation) every record is exposed, as
    if nothing left before the pipeline drained.  None of this changes the
    numbers: every bucket's mean (and every codec segment's RNG stream and
    error-feedback key) is independent of when it fires, and a frozen copy of
    the per-parameter walk this replaced is the oracle it is held to, bit for
    bit, in ``tests/per_parameter_oracle.py``.
    """

    def __init__(
        self,
        replicas: Sequence[Sequence[GPTStage]],
        arenas: Sequence[ParameterArena],
        hook: BucketedCompressionHook,
        log: CommunicationLog | None = None,
        bucket_bytes: int = 1 << 16,
        exclude_embedding: bool = True,
        dp_fire: str = "stage",
        schedule_kind: str = "1f1b",
    ) -> None:
        if not replicas:
            raise ValueError("need at least one data-parallel replica")
        if len(arenas) != len(replicas):
            raise ValueError("need exactly one parameter arena per replica")
        if dp_fire not in DP_FIRE_KINDS:
            raise ValueError(f"dp_fire must be one of {DP_FIRE_KINDS}, got {dp_fire!r}")
        validate_schedule_kind(
            schedule_kind, SCHEDULE_KINDS, context="BucketedDataParallelSync.schedule_kind"
        )
        self.replicas = [list(replica) for replica in replicas]
        self.arenas = list(arenas)
        self.hook = hook
        self.log = log if log is not None else CommunicationLog()
        self.exclude_embedding = bool(exclude_embedding)
        self.dp_fire = dp_fire
        self.schedule_kind = schedule_kind

        def excluded(parameter: Parameter) -> bool:
            return self.exclude_embedding and is_embedding_parameter(parameter)

        def skip(stage_index: int, parameter: Parameter) -> bool:
            return excluded(parameter) or hook.codec_applies(stage_index, parameter.grad)

        def select(stage_index: int, parameter: Parameter) -> bool:
            return not excluded(parameter) and hook.codec_applies(
                stage_index, parameter.grad
            )

        stage_parameters = [list(stage.parameters()) for stage in self.replicas[0]]
        self.buckets: list[GradientBucket] = build_gradient_buckets(
            self.arenas[0], stage_parameters, bucket_bytes, skip=skip
        )
        self.codec_buckets: list[CodecBucket] = build_codec_buckets(
            self.arenas[0], stage_parameters, bucket_bytes, select=select
        )
        # Per-stage firing schedule: buckets of both kinds, ordered by backward
        # completion (descending arena offset — the backward pass touches the
        # deepest layers first).  With ``dp_fire="stage"`` the order within a
        # stage is immaterial (everything fires at the stage's drain point), so
        # the same schedule serves both granularities.
        self._fire_order: dict[int, list[GradientBucket | CodecBucket]] = {}
        for bucket in [*self.buckets, *self.codec_buckets]:
            self._fire_order.setdefault(bucket.stage_index, []).append(bucket)
        for stage_buckets in self._fire_order.values():
            stage_buckets.sort(key=lambda bucket: bucket.start, reverse=True)
        # One iteration's folds, set up by :meth:`prepare`: per stage, its
        # buckets' ``(firing position, bucket, overlapped)``, and the other
        # distinct gradient buffers a finished mean is copied into.
        self._fires: dict[int, list[tuple[int, GradientBucket | CodecBucket, bool]]] = {}
        self._copies: tuple[np.ndarray, ...] = ()

    @property
    def data_parallel_degree(self) -> int:
        return len(self.replicas)

    @property
    def num_stages(self) -> int:
        return len(self.replicas[0])

    def _group(self, overlapped: bool) -> SimulatedProcessGroup:
        return SimulatedProcessGroup(
            list(range(self.data_parallel_degree)),
            self.log,
            category="data_parallel",
            spans_nodes=True,
            overlapped=overlapped,
        )

    def prepare(self) -> None:
        """Set up the next iteration's folds on the calling thread, before any walk.

        Ranks the buckets in firing order, from the last stage (which drains
        first) to stage 0, and marks the ones the schedule kind overlaps
        (both attributes may have been reassigned); finds the gradient
        buffers the mean is copied into (the executor may have moved the
        arenas); and has the hook allocate every codec buffer and per-key
        state in firing order.  Allocated on a helper thread, they would sit
        in a glibc per-thread malloc arena, and a later thread that misses
        that arena grows another: ``train_quant_auto``'s peak RSS read
        309-337 MB instead of 294-298 MB in 4 of 20 runs that way.
        """
        fire = "micro_batch" if self.schedule_kind in SPLIT_BACKWARD_KINDS else self.dp_fire
        self._fires = {stage_index: [] for stage_index in range(self.num_stages)}
        rank = 0
        for stage_index in range(self.num_stages - 1, -1, -1):
            stage_buckets = self._fire_order.get(stage_index, [])
            for position, bucket in enumerate(stage_buckets):
                if self.schedule_kind == "serial":
                    overlapped = False  # nothing leaves before the drain
                elif fire == "micro_batch":
                    # Only stage 0's input-side bucket, final last, is exposed.
                    overlapped = stage_index > 0 or position < len(stage_buckets) - 1
                else:
                    overlapped = stage_index > 0  # stage 0 drains last
                self._fires[stage_index].append((rank, bucket, overlapped))
                rank += 1
        self._copies = tuple(distinct_buffers(arena.grad for arena in self.arenas)[1:])
        self.hook.reserve(
            [
                bucket
                for stage_index in range(self.num_stages - 1, -1, -1)
                for bucket in self._fire_order.get(stage_index, [])
                if isinstance(bucket, CodecBucket)
            ],
            self.data_parallel_degree,
        )

    def fold(self, order: OpOrder, replica: int, stage_index: int) -> None:
        """Fold replica ``replica``'s stage ``stage_index`` gradients into replica 0's buffer.

        Call it once per replica and stage, in replica order for each stage,
        after :meth:`prepare`: replica ``replica``'s gradients of the stage
        must be final and replica ``replica - 1``'s folded.  The last
        replica's fold finishes every bucket of the stage; bucket ``b``'s
        fold is ranked ``(DP degree, b's firing position, replica)`` in
        ``order``, after every op of a pipeline walk.
        """
        degree = self.data_parallel_degree
        fold = ReplicaFold(
            replica,
            degree,
            self.arenas[0].grad,
            self.arenas[replica].grad,
            self._copies if replica == degree - 1 else (),
        )
        for rank, bucket, overlapped in self._fires[stage_index]:
            order.at((degree, rank, replica))
            if isinstance(bucket, CodecBucket):
                self.hook.reduce_codec_bucket(bucket, fold, self._group(overlapped))
            else:
                self.hook.reduce_bucket(bucket, fold, self._group(overlapped))

    def synchronize(self, threads: int = 1) -> None:
        """Fold every replica after the walk; thread ``t`` folds the ``t``-th block of stages.

        How the process executor reduces its workers' gradient segments:
        every replica's gradients are final, so each stage folds replica 0,
        1, … in a row.  The blocks of stages are the pipeline walk's.
        """
        if self.data_parallel_degree == 1:
            return
        self.prepare()
        num_stages = self.num_stages
        threads = max(1, min(threads, num_stages))
        order = OpOrder()

        def fold_block(block: int, _) -> None:
            for stage_index in range(num_stages):
                if stage_index * threads // num_stages == block:
                    for replica in range(self.data_parallel_degree):
                        self.fold(order, replica, stage_index)

        try:
            fork_join(fold_block, range(threads), name="dp-sync")
        finally:
            order.commit()

"""Data-parallel gradient synchronisation across model replicas.

After every replica has finished its micro-batches, the gradients must be
averaged across the data-parallel group.  :class:`BucketedDataParallelSync` is
the one mechanism that does it: flat gradient buckets carved out of the
replicas' parameter arenas, fired in backward-completion order, with the
paper's *selective stage compression* plugged in through the
:class:`BucketedCompressionHook` protocol.  The schedule kind only decides when
the buckets fire and whether their traffic counts as overlapped.  The shared
embedding weight is excluded here so that
:class:`repro.core.fused_embedding.EmbeddingSynchronizer` can handle it (fused or
not).

The sync runs on the threads the pipeline walk ran on: each owns the same
contiguous block of stages and reduces those stages' buckets, exact and
codec.  A bucket touches only its own gradient spans, its own per-key codec
state and its stage's codec scratch, and its records and new state keys
land at its firing position through
:class:`~repro.parallel.op_order.OpOrder`, so gradients, the log and a
checkpoint equal the one-thread sync's at any thread count.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.nn.gpt_stage import GPTStage
from repro.parallel.arena import (
    CodecBucket,
    GradientBucket,
    ParameterArena,
    build_codec_buckets,
    build_gradient_buckets,
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

    def reduce_bucket(
        self,
        bucket: GradientBucket,
        gradients: Sequence[np.ndarray],
        group: SimulatedProcessGroup,
    ) -> None:
        """Exact mean all-reduce of one bucket's flat views, in place (with accounting)."""
        ...

    def reduce_codec_bucket(
        self,
        bucket: CodecBucket,
        flat_gradients: Sequence[np.ndarray],
        group: SimulatedProcessGroup,
    ) -> None:
        """Codec-compressed in-place all-reduce of one codec bucket.

        Buckets of different stages may be reduced at once, on different
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

    ``dp_fire`` sets the firing granularity:

    * ``"stage"`` — a stage's buckets fire when its whole backward pass has
      drained.  Traffic of stages ``> 0`` hides in the cool-down (``overlapped``
      in the :class:`~repro.parallel.collectives.CommunicationLog`); stage 0
      drains last, so all of its traffic is exposed.
    * ``"micro_batch"`` — buckets fire *inside* the final micro-batch's backward
      pass, as each bucket's gradients become final (deepest layers first, i.e.
      descending arena offset).  Only the last bucket to complete — stage 0's
      input-side bucket — has no compute left to hide under; everything else is
      overlapped.

    The numerical result does not depend on the granularity: bucketing and
    firing order only change message granularity and overlap accounting —
    every bucket's mean (and every codec segment's RNG stream and
    error-feedback key) is independent of when the bucket fires.  A frozen
    copy of the per-parameter walk this replaced (one all-reduce per
    parameter, per-key residuals) is the oracle it is held to, bit for bit,
    in ``tests/per_parameter_oracle.py``.

    ``schedule_kind`` names the pipeline schedule the firing points are derived
    from.  Under ``"zb1"`` a parameter's gradient becomes final at its
    *weight-pass* (W), not at the stage's backward drain — the final
    micro-batch's W pass walks the layers deepest-first, finalising buckets one
    by one while the other stages still drain their deferred W passes.  The
    split backward therefore makes micro-batch-granular firing the schedule's
    *native* granularity: zb1 fires every bucket inside that W drain regardless
    of ``dp_fire``, and only the globally last bucket to become final — stage
    0's input-side one (stage 0 defers no W passes, so its W drain ends the
    pipeline) — stays exposed.  This is how the late W passes widen the window
    the PR-4 ``dp_fire`` knob opened; the timing simulator quantifies the same
    effect through its per-stage windows.

    Under ``"serial"`` (the overlap-off ablation) nothing fires until the whole
    pipeline has drained: every bucket leaves after the last backward op, in
    the same order, and every record is exposed whatever ``dp_fire`` says.
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
        #: Whether a sync has run, allocating the hook's codec buffers.
        self._allocated = False

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

    def synchronize(self, threads: int = 1) -> None:
        """Fire every stage's bucket all-reduces in backward-completion order.

        On ``threads`` threads, the pipeline walk's split: thread ``t`` owns
        the same contiguous block of stages as its walk thread and reduces
        those stages' buckets, in the firing order restricted to them.  Every
        bucket's arithmetic reads only its own gradient spans and its own
        codec state, and its records go through
        :class:`~repro.parallel.op_order.OpOrder` at its firing position, so
        gradients, state and the log equal the one-thread run's.

        The first sync runs on the calling thread whatever ``threads`` says:
        it allocates the codec buffers the later ones reuse (residual slabs,
        codes, scratch).  Allocated on a helper thread, they would sit in a
        glibc per-thread malloc arena, and a later thread that misses that
        arena grows another: ``train_quant_auto``'s peak RSS read 309-337 MB
        instead of 294-298 MB in 4 of 20 runs that way.
        """
        if self.data_parallel_degree == 1:
            return
        # The split-backward schedules (zb1/auto) finalise gradients per W
        # pass (deepest layers first), so micro-batch granularity is their
        # native firing mode whatever ``dp_fire`` says.
        fire = "micro_batch" if self.schedule_kind in SPLIT_BACKWARD_KINDS else self.dp_fire
        num_stages = self.num_stages
        threads = max(1, min(threads, num_stages)) if self._allocated else 1
        # blocks[t]: thread t's (firing position, bucket, overlapped) triples.
        blocks: list[list[tuple[int, GradientBucket | CodecBucket, bool]]] = [
            [] for _ in range(threads)
        ]
        rank = 0
        for stage_index in range(num_stages - 1, -1, -1):
            stage_buckets = self._fire_order.get(stage_index, [])
            for position, bucket in enumerate(stage_buckets):
                if self.schedule_kind == "serial":
                    # The overlap-off ablation: nothing leaves before the whole
                    # pipeline has drained, so nothing hides under compute.
                    overlapped = False
                elif fire == "micro_batch":
                    # Every bucket overlaps the remaining backward compute
                    # except the very last one to become ready: stage 0's
                    # input-side bucket, which completes only when the whole
                    # pipeline has drained.
                    overlapped = not (
                        stage_index == 0 and position == len(stage_buckets) - 1
                    )
                else:
                    # Stage granularity: everything issued before stage 0's
                    # drain hides in the cool-down; stage 0's traffic cannot.
                    overlapped = stage_index > 0
                blocks[stage_index * threads // num_stages].append((rank, bucket, overlapped))
                rank += 1
        grad_buffers = [arena.grad for arena in self.arenas]
        order = OpOrder()

        def reduce_block(_: int, block) -> None:
            for rank, bucket, overlapped in block:
                order.at(rank)
                group = self._group(overlapped)
                if isinstance(bucket, CodecBucket):
                    self.hook.reduce_codec_bucket(bucket, grad_buffers, group)
                else:
                    flats = [grad[bucket.start : bucket.stop] for grad in grad_buffers]
                    self.hook.reduce_bucket(bucket, flats, group)

        try:
            fork_join(reduce_block, blocks, name="dp-sync")
        finally:
            order.commit()
        self._allocated = True

"""Functional pipeline-parallel training engine.

The engine runs the pipelines of one or more data-parallel replicas over a
mini-batch split into micro-batches, producing exactly the gradients the
single-device reference model would produce when no compression is enabled.
All inter-stage traffic flows through an :class:`InterStageChannel`, whose
backward path exposes the hook that the paper's compressed backpropagation
plugs into.

Execution order
---------------
Every schedule kind runs one executor, :func:`walk_pipelines`.  It builds the
kind's per-stage op lists (:func:`~repro.parallel.scheduler.schedule_ops`:
1F1B for ``"1f1b"``/``"serial"``, the handcrafted ZB-H1 for ``"zb1"``, the
synthesizer's output for ``"auto"``) over every replica's micro-batches,
replica after replica, and executes them in the order
:func:`~repro.parallel.pipeline_schedule.replay_ops` visits them — the walk
the synthesizer's evaluator and the timing simulator fold over, whose order
depends only on which producers have run, never on op times.  A fused
``"backward"`` op is :meth:`~repro.nn.gpt_stage.GPTStage.backward`; the
split-backward kinds run its halves as separate ops, B
(:meth:`~repro.nn.gpt_stage.GPTStage.backward_input`) and a deferred W
(:meth:`~repro.nn.gpt_stage.GPTStage.backward_weight`).  A stage therefore
holds exactly the activations its op list has in flight (``min(pp - stage,
micro-batches)`` under 1F1B), one replica's stage never more than its own
list would.

A thread owns its stage block, of every replica, for the whole iteration:
on :func:`walk_threads` threads, each walks the order restricted to its
contiguous block of stages, blocking only on an activation or activation
gradient another thread hands over (keyed ``(replica, stage, micro_batch)``,
under one :class:`threading.Condition`).  Every producer comes before its
consumer, so no split can deadlock.  Thread 0 runs the next replica's
forwards while the last stage drains this one's.  A stage's gradient-writing
ops (fused backward, or W) come in replica order, so as soon as a replica's
last one on a stage has run, its gradients there are final: the thread goes
on, with no barrier, to the caller's ``folded`` step for that replica and
stage — the DP reduce folding them into replica 0's buffer, and on stage 0
and stage ``pp - 1`` the embedding sync's — before the next replica writes
the stage.  The serial executor's replicas 1…dp−1 can therefore share one
gradient buffer.  Every threaded phase forks and joins through
:func:`~repro.parallel.op_order.fork_join`.

Within one iteration no weights change, so the numerical result depends on
two orders only, both ascending in micro-batch in every valid op list, so in
each replica's: each boundary's backward transfers (lazy error propagation
carries a residual from one micro-batch's transfer to the next, in each
replica's hook) and each stage's gradient accumulation (floating-point sums
are order-sensitive).  The weights are therefore bit-for-bit identical
whichever valid schedule is walked (the parity tests hold every kind to a
frozen phase-ordered loop), over one replica or all, on any number of
threads: both orders belong to one stage of one replica, so to one thread.
What a walk appends — the channel log's records and the backward hook's
Fig. 11 ``diagnostics`` — is observable too, so those lists are
:class:`~repro.parallel.op_order.OpOrderedList` lists: an op's appends are
committed after the join, ranked ``(replica, its rank in that replica's own
walk)``, so every log reads record-for-record as one-replica one-thread
walks (a process worker's) leave it; a hook's per-key state dicts are
:class:`~repro.parallel.op_order.OpOrderedDict` dicts, so their keys (and a
checkpoint's layout) keep that order too.  Threads are started and joined
inside one call, so none is alive when a worker is forked.

Interleaved lists (``num_model_chunks > 1``) are not executed here:
:class:`~repro.parallel.engine.ThreeDParallelEngine` refuses them at
``pp > 1``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from repro.nn.gpt_stage import GPTStage, StageCache
from repro.parallel.collectives import (
    WIRE_BYTES_PER_ELEMENT,
    CommunicationLog,
    TrafficRecord,
)
from repro.parallel.op_order import Aborted, OpOrder, fork_join
from repro.parallel.pipeline_schedule import OP_KINDS, PipelineOp, replay_ops
from repro.parallel.scheduler import StageCosts, SynthesisSpec, schedule_ops
from repro.plan import validate_memory_cap_factor, validate_schedule_kind
from repro.tensor.parameter import gradient_epoch, settle_gradients
from repro.utils.cores import blas_threads, usable_cores

#: Hook applied to every backward inter-stage transfer.
#:
#: ``hook(grad, boundary, micro_batch, num_micro_batches) -> (delivered, payload_bytes, compressed)``
#: where ``boundary`` is the index of the *receiving* stage (the gradient flows from
#: stage ``boundary + 1`` to stage ``boundary``).
BackwardCommHook = Callable[
    [np.ndarray, int, int, int], tuple[np.ndarray, int, bool]
]

#: The op kinds that write parameter gradients (a B pass only stashes them).
GRADIENT_WRITING_KINDS = ("backward", "backward_weight")


def walk_threads(num_stages: int, replica_runs: int = 1) -> int:
    """Threads a pipeline walk runs on.

    ``min(num_stages, usable cores // (replica_runs x BLAS threads))``, at
    least 1: every walk thread of every replica run that executes at once
    (:func:`~repro.parallel.engine.replica_runs_at_once`) may drive a BLAS
    call on :func:`~repro.utils.cores.blas_threads` threads.  With BLAS
    unpinned a walk keeps to one thread: on a 2-core x86 VM, two walk threads
    each driving a machine-wide pool ran ``train_dense`` ~1.6x slower.
    """
    budget = usable_cores() // (max(1, replica_runs) * blas_threads())
    return max(1, min(num_stages, budget))


@dataclass
class IterationResult:
    """Outcome of one pipeline walk; its traffic is what it appended to the channels' log."""

    mean_loss: float
    num_micro_batches: int
    # How the iteration ran, not what it produced: left out of equality.
    #: Threads the stages walked on (:func:`walk_threads`).
    threads: int = field(default=1, compare=False)
    #: Per op kind, per stage: seconds that stage's ops of that kind ran.
    op_busy_s: dict[str, list[float]] = field(default_factory=dict, compare=False)
    #: Per stage, seconds its thread blocked on the stage's arrivals from a
    #: stage on another thread (all 0.0 on one thread).
    stage_wait_s: list[float] = field(default_factory=list, compare=False)
    #: Per thread, seconds of the caller's ``folded`` and ``drained`` steps.
    reduce_s: list[float] = field(default_factory=list, compare=False)

    @property
    def stage_busy_s(self) -> list[float]:
        """Per stage, seconds its ops ran, of every kind."""
        return [sum(kinds) for kinds in zip(*self.op_busy_s.values())]


class _Arrivals:
    """Hands activations and activation gradients, keyed ``(replica, stage, micro_batch)``, between walk threads.

    One :class:`threading.Condition` guards every put and take.  On one thread
    a take never waits: the canonical order puts every producer first.
    """

    def __init__(self) -> None:
        self._arrived = threading.Condition()
        self._aborted = False

    def put(self, store: dict, key: tuple[int, int, int], value) -> None:
        with self._arrived:
            store[key] = value
            self._arrived.notify_all()

    def take(self, store: dict, key: tuple[int, int, int]):
        """Pop ``store[key]``, waiting until it is put; returns ``(value, blocked)``."""
        with self._arrived:
            blocked = key not in store
            while key not in store:
                if self._aborted:
                    raise Aborted
                self._arrived.wait()
            return store.pop(key), blocked

    def abort(self) -> None:
        """Wake every waiting take: another walk thread failed."""
        with self._arrived:
            self._aborted = True
            self._arrived.notify_all()


class InterStageChannel:
    """Carries activations (forward) and activation gradients (backward) between stages.

    Only the backward direction has a compression hook: activations always
    travel uncompressed.
    """

    def __init__(
        self,
        log: CommunicationLog | None = None,
        backward_hook: BackwardCommHook | None = None,
    ) -> None:
        self.log = log if log is not None else CommunicationLog()
        self.backward_hook = backward_hook

    def send_forward(self, activation: np.ndarray, boundary: int, micro_batch: int) -> np.ndarray:
        """Transfer an activation from stage ``boundary`` to stage ``boundary + 1``."""
        payload_bytes = int(activation.size * WIRE_BYTES_PER_ELEMENT)
        self.log.add(
            TrafficRecord(
                operation="p2p",
                category="inter_stage_forward",
                payload_bytes=payload_bytes,
                original_bytes=payload_bytes,
                wire_bytes=float(payload_bytes),
                ranks=(boundary, boundary + 1),
                compressed=False,
                description=f"fwd activation mb={micro_batch}",
            )
        )
        return activation

    def send_backward(
        self, gradient: np.ndarray, boundary: int, micro_batch: int, num_micro_batches: int
    ) -> np.ndarray:
        """Transfer an activation gradient from stage ``boundary + 1`` to stage ``boundary``."""
        delivered = gradient
        original_bytes = payload_bytes = int(gradient.size * WIRE_BYTES_PER_ELEMENT)
        compressed = False
        if self.backward_hook is not None:
            delivered, payload_bytes, compressed = self.backward_hook(
                gradient, boundary, micro_batch, num_micro_batches
            )
        self.log.add(
            TrafficRecord(
                operation="p2p",
                category="inter_stage_backward",
                payload_bytes=payload_bytes,
                original_bytes=original_bytes,
                wire_bytes=float(payload_bytes),
                ranks=(boundary + 1, boundary),
                compressed=compressed,
                description=f"bwd gradient mb={micro_batch}",
            )
        )
        return delivered


def walk_pipelines(
    engines: Sequence["PipelineParallelEngine"],
    micro_batches: Sequence[Sequence[tuple[np.ndarray, np.ndarray]]],
    threads: int,
    folded: Callable[[int, int, OpOrder], None] | None = None,
    drained: Callable[[int, OpOrder], None] | None = None,
) -> IterationResult:
    """Run forward+backward of every replica's mini-batch as one walk on ``threads`` threads.

    ``engines[r]`` is replica ``r``'s pipeline (one schedule kind and depth)
    and ``micro_batches[r]`` its ``(token_ids, targets)`` pairs, ``mb`` on
    each.  The op lists cover ``dp x mb`` micro-batches: global micro-batch
    ``g`` is replica ``g // mb``'s micro-batch ``g % mb``, with loss scale
    ``1/mb``, so each replica's gradient is its own mini-batch's mean.  Each
    thread opens a :func:`~repro.tensor.parameter.gradient_epoch` over its
    block's parameters: first writes assign, later ones add, so callers never
    clear the buffers first.  After replica ``r``'s last gradient-writing op
    on stage ``s`` the thread settles that replica's stage (what no op wrote
    is zero-filled) and runs ``folded(r, s, order)``, before any op of a
    later replica writes the stage's gradients; a walk whose op lists would
    interleave two replicas' gradient writes on a stage raises.  Once the
    block's ops are done, ``drained(t, order)`` runs on thread ``t``.  Both
    run in the walk's :class:`~repro.parallel.op_order.OpOrder`.
    """
    num_micro_batches = len(micro_batches[0])
    if num_micro_batches == 0 or any(len(batches) != num_micro_batches for batches in micro_batches):
        raise ValueError("run_iteration requires at least one micro-batch, as many on every replica")
    first = engines[0]
    num_stages = first.num_stages
    untimed = dict.fromkeys(OP_KINDS, (0.0,) * num_stages)

    def walk(count: int) -> list[tuple[int, PipelineOp, float, float]]:
        # "auto" runs the synthesizer with the analytic unit-cost split (F=1,
        # B=2, W=1 — the recompute-free transformer ratio) and the engine's
        # memory cap.  The engine is timing-free, so any dependency-valid list
        # yields identical weights; the costs only shape which one is chosen.
        schedule = schedule_ops(
            first.schedule_kind,
            num_stages,
            count,
            lambda: SynthesisSpec(
                num_stages=num_stages,
                num_micro_batches=count,
                costs=(StageCosts(1.0, 2.0, 1.0),) * num_stages,
                memory_cap_factor=first.memory_cap_factor,
            ),
        )
        return list(replay_ops(schedule, untimed, lambda op, consumer: 0.0))

    merged = walk(len(engines) * num_micro_batches)
    # An op's rank in its replica's own walk; a W pass appends nothing and
    # takes its B pass's rank (a fused list has no W of its own).
    own_rank: dict[tuple[int, int, bool], int] = {}
    own = merged if len(engines) == 1 else walk(num_micro_batches)
    for rank, (stage_index, op, _, _) in enumerate(own):
        own_rank.setdefault((stage_index, op.micro_batch, op.kind == "forward"), rank)
    # Where each replica's gradients of each stage are final: the position of
    # its last gradient-writing op there, checked to precede the next replica's.
    final: dict[tuple[int, int], int] = {}
    writing = [0] * num_stages
    for position, (stage_index, op, _, _) in enumerate(merged):
        if op.kind in GRADIENT_WRITING_KINDS:
            replica = op.micro_batch // num_micro_batches
            if replica < writing[stage_index]:
                raise ValueError(
                    f"stage {stage_index}'s op list writes replica {replica}'s gradients "
                    f"after replica {writing[stage_index]}'s"
                )
            writing[stage_index] = replica
            final[(replica, stage_index)] = position
    # Thread t owns a contiguous block of stages, of every replica, and walks
    # the merged order restricted to them.
    blocks: list[list] = [[] for _ in range(threads)]
    for position, (stage_index, op, _, _) in enumerate(merged):
        replica, micro_batch = divmod(op.micro_batch, num_micro_batches)
        rank = (replica, own_rank[(stage_index, micro_batch, op.kind == "forward")])
        finishes = final[(replica, stage_index)] == position
        blocks[stage_index * threads // num_stages].append(
            (rank, replica, stage_index, op.kind, micro_batch, finishes)
        )
    loss_scale = 1.0 / num_micro_batches
    caches: dict[tuple[int, int, int], StageCache] = {}
    losses = [[0.0] * num_micro_batches for _ in engines]  # filled by the last stage
    activations: dict[tuple[int, int, int], np.ndarray] = {}
    gradients: dict[tuple[int, int, int], np.ndarray] = {}
    arrivals = _Arrivals()
    order = OpOrder()
    busy = {kind: [0.0] * num_stages for kind in OP_KINDS}
    wait = [0.0] * num_stages
    reduce_s = [0.0] * threads

    def run_ops(index: int, ops: list) -> None:
        last = perf_counter()

        def arrive(store: dict, key: tuple[int, int, int]):
            nonlocal last
            value, blocked = arrivals.take(store, key)
            if blocked:
                now = perf_counter()
                wait[key[1]] += now - last
                last = now
            return value

        block = [
            parameter
            for engine in engines
            for stage_index, stage in enumerate(engine.stages)
            if stage_index * threads // num_stages == index
            for parameter in stage.parameters()
        ]
        with gradient_epoch(block):
            for rank, replica, stage_index, kind, micro_batch, finishes in ops:
                order.at(rank)
                channel = engines[replica].channel
                stage = engines[replica].stages[stage_index]
                key = (replica, stage_index, micro_batch)
                if kind == "forward":
                    tokens, targets = micro_batches[replica][micro_batch]
                    activation = np.asarray(tokens) if stage.is_first else arrive(activations, key)
                    if stage.is_last:
                        loss, caches[key] = stage.forward(activation, targets=targets)
                        losses[replica][micro_batch] = float(loss)
                    else:
                        activation, caches[key] = stage.forward(activation)
                        sent = channel.send_forward(activation, stage_index, micro_batch)
                        arrivals.put(activations, (replica, stage_index + 1, micro_batch), sent)
                elif kind == "backward_weight":
                    stage.backward_weight(caches.pop(key))  # releases the activations
                else:  # "backward" (fused B + W) or "backward_input" (B)
                    backward = stage.backward if kind == "backward" else stage.backward_input
                    # The last stage seeds its backward from the loss (scaled there only).
                    upstream = None if stage.is_last else arrive(gradients, key)
                    grad = backward(upstream, caches[key], loss_scale=loss_scale)
                    if kind == "backward":
                        del caches[key]  # releases the activations
                    if stage_index > 0:
                        sent = channel.send_backward(
                            grad, stage_index - 1, micro_batch, num_micro_batches
                        )
                        arrivals.put(gradients, (replica, stage_index - 1, micro_batch), sent)
                now = perf_counter()
                busy[kind][stage_index] += now - last
                last = now
                if finishes:
                    settle_gradients(stage.parameters())
                    if folded is not None:
                        folded(replica, stage_index, order)
                        now = perf_counter()
                        reduce_s[index] += now - last
                        last = now
        if drained is not None:
            drained(index, order)
            reduce_s[index] += perf_counter() - last

    try:
        fork_join(run_ops, blocks, name="pipeline-walk", abort=arrivals.abort)
    finally:
        order.commit()
    return IterationResult(
        mean_loss=float(np.mean([np.mean(replica_losses) for replica_losses in losses])),
        num_micro_batches=num_micro_batches,
        threads=threads,
        op_busy_s=busy,
        stage_wait_s=wait,
        reduce_s=reduce_s,
    )


class PipelineParallelEngine:
    """Runs forward/backward over a list of :class:`GPTStage` objects.

    Parameters
    ----------
    stages:
        The pipeline stages in order (stage 0 first).
    channel:
        The inter-stage channel (owns the compression hooks and the traffic log).
    schedule_kind:
        Which op lists every iteration walks: the 1F1B lists for
        ``"1f1b"``/``"serial"`` (the two differ only in DP firing, which is not
        this engine's concern), the ZB-H1 split-backward lists for ``"zb1"``
        and the synthesized ones for ``"auto"`` (bit-for-bit identical weights
        whichever).  Read at every iteration, so it may be reassigned.
    memory_cap_factor:
        Activation-memory cap handed to the synthesizer when
        ``schedule_kind == "auto"`` (1.0 = ZB-H1's footprint; ignored otherwise).
    """

    def __init__(
        self,
        stages: Sequence[GPTStage],
        channel: InterStageChannel | None = None,
        schedule_kind: str = "1f1b",
        memory_cap_factor: float = 1.0,
    ) -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        if not stages[0].is_first or not stages[-1].is_last:
            raise ValueError("stages[0] must be the first stage and stages[-1] the last stage")
        validate_schedule_kind(schedule_kind, context="PipelineParallelEngine")
        validate_memory_cap_factor(memory_cap_factor)
        self.stages: list[GPTStage] = list(stages)
        self.channel = channel if channel is not None else InterStageChannel()
        self.schedule_kind = schedule_kind
        self.memory_cap_factor = memory_cap_factor

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def parameters(self):
        """All parameters of every stage (stable order: stage 0 first)."""
        params = []
        for stage in self.stages:
            params.extend(stage.parameters())
        return params

    def zero_grad(self) -> None:
        """Zero gradients on every stage."""
        for stage in self.stages:
            stage.zero_grad()

    # -- training -----------------------------------------------------------------

    def run_iteration(
        self,
        micro_batches: Sequence[tuple[np.ndarray, np.ndarray]],
        replica_runs: int = 1,
    ) -> IterationResult:
        """Run forward+backward for one mini-batch split into micro-batches.

        The one-replica case of :func:`walk_pipelines`, on :func:`walk_threads`
        threads: ``replica_runs`` is how many replica runs share the usable
        cores at once (:func:`~repro.parallel.engine.replica_runs_at_once`).
        """
        return walk_pipelines([self], [micro_batches], walk_threads(self.num_stages, replica_runs))

    # -- inference ------------------------------------------------------------------

    def evaluate_loss(self, token_ids: np.ndarray, targets: np.ndarray) -> float:
        """Compute the loss of a batch without touching gradients."""
        for stage in self.stages:
            stage.eval()
        activation: np.ndarray = np.asarray(token_ids)
        try:
            for stage in self.stages:
                if stage.is_last:
                    loss, _ = stage.forward(activation, targets=targets)
                    return float(loss)
                activation, _ = stage.forward(activation)
        finally:
            for stage in self.stages:
                stage.train()
        raise RuntimeError("pipeline had no last stage")  # pragma: no cover - guarded in __init__

    def forward_logits(self, token_ids: np.ndarray) -> np.ndarray:
        """Full inference pass returning logits (used by zero-shot evaluation)."""
        activation: np.ndarray = np.asarray(token_ids)
        for stage in self.stages:
            activation = stage.forward_only(activation)
        return activation

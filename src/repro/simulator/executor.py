"""Event-driven timing simulation of one 3D-parallel training iteration.

The simulator replays the pipeline schedule (plain 1F1B or Megatron's interleaved
1F1B with multiple model chunks per stage — the paper's configuration) across the
pipeline stages of one data-parallel replica.  Point-to-point transfers delay the
receiving stage; data-parallel all-reduces start as soon as a stage finishes its
last backward pass (the property selective stage compression exploits); the
embedding synchronisation runs after the first and last stages have finished their
embedding all-reduces (or as one fused all-reduce when fused embedding
synchronisation is enabled).

Compression changes two things: the bytes on the wire (smaller) and the kernel
overhead (compress + decompress time added to the transfer latency), exactly the
trade-off the paper's Fig. 13 (rank sweep) exposes.

One iteration is simulated in two parts, split where the dependencies split.
The **pipeline replay** (:func:`replay_pipeline`: op lists, epilogue sets, the
dependency-ordered walk, bubble accounting) depends on the job, the component
toggles and the PP-boundary codec only, and is memoised per process in one
bounded table — a plan sweep holds far fewer distinct replays than plans.  The **tail**
(:meth:`PipelineTimingSimulator.run`: DP all-reduce and its overlap window,
embedding synchronisation, steady-state period) is where the DP codec, its
knobs, the selected stage fraction and the embedding mode enter; it runs per
plan, on a private copy of the replay's numbers.  The DP and embedding knobs
are not in the replay's key because nothing in the pipeline phase reads them:
the DP all-reduce starts *after* a stage's last backward op and the embedding
synchronisation after that, so they move when an iteration ends, never when a
pipeline op runs.

What the tail reads per stage is itself shared between plans and computed once
per class, each behind one bounded table: per (job, toggles) the F/B/W op
times, compute totals and TP wire (:func:`_stage_compute`), per (job, DP spec)
the per-stage ``(time, overhead, wire)`` of the DP all-reduce
(:func:`_dp_terms`), per (job, toggles, PP codec, rank, fraction) one
inter-stage transfer (:func:`_transfer`).  Every one is a pure function of its key, and the tail
adds the terms up in the order the unshared code did, so no number moves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import NamedTuple

from repro.parallel.pipeline_schedule import (
    BACKWARD_SEND_KINDS,
    PipelineOp,
    bubble_fraction,
    replay_ops,
)
from repro.parallel.scheduler import schedule_ops
from repro.plan import SPLIT_BACKWARD_KINDS, Boundary, CompressionSpec, ParallelPlan
from repro.simulator.cost_model import CLASS_MEMO_SIZE, TrainingJob, job_cost_model

#: Modelled latency of respawning one worker after a crash or hang: fork the
#: replacement over the existing shared segment, verify it with a heartbeat,
#: and rewind the pre-iteration state.  The replay of the interrupted
#: iteration is costed separately (one extra iteration per respawn).
WORKER_RESPAWN_LATENCY_S = 2.0


@functools.lru_cache(maxsize=4)
def build_job_schedule(job: TrainingJob) -> tuple[tuple[PipelineOp, ...], ...]:
    """Per-stage op lists for a training job's ``schedule_kind``.

    The kind → op-list choice is :func:`~repro.parallel.scheduler.schedule_ops`,
    the one the functional engine walks too.  ``"auto"`` runs the synthesizer
    over the job's cost model (per-stage F/B/W times, transfer delay,
    activation/stash bytes, ``memory_cap_factor``) — the same op lists the
    timing replay and the memory model then consume, so the two layers can
    never disagree about what ``"auto"`` means for a given job.
    The lists of the last few jobs are kept (immutable, so shareable): the
    replay and the memory model of one plan, and of the plans that follow it on
    the same job, read one build.  A few, not many — a deep pipeline's lists
    run to thousands of ops.
    """
    schedule = schedule_ops(
        job.schedule_kind,
        job.num_stages,
        job.num_micro_batches,
        lambda: job_cost_model(job).auto_synthesis_spec(),
        job.num_model_chunks,
    )
    return tuple(tuple(ops) for ops in schedule)


@dataclass(frozen=True)
class ComponentToggles:
    """Multipliers used by the CPI-stack style breakdown (1.0 = enabled, 0.0 = off)."""

    forward: float = 1.0
    backward: float = 1.0
    interstage: float = 1.0
    data_parallel: float = 1.0
    embedding: float = 1.0


@dataclass
class IterationTiming:
    """Timing of one simulated iteration."""

    iteration_time: float
    stage_backward_finish: list[float]
    stage_finish: list[float]
    dp_times: list[float]
    embedding_time: float
    compression_overhead: float
    forward_compute: float
    backward_compute: float
    interstage_wire_bytes: float
    dp_wire_bytes: float
    embedding_wire_bytes: float
    tp_wire_bytes: float = 0.0
    #: Split of ``dp_wire_bytes`` by whether the stage's all-reduce fits inside the
    #: pipeline cool-down window (time between the stage's own backward finish and
    #: the moment the whole pipeline has drained).  Late stages finish backward
    #: early, so their DP traffic is overlapped; stage 0's is exposed.
    dp_exposed_wire_bytes: float = 0.0
    dp_overlapped_wire_bytes: float = 0.0
    #: Fraction of device-seconds idle inside the pipeline phase (t=0 until the
    #: last backward-side op drains) — the quantity the zero-bubble schedule
    #: attacks.  Reported per schedule kind so 1f1b and zb1 runs compare
    #: directly.
    bubble_fraction: float = 0.0
    #: Makespan of the pipeline phase (excludes the DP/embedding epilogue).
    pipeline_time: float = 0.0
    #: The schedule that produced this timing (``"1f1b"``, ``"zb1"``, or ``"auto"``).
    schedule_kind: str = "1f1b"
    #: Amortised resilience cost folded into ``iteration_time`` (guardrail
    #: validation, snapshot copies, retry backoff, recovery replay) — zero for
    #: unguarded runs.
    recovery_overhead: float = 0.0

    @property
    def dp_overlapped_fraction(self) -> float:
        """Fraction of DP wire bytes hidden inside the pipeline cool-down."""
        if self.dp_wire_bytes <= 0:
            return 0.0
        return self.dp_overlapped_wire_bytes / self.dp_wire_bytes

    def days_for(self, num_iterations: int) -> float:
        """Wall-clock days for ``num_iterations`` iterations at this rate."""
        return self.iteration_time * num_iterations / 86400.0

    def speedup_over(self, baseline: "IterationTiming") -> float:
        """Relative speedup versus a baseline timing (paper's convention: old/new - 1)."""
        return baseline.iteration_time / self.iteration_time - 1.0

    def wire_bytes_by_axis(self) -> dict[str, float]:
        """Per-axis wire bytes, matching the unified engine's traffic axes.

        Keys mirror :data:`repro.parallel.engine.TRAFFIC_AXES` (the simulator does
        not split the pipeline axis by direction: forward and backward transfers
        are both counted under ``"pipeline"``).
        """
        return {
            "pipeline": self.interstage_wire_bytes,
            "data_parallel": self.dp_wire_bytes,
            "embedding": self.embedding_wire_bytes,
            "tensor_parallel": self.tp_wire_bytes,
        }


#: Distinct pipeline replays one process remembers (:func:`replay_pipeline`).
#: An entry is a job reference and ``num_stages + 4`` floats, so the bound is
#: about memory hygiene in a long-lived service, not about megabytes; a plan
#: search walks its candidates replay class by replay class, so even a much
#: smaller table would hit.
REPLAY_MEMO_SIZE = 256


class StageCompute(NamedTuple):
    """Compute-side terms of one job under one set of toggles (:func:`_stage_compute`)."""

    #: Per-stage, per-chunk forward op time.
    forward: tuple[float, ...]
    #: Per-stage, per-chunk fused backward op time.
    backward: tuple[float, ...]
    #: Per-stage, per-chunk weight-gradient (W) op time.
    backward_weight: tuple[float, ...]
    #: Forward compute of one iteration, averaged over the stages.
    forward_total: float
    #: Backward compute of one iteration, averaged over the stages.
    backward_total: float
    #: Intra-node tensor-parallel wire bytes of one iteration, all stages.
    tp_wire: float


@functools.lru_cache(maxsize=CLASS_MEMO_SIZE)
def _stage_compute(job: TrainingJob, toggles: ComponentToggles) -> StageCompute:
    """Per-stage ``(forward, backward, backward_weight)`` op times and their totals.

    A stage's layers are split evenly across chunks.  Under a split schedule
    B + W equals the fused backward exactly: the B time is the difference.
    """
    cost = job_cost_model(job)
    num_stages = job.num_stages
    num_micro = job.num_micro_batches
    chunks = job.num_model_chunks if num_stages > 1 else 1
    stages = range(num_stages)
    forward = tuple(cost.forward_time(s) * toggles.forward / chunks for s in stages)
    backward = tuple(cost.backward_time(s) * toggles.backward / chunks for s in stages)
    backward_weight = tuple(
        cost.backward_weight_time(s) * toggles.backward / chunks for s in stages
    )
    return StageCompute(
        forward=forward,
        backward=backward,
        backward_weight=backward_weight,
        forward_total=sum(forward[s] * chunks * num_micro for s in stages) / num_stages,
        backward_total=sum(backward[s] * chunks * num_micro for s in stages) / num_stages,
        tp_wire=sum(cost.tensor_parallel_wire_bytes(s) for s in stages),
    )


@functools.lru_cache(maxsize=CLASS_MEMO_SIZE)
def _dp_terms(job: TrainingJob, dp: CompressionSpec) -> tuple[tuple[float, float, float], ...]:
    """Per-stage ``(time, overhead, wire)`` of the DP all-reduce under the spec ``dp``.

    Before the ``data_parallel`` toggle, which the tail applies: the stages the
    spec selects pay the codec's wire bytes and kernel overhead, the others the
    exact volume.
    """
    cost = job_cost_model(job)
    replicated = job.layout.data_parallel > 1
    compressed_stages = dp.compressed_stages(job.num_stages)
    terms = []
    for stage in range(job.num_stages):
        if stage in compressed_stages and replicated:
            wire = cost.dp_compressed_gradient_bytes(
                stage,
                dp.rank,
                codec=dp.codec,
                qsgd_bits=dp.bits,
                topk_fraction=dp.fraction,
            )
            overhead = cost.dp_compression_overhead(stage, dp.rank, codec=dp.codec)
            terms.append((cost.collective_time(wire), overhead, wire))
        else:
            wire = cost.dp_gradient_bytes(stage) if replicated else 0.0
            terms.append((cost.dp_time(stage), 0.0, wire))
    return tuple(terms)


@functools.lru_cache(maxsize=CLASS_MEMO_SIZE)
def _transfer(
    job: TrainingJob,
    toggles: ComponentToggles,
    codec: str | None = None,
    rank: int = 0,
    fraction: float = 0.0,
) -> tuple[float, float, float]:
    """``(delay_seconds, wire_bytes, compression_overhead)`` of one inter-stage transfer.

    ``codec`` is the PP codec of a compressed transfer (``"powersgd"`` at
    ``rank``, ``"topk"`` at ``fraction``), ``None`` for a plain one.
    """
    cost = job_cost_model(job)
    overhead = 0.0
    if codec is not None:
        wire = cost.compressed_activation_bytes(rank, codec, fraction)
        overhead = cost.activation_compression_overhead(rank, codec)
    else:
        wire = cost.interstage_message_bytes()
    delay = cost.p2p_time(wire) * toggles.interstage + overhead
    return delay, wire * toggles.interstage, overhead


def _epilogue_sets(
    schedule: tuple[tuple[PipelineOp, ...], ...]
) -> list[set[tuple[int, int]]]:
    """Per-stage set of (micro_batch, chunk) whose backward runs in the cool-down.

    The cool-down of a stage is everything after its last forward op: there is no
    forward computation left to hide the incoming activation-gradient transfer,
    so those transfers sit on the critical path — the paper's epilogue
    (Section 5.2, Fig. 6).  This definition applies uniformly to the plain and
    interleaved schedules.
    """
    epilogue: list[set[tuple[int, int]]] = []
    for ops in schedule:
        last_forward = max(
            (index for index, op in enumerate(ops) if op.kind == "forward"), default=-1
        )
        stage_set = {
            (op.micro_batch, op.chunk)
            for op in ops[last_forward + 1 :]
            if op.kind in BACKWARD_SEND_KINDS
        }
        epilogue.append(stage_set)
    return epilogue


class PipelineReplay(NamedTuple):
    """What the pipeline phase of one iteration produced (:func:`replay_pipeline`)."""

    #: When each stage's last backward-side op drained.
    stage_backward_finish: tuple[float, ...]
    #: Compress + decompress kernel time summed over the inter-stage transfers,
    #: in event order (the DP overheads are added on top, per plan).
    transfer_overhead: float
    #: Inter-stage wire bytes, both directions.
    interstage_wire: float
    #: t=0 until the last backward-side op drains anywhere.
    makespan: float
    #: Share of device-seconds idle inside the makespan.
    bubble_fraction: float


@functools.lru_cache(maxsize=REPLAY_MEMO_SIZE)
def replay_pipeline(
    job: TrainingJob,
    toggles: ComponentToggles,
    compress_backward: bool,
    backward_codec: str,
    backward_rank: int,
    backward_fraction: float,
    backward_epilogue_only: bool,
) -> PipelineReplay:
    """Replay the pipeline phase of one iteration: schedule, walk, bubble.

    The op lists go through :func:`~repro.parallel.pipeline_schedule.replay_ops`,
    the one walk the synthesizer's evaluator and the functional engine share;
    the PP-boundary codec enters only as its hand-off, which picks each
    transfer's plain, compressed or epilogue-only cost and tallies its wire
    bytes and kernel overhead in event order.

    This is the part of :meth:`PipelineTimingSimulator.run` that depends only
    on the job (model, layout, cluster, batch shape, schedule kind and cap),
    the component toggles and the inter-stage (PP-boundary) codec with its
    rank or fraction, which sizes each compressed transfer as the engine's
    codec sends it — **not** on
    the DP codec, its rank / bits / fraction, the selected stage fraction or
    the embedding mode, which only enter the per-plan tail that follows.  A
    plan sweep holds far fewer distinct replays than plans (200 of the
    flagship query's 2,800), so results are memoised here, in the one bounded
    table every caller of the simulator goes through: search workers, inline
    evaluation, the figure drivers' toggle breakdowns.  The arguments are
    frozen and hashable and the result is immutable, so a hit is
    indistinguishable from a recomputation.
    """
    schedule = build_job_schedule(job)
    epilogue_sets = _epilogue_sets(schedule)

    compute = _stage_compute(job, toggles)
    op_durations = {
        "forward": compute.forward,
        "backward": compute.backward,
        "backward_input": [
            full - weight for full, weight in zip(compute.backward, compute.backward_weight)
        ],
        "backward_weight": compute.backward_weight,
    }
    # Every transfer of the replay is one of these two.
    plain_transfer = _transfer(job, toggles)
    compressed_transfer = (
        _transfer(job, toggles, backward_codec, backward_rank, backward_fraction)
        if compress_backward
        else plain_transfer
    )
    compression_overhead_total = 0.0
    interstage_wire_total = 0.0

    def handoff(op: PipelineOp, consumer: tuple[int, int, int]) -> float:
        """Pick the transfer ``op`` sends to ``consumer`` and tally what it carries."""
        nonlocal compression_overhead_total, interstage_wire_total
        if op.kind != "forward" and compress_backward and (
            not backward_epilogue_only
            or (op.micro_batch, op.chunk) in epilogue_sets[consumer[0]]
            or consumer[1:] in epilogue_sets[consumer[0]]
        ):
            transfer = compressed_transfer
        else:
            transfer = plain_transfer
        delay, wire, overhead = transfer
        interstage_wire_total += wire
        compression_overhead_total += overhead
        return delay

    stage_backward_finish = [0.0] * job.num_stages
    for stage, op, _, end in replay_ops(schedule, op_durations, handoff):
        if op.kind != "forward":
            stage_backward_finish[stage] = end

    # The pipeline makespan runs from t=0 (stage 0's first forward) to the
    # last backward-side op draining anywhere; every second a device is not
    # computing inside that span is bubble.  This is the quantity the
    # zero-bubble schedule attacks: splitting the backward lets W passes
    # fill the cool-down, so zb1's fraction is strictly below 1F1B's for
    # pp >= 2 (asserted by the simulator tests).
    makespan = max(stage_backward_finish)
    return PipelineReplay(
        stage_backward_finish=tuple(stage_backward_finish),
        transfer_overhead=compression_overhead_total,
        interstage_wire=interstage_wire_total,
        makespan=makespan,
        bubble_fraction=bubble_fraction(schedule, op_durations, makespan),
    )


class PipelineTimingSimulator:
    """Replays the pipeline schedule with communication and compression costs.

    ``job`` owns the layout and the schedule shape; of ``plan`` only the three
    boundaries' compression specs are read (default: no compression).
    """

    def __init__(
        self,
        job: TrainingJob,
        plan: ParallelPlan | None = None,
        toggles: ComponentToggles | None = None,
    ) -> None:
        self.job = job
        self.cost = job_cost_model(job)
        self.plan = plan if plan is not None else ParallelPlan.baseline()
        self.toggles = toggles if toggles is not None else ComponentToggles()

    # -- helpers --------------------------------------------------------------------

    def with_toggles(self, **kwargs: float) -> "PipelineTimingSimulator":
        """Return a copy with some component toggles changed (for breakdowns)."""
        return PipelineTimingSimulator(self.job, self.plan, replace(self.toggles, **kwargs))

    # -- main simulation ---------------------------------------------------------------

    def run(self, resilience_overhead_s: float = 0.0, respawns: float = 0.0) -> IterationTiming:
        """Simulate one iteration and return its timing.

        ``resilience_overhead_s`` is an additive per-iteration cost for guarded
        runs (snapshot copies + gradient validation + amortised retry backoff,
        e.g. measured by the ``resilience_overhead`` benchmark section); it is
        folded into ``iteration_time`` and reported as ``recovery_overhead``.

        ``respawns`` is the *expected worker respawns per iteration* under the
        supervised process executor (e.g. MTBF-derived); each one costs a
        re-fork (:data:`WORKER_RESPAWN_LATENCY_S`) plus a full replay of the
        iteration it interrupted, and is amortised into the same overhead.
        """
        if resilience_overhead_s < 0:
            raise ValueError("resilience_overhead_s must be non-negative")
        if respawns < 0:
            raise ValueError("respawns must be non-negative")
        num_stages = self.job.num_stages
        pp = self.plan.spec(Boundary.PP)
        dp = self.plan.spec(Boundary.DP)
        compute = _stage_compute(self.job, self.toggles)
        replay = replay_pipeline(
            self.job,
            self.toggles,
            pp.compresses,
            pp.codec,
            pp.rank,
            pp.fraction,
            pp.epilogue_only,
        )
        # The replay is shared between plans: take a private copy of its list
        # and keep accumulating in the order the single-pass simulation did
        # (transfer overheads first, then each stage's DP overhead).
        stage_backward_finish = list(replay.stage_backward_finish)
        compression_overhead_total = replay.transfer_overhead

        # ---------------- data-parallel gradient all-reduce -----------------------
        # A stage's DP all-reduce starts when its own backward has drained —
        # or, under "serial", when the whole pipeline has.
        backward_end = max(stage_backward_finish) if stage_backward_finish else 0.0
        serial = self.job.schedule_kind == "serial"
        dp_start = [backward_end] * num_stages if serial else stage_backward_finish
        dp_times = []
        dp_wires = []
        dp_wire_total = 0.0
        stage_finish = []
        for stage, (dp_time, dp_overhead, dp_wire) in enumerate(_dp_terms(self.job, dp)):
            dp_time = dp_time * self.toggles.data_parallel
            dp_wire = dp_wire * self.toggles.data_parallel
            compression_overhead_total += dp_overhead
            dp_times.append(dp_time + dp_overhead)
            dp_wires.append(dp_wire)
            dp_wire_total += dp_wire
            stage_finish.append(dp_start[stage] + dp_time + dp_overhead)

        # The cool-down window of stage s: the time between its own backward finish
        # and the pipeline fully draining.  DP traffic fitting in that window is
        # overlapped (hidden); the remainder — all of stage 0's, since it drains
        # last — is exposed.  This is the schedule property selective stage
        # compression exploits by compressing the earliest stages.  With
        # micro-batch-granular firing (``job.dp_fire == "micro_batch"``) a
        # stage's buckets start leaving while its *own* final backward op is
        # still computing, so the window opens one backward-op duration earlier
        # (one W-pass duration under zb1, whose final op is a weight pass).
        # Under "serial" every window is empty: nothing is left to hide under.
        dp_exposed_wire = 0.0
        dp_overlapped_wire = 0.0
        for stage in range(num_stages):
            window = max(0.0, backward_end - dp_start[stage])
            if self.job.dp_fire == "micro_batch" and not serial:
                window += (
                    compute.backward_weight[stage]
                    if self.job.schedule_kind in SPLIT_BACKWARD_KINDS
                    else compute.backward[stage]
                )
            if dp_times[stage] > 0.0:
                hidden_fraction = min(1.0, window / dp_times[stage])
            else:
                hidden_fraction = 0.0
            dp_overlapped_wire += dp_wires[stage] * hidden_fraction
            dp_exposed_wire += dp_wires[stage] * (1.0 - hidden_fraction)

        # ---------------- embedding synchronisation -------------------------------
        # Baseline (Fig. 4a): each stage's NIC serialises DP all-reduce, then the
        # embedding DP all-reduce, then the 2-way synchronisation.  With fused
        # embedding synchronisation the single 2D-way all-reduce is issued as soon
        # as the embedding gradients are ready (right after the backward pass) and
        # runs alongside the stage's bulk DP all-reduce.
        embedding_time = 0.0
        embedding_wire = 0.0
        first, last = 0, num_stages - 1
        if num_stages == 1:
            # Single stage: the embedding gradient is just part of DP traffic.
            if self.job.layout.data_parallel > 1:
                extra = self.cost.embedding_dp_time() * self.toggles.embedding
                stage_finish[0] += extra
                embedding_time = extra
                embedding_wire = self.cost.embedding_gradient_bytes() * self.toggles.embedding
        elif self.plan.spec(Boundary.EMBEDDING).codec == "fused":
            # The fused all-reduce is issued as soon as both embedding gradients are
            # ready.  The last stage (whose backward drains early) runs its bulk DP
            # all-reduce inside that waiting window; the first stage performs the
            # fused collective first and its own DP afterwards (NIC serialisation).
            fused = self.cost.fused_embedding_time() * self.toggles.embedding
            fused_start = max(dp_start[first], dp_start[last])
            fused_end = fused_start + fused
            stage_finish[first] = fused_end + dp_times[first]
            stage_finish[last] = max(fused_end, dp_start[last] + dp_times[last])
            embedding_time = fused
            embedding_wire = self.cost.embedding_gradient_bytes() * self.toggles.embedding
        else:
            emb_dp = self.cost.embedding_dp_time() * self.toggles.embedding
            emb_sync = self.cost.embedding_sync_time() * self.toggles.embedding
            first_ready = stage_finish[first] + emb_dp
            last_ready = stage_finish[last] + emb_dp
            finish = max(first_ready, last_ready) + emb_sync
            stage_finish[first] = finish
            stage_finish[last] = finish
            embedding_time = emb_dp + emb_sync
            embedding_wire = 2.0 * self.cost.embedding_gradient_bytes() * self.toggles.embedding

        # ---------------- steady-state iteration period -----------------------------
        # The next iteration's forward pass starts as soon as stage 0 is done; stage
        # s only needs its updated weights when its first forward arrives, i.e.
        # after s (forward + transfer) hops.  In the pipelined steady state the
        # iteration period is therefore the largest finish time minus that slack —
        # this is why the data-parallel traffic of *later* stages can stay
        # uncompressed under selective stage compression (Section 7, Fig. 8).
        forward_delay, _, _ = _transfer(self.job, self.toggles)
        warmup_offset = [0.0] * num_stages
        for stage in range(1, num_stages):
            warmup_offset[stage] = (
                warmup_offset[stage - 1] + compute.forward[stage - 1] + forward_delay
            )

        iteration_time = max(
            stage_finish[stage] - warmup_offset[stage] for stage in range(num_stages)
        )
        iteration_time = max(iteration_time, max(stage_backward_finish))

        # A respawn re-forks the worker and replays the interrupted iteration
        # from the pre-step snapshot, so each one costs the fork latency plus
        # one extra (undisturbed) iteration.
        recovery_overhead = resilience_overhead_s + respawns * (
            WORKER_RESPAWN_LATENCY_S + iteration_time
        )
        return IterationTiming(
            iteration_time=iteration_time + recovery_overhead,
            stage_backward_finish=stage_backward_finish,
            stage_finish=stage_finish,
            dp_times=dp_times,
            embedding_time=embedding_time,
            compression_overhead=compression_overhead_total,
            forward_compute=compute.forward_total,
            backward_compute=compute.backward_total,
            interstage_wire_bytes=replay.interstage_wire,
            dp_wire_bytes=dp_wire_total,
            embedding_wire_bytes=embedding_wire,
            tp_wire_bytes=compute.tp_wire,
            dp_exposed_wire_bytes=dp_exposed_wire,
            dp_overlapped_wire_bytes=dp_overlapped_wire,
            bubble_fraction=replay.bubble_fraction,
            pipeline_time=replay.makespan,
            schedule_kind=self.job.schedule_kind,
            recovery_overhead=recovery_overhead,
        )


def simulate_plan(
    job: TrainingJob,
    plan: ParallelPlan,
    resilience_overhead_s: float = 0.0,
    respawns: float = 0.0,
) -> IterationTiming:
    """Convenience wrapper: simulate one iteration of ``job`` under ``plan``."""
    return PipelineTimingSimulator(job, plan).run(
        resilience_overhead_s=resilience_overhead_s, respawns=respawns
    )

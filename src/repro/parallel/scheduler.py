"""Automatic pipeline-schedule synthesis under an activation-memory cap.

:func:`~repro.parallel.pipeline_schedule.build_zb1_schedule` ships one
handcrafted ZB-H1 op order.  This module treats the schedule as *data produced
by a search* instead: given per-stage op times (F, B, W), the inter-stage
transfer delay, and a per-stage memory budget, :func:`synthesize_schedule` runs
a greedy list-scheduling pass that

* admits extra in-flight forwards only while the stage stays under its memory
  budget — more budget lets warm-up forwards fill what would otherwise be
  bubble, which is the ZB-2p direction (near-zero bubble at ~2x activation
  memory);
* slots each stage's deferred W passes into gaps where neither a forward nor a
  B pass can start, and forces them early when the accumulated W stash would
  otherwise push the stage over its budget;
* keeps every per-stage op sequence in ascending micro-batch order per kind,
  so the functional engine's replay accumulates weight gradients in exactly
  the 1F1B order — weights stay bit-for-bit identical (the parity tests
  assert it).

The searched cap is quantised to :data:`CAP_LADDER`, and the candidate set at
cap ``c`` is the handcrafted ZB-H1 list plus one greedy run per ladder point
``<= c``; the candidate with the smallest :func:`evaluate_schedule` makespan
wins.  Two properties follow by construction:

* at ``memory_cap_factor == 1.0`` the result is never *worse* than ZB-H1
  (ZB-H1 is itself a candidate, and its peak memory fits the 1x budget), so
  ``auto`` degenerates to the handcrafted schedule's bubble;
* the candidate set only grows with the cap, so the makespan — and therefore
  the bubble fraction — is monotone non-increasing in ``memory_cap_factor``
  (the hypothesis tests fuzz exactly this).

Memory accounting matches :mod:`repro.simulator.memory_model`: a forward holds
one full activation set until the matching B pass releases it; between B and W
only the smaller W stash (Linear inputs and output gradients) stays alive.
The per-stage budget at cap factor ``c`` is::

    c * activation_bytes * count_in_flight_micro_batches(stage)   # 1F1B peak
      + stash_bytes * (zb1_deferred_weight_passes(stage) + 1)     # ZB-H1 stash

so factor 1.0 grants exactly what ZB-H1 needs and factor 2.0 doubles the
activation share (the paper-family ZB-2p budget).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.parallel.pipeline_schedule import (
    OP_KINDS,
    PipelineOp,
    bubble_fraction,
    build_1f1b_schedule,
    build_interleaved_1f1b_schedule,
    build_zb1_schedule,
    count_in_flight_micro_batches,
    replay_ops,
    zb1_deferred_weight_passes,
)
from repro.plan import validate_memory_cap_factor, validate_schedule_kind

#: Quantised cap factors the synthesizer searches.  A requested
#: ``memory_cap_factor`` admits every ladder point at or below it (caps beyond
#: the ladder top behave like the top).  Quantising keeps the candidate set of
#: a larger cap a strict superset of a smaller cap's — the monotonicity
#: guarantee — at the price of ignoring budget slack between ladder points.
CAP_LADDER = (1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0)

#: Floating-point slack for the budget admission checks.
_EPS = 1e-9


@dataclass(frozen=True)
class StageCosts:
    """Per-micro-batch op times of one stage (seconds, or any consistent unit)."""

    forward: float
    backward_input: float
    backward_weight: float

    def __post_init__(self) -> None:
        for name in ("forward", "backward_input", "backward_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} time must be non-negative")


@dataclass(frozen=True)
class SynthesisSpec:
    """Everything the synthesizer needs to know about one pipeline.

    ``activation_bytes``/``stash_bytes`` are per stage per micro-batch; they
    default to 1.0 each (pure-count accounting, as the functional engine uses —
    the budget then caps *counts* of in-flight activations and W stashes).
    ``transfer_delay`` is the inter-stage point-to-point time added to every
    forward/backward hand-off.
    """

    num_stages: int
    num_micro_batches: int
    costs: tuple[StageCosts, ...]
    transfer_delay: float = 0.0
    memory_cap_factor: float = 1.0
    activation_bytes: tuple[float, ...] | None = None
    stash_bytes: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.num_stages <= 0:
            raise ValueError(f"num_stages must be positive, got {self.num_stages}")
        if self.num_micro_batches <= 0:
            raise ValueError(
                f"num_micro_batches must be positive, got {self.num_micro_batches}"
            )
        if len(self.costs) != self.num_stages:
            raise ValueError(
                f"costs must have one entry per stage ({self.num_stages}), "
                f"got {len(self.costs)}"
            )
        if self.transfer_delay < 0:
            raise ValueError("transfer_delay must be non-negative")
        validate_memory_cap_factor(self.memory_cap_factor)
        for name in ("activation_bytes", "stash_bytes"):
            values = getattr(self, name)
            if values is not None:
                if len(values) != self.num_stages:
                    raise ValueError(f"{name} must have one entry per stage")
                if any(value <= 0 for value in values):
                    raise ValueError(f"{name} entries must be positive")

    def activation(self, stage: int) -> float:
        return 1.0 if self.activation_bytes is None else self.activation_bytes[stage]

    def stash(self, stage: int) -> float:
        return self.activation(stage) if self.stash_bytes is None else self.stash_bytes[stage]


@dataclass(frozen=True)
class SynthesizedSchedule:
    """A synthesized schedule plus the evidence it was worth choosing."""

    #: Per-stage op lists (the same shape every other schedule builder emits).
    ops: tuple[tuple[PipelineOp, ...], ...]
    #: Pipeline makespan under the spec's costs (t=0 to the last backward-side op).
    makespan: float
    #: ``1 - total_compute / (num_stages * makespan)`` — the simulator's definition.
    bubble_fraction: float
    #: Per-stage peak memory of the chosen op lists (spec byte units).
    peak_memory: tuple[float, ...]
    #: Per-stage budgets at the requested cap factor.
    memory_budget: tuple[float, ...]
    #: Which candidate won: ``"zb1"`` or ``"greedy@<factor>"``.
    source: str = field(default="zb1")

    def stage_ops(self) -> list[list[PipelineOp]]:
        """The op lists as the mutable ``list[list[PipelineOp]]`` consumers expect."""
        return [list(ops) for ops in self.ops]


def stage_memory_budget(spec: SynthesisSpec, stage: int, factor: float | None = None) -> float:
    """Memory budget of ``stage`` at cap ``factor`` (default: the spec's).

    ``factor`` scales the 1F1B in-flight-activation peak; the ZB-H1 W-stash
    allowance rides on top unscaled, so factor 1.0 grants exactly what the
    handcrafted zb1 schedule uses.  The result is clamped so at least one
    in-flight activation plus one stash always fits (the minimum any schedule
    needs to make progress).
    """
    if factor is None:
        factor = spec.memory_cap_factor
    activation = spec.activation(stage)
    stash = spec.stash(stage)
    in_flight = count_in_flight_micro_batches(stage, spec.num_stages, spec.num_micro_batches)
    deferred = zb1_deferred_weight_passes(stage, spec.num_stages, spec.num_micro_batches)
    budget = factor * activation * in_flight + stash * (deferred + 1)
    return max(budget, activation + stash)


def stage_memory_profile(ops: list[PipelineOp] | tuple[PipelineOp, ...]) -> tuple[int, int]:
    """``(peak in-flight forward activations, peak pending W stashes)`` of one stage.

    Counting convention (shared with the greedy's admission checks): a forward
    activation is held from its F op until the matching B completes; a W stash
    exists from B completion until the matching W completes.  Fused
    ``"backward"`` ops release the activation without creating a stash.
    """
    in_flight = pending = 0
    peak_in_flight = peak_pending = 0
    for op in ops:
        if op.kind == "forward":
            in_flight += 1
            peak_in_flight = max(peak_in_flight, in_flight)
        elif op.kind == "backward":
            in_flight -= 1
        elif op.kind == "backward_input":
            in_flight -= 1
            pending += 1
            peak_pending = max(peak_pending, pending)
        else:  # backward_weight
            pending -= 1
    return peak_in_flight, peak_pending


def peak_stage_memory(
    ops: list[PipelineOp] | tuple[PipelineOp, ...], activation: float, stash: float
) -> float:
    """Peak of ``in_flight * activation + pending * stash`` over one stage's op list."""
    in_flight = pending = 0
    peak = 0.0
    for op in ops:
        if op.kind == "forward":
            in_flight += 1
        elif op.kind == "backward":
            in_flight -= 1
        elif op.kind == "backward_input":
            in_flight -= 1
            pending += 1
        else:
            pending -= 1
        peak = max(peak, in_flight * activation + pending * stash)
    return peak


def validate_schedule_ops(
    schedule: list[list[PipelineOp]] | tuple[tuple[PipelineOp, ...], ...],
    num_stages: int,
    num_micro_batches: int,
) -> None:
    """Raise unless ``schedule`` is a valid op list for ``num_stages`` x ``num_micro_batches``.

    The backward is either fused (``"backward"``) or split into B
    (``"backward_input"``) and W (``"backward_weight"``), one style for the
    whole schedule; chunks run ``0..C-1`` on every stage.  Per (stage, chunk),
    each kind covers every micro-batch exactly once in ascending order (the
    weight-parity requirement) and F precedes B precedes W for every
    micro-batch (``ValueError`` otherwise).  Then the lists go through
    :func:`~repro.parallel.pipeline_schedule.replay_ops`, which raises
    ``RuntimeError`` on a cyclic cross-stage dependency the per-stage checks
    cannot see.
    """
    if len(schedule) != num_stages:
        raise ValueError(f"schedule must have {num_stages} stage lists, got {len(schedule)}")
    num_chunks = 1 + max((op.chunk for ops in schedule for op in ops), default=0)
    if any(op.kind == "backward_input" for ops in schedule for op in ops):
        style, kinds = "split-backward", ("forward", "backward_input", "backward_weight")
    else:
        style, kinds = "fused-backward", ("forward", "backward")
    expected = list(range(num_micro_batches))
    for stage, ops in enumerate(schedule):
        seen: dict[tuple[str, int], list[int]] = {
            (kind, chunk): [] for kind in kinds for chunk in range(num_chunks)
        }
        position: dict[tuple[str, int, int], int] = {}
        for index, op in enumerate(ops):
            if (op.kind, op.chunk) not in seen:
                raise ValueError(f"stage {stage}: {op} is not part of a {style} schedule")
            seen[(op.kind, op.chunk)].append(op.micro_batch)
            position[(op.kind, op.micro_batch, op.chunk)] = index
        for (kind, chunk), micro_batches in seen.items():
            if micro_batches != expected:
                raise ValueError(
                    f"stage {stage}, chunk {chunk}: {kind} ops must cover every micro-batch "
                    f"exactly once in ascending order, got {micro_batches}"
                )
        for chunk in range(num_chunks):
            for mb in expected:
                order = [position[(kind, mb, chunk)] for kind in kinds]
                if order != sorted(order):
                    raise ValueError(
                        f"stage {stage}, chunk {chunk}, micro-batch {mb}: ops must run "
                        f"{' -> '.join(kinds)} (positions {order})"
                    )
    untimed = dict.fromkeys(OP_KINDS, (0.0,) * num_stages)
    for _ in replay_ops(schedule, untimed, lambda op, consumer: 0.0):
        pass


def evaluate_schedule(
    schedule: list[list[PipelineOp]] | tuple[tuple[PipelineOp, ...], ...],
    spec: SynthesisSpec,
) -> tuple[float, float]:
    """Replay ``schedule`` under ``spec``'s costs; return ``(makespan, bubble)``.

    A fold over :func:`~repro.parallel.pipeline_schedule.replay_ops`, the one
    walk the timing simulator and the functional engine also go through: op
    times come from ``spec.costs`` (a fused ``"backward"`` costs B + W), every
    hand-off costs ``spec.transfer_delay``, and the makespan runs from t=0 to
    the last backward-side op.  Raises ``RuntimeError`` on deadlock.
    """
    durations = {
        "forward": [cost.forward for cost in spec.costs],
        "backward": [cost.backward_input + cost.backward_weight for cost in spec.costs],
        "backward_input": [cost.backward_input for cost in spec.costs],
        "backward_weight": [cost.backward_weight for cost in spec.costs],
    }
    delay = spec.transfer_delay
    backward_finish = [0.0] * spec.num_stages
    for stage, op, _, end in replay_ops(schedule, durations, lambda op, consumer: delay):
        if op.kind != "forward":
            backward_finish[stage] = end
    makespan = max(backward_finish)
    return makespan, bubble_fraction(schedule, durations, makespan)


def _greedy(spec: SynthesisSpec, budgets: list[float]) -> list[list[PipelineOp]]:
    """One greedy list-scheduling pass under per-stage budgets.

    Event-driven over all stages at once.  Each stage exposes at most three
    candidate next ops (its next F, B, and W in ascending micro-batch order);
    the globally earliest-starting admissible op runs, with ties broken B > F >
    W (B is on the inter-stage critical path, W is pure filler).  F is
    admissible only while the stage stays under budget; B is admissible only if
    the stash it creates still fits (otherwise the pending W drains first).
    """
    p, m = spec.num_stages, spec.num_micro_batches
    delay = spec.transfer_delay
    device_free = [0.0] * p
    next_f = [0] * p
    next_b = [0] * p
    next_w = [0] * p
    in_flight = [0] * p
    pending_w = [0] * p
    ops: list[list[PipelineOp]] = [[] for _ in range(p)]
    forward_arrival = {(0, mb): 0.0 for mb in range(m)}
    backward_arrival = {(p - 1, mb): 0.0 for mb in range(m)}
    remaining = 3 * m * p
    while remaining > 0:
        # (start_time, priority, stage, kind) — min() picks the earliest start,
        # then B over F over W, then the earliest stage (deterministic).
        best: tuple[float, int, int, str] | None = None
        for stage in range(p):
            activation = spec.activation(stage)
            stash = spec.stash(stage)
            budget = budgets[stage]
            if next_w[stage] < next_b[stage]:
                candidate = (device_free[stage], 2, stage, "backward_weight")
                if best is None or candidate < best:
                    best = candidate
            if next_b[stage] < next_f[stage]:
                key = (stage, next_b[stage])
                arrival = backward_arrival.get(key)
                fits = (
                    (in_flight[stage] - 1) * activation + (pending_w[stage] + 1) * stash
                    <= budget + _EPS
                )
                if arrival is not None and fits:
                    candidate = (max(device_free[stage], arrival), 0, stage, "backward_input")
                    if best is None or candidate < best:
                        best = candidate
            if next_f[stage] < m:
                key = (stage, next_f[stage])
                arrival = forward_arrival.get(key)
                fits = (
                    (in_flight[stage] + 1) * activation + pending_w[stage] * stash
                    <= budget + _EPS
                )
                if arrival is not None and fits:
                    candidate = (max(device_free[stage], arrival), 1, stage, "forward")
                    if best is None or candidate < best:
                        best = candidate
        if best is None:  # pragma: no cover - budgets are clamped to make progress possible
            raise RuntimeError("schedule synthesis deadlocked (budget too small to progress)")
        start, _, stage, kind = best
        if kind == "forward":
            mb = next_f[stage]
            end = start + spec.costs[stage].forward
            in_flight[stage] += 1
            next_f[stage] += 1
            if stage < p - 1:
                forward_arrival[(stage + 1, mb)] = end + delay
        elif kind == "backward_input":
            mb = next_b[stage]
            end = start + spec.costs[stage].backward_input
            in_flight[stage] -= 1
            pending_w[stage] += 1
            next_b[stage] += 1
            if stage > 0:
                backward_arrival[(stage - 1, mb)] = end + delay
        else:
            mb = next_w[stage]
            end = start + spec.costs[stage].backward_weight
            pending_w[stage] -= 1
            next_w[stage] += 1
        device_free[stage] = end
        ops[stage].append(PipelineOp(kind, mb))
        remaining -= 1
    return ops


def synthesize_schedule(spec: SynthesisSpec) -> SynthesizedSchedule:
    """Search for the best dependency-valid schedule under ``spec``'s memory cap.

    Candidates: the handcrafted ZB-H1 op lists plus one greedy run per
    :data:`CAP_LADDER` point at or below ``spec.memory_cap_factor``; the
    smallest-makespan candidate wins (ZB-H1 wins ties, so at cap 1.0 the
    result *is* the handcrafted schedule unless the greedy strictly beats it).
    """
    budgets = [stage_memory_budget(spec, stage) for stage in range(spec.num_stages)]
    candidates: list[tuple[str, list[list[PipelineOp]]]] = [
        ("zb1", build_zb1_schedule(spec.num_stages, spec.num_micro_batches))
    ]
    ladder = [factor for factor in CAP_LADDER if factor <= spec.memory_cap_factor + _EPS]
    if not ladder:  # pragma: no cover - memory_cap_factor >= 1.0 is validated
        ladder = [CAP_LADDER[0]]
    for factor in ladder:
        factor_budgets = [
            stage_memory_budget(spec, stage, factor) for stage in range(spec.num_stages)
        ]
        candidates.append((f"greedy@{factor:g}", _greedy(spec, factor_budgets)))

    best: tuple[float, float, str, list[list[PipelineOp]]] | None = None
    for source, schedule in candidates:
        peaks = [
            peak_stage_memory(schedule[stage], spec.activation(stage), spec.stash(stage))
            for stage in range(spec.num_stages)
        ]
        if any(peak > budget + _EPS for peak, budget in zip(peaks, budgets)):
            continue  # pragma: no cover - every candidate fits its own (smaller) budget
        makespan, bubble = evaluate_schedule(schedule, spec)
        if best is None or makespan < best[0] - _EPS:
            best = (makespan, bubble, source, schedule)
    assert best is not None  # zb1 always fits the (>= 1.0x) budget
    makespan, bubble, source, schedule = best
    return SynthesizedSchedule(
        ops=tuple(tuple(ops) for ops in schedule),
        makespan=makespan,
        bubble_fraction=bubble,
        peak_memory=tuple(
            peak_stage_memory(schedule[stage], spec.activation(stage), spec.stash(stage))
            for stage in range(spec.num_stages)
        ),
        memory_budget=tuple(budgets),
        source=source,
    )


def schedule_ops(
    kind: str,
    num_stages: int,
    num_micro_batches: int,
    auto_spec: Callable[[], SynthesisSpec],
    num_model_chunks: int = 1,
) -> Sequence[Sequence[PipelineOp]]:
    """Per-stage op lists of schedule ``kind`` — the one kind → op-list choice.

    ``"1f1b"`` and ``"serial"`` get the 1F1B lists (they differ only in where
    the DP all-reduce starts), interleaved when ``num_model_chunks > 1`` at
    ``num_stages > 1``; ``"zb1"`` gets the handcrafted ZB-H1 lists; ``"auto"``
    gets the synthesizer's answer to ``auto_spec()``.  The spec is the
    caller's cost model — the timing simulator passes its job's, the
    functional engine unit costs — and is built only for ``"auto"``.
    """
    validate_schedule_kind(kind, context="schedule_ops")
    if kind == "auto":
        return synthesize_schedule(auto_spec()).ops
    if kind == "zb1":
        return build_zb1_schedule(num_stages, num_micro_batches)
    if num_stages > 1 and num_model_chunks > 1:
        return build_interleaved_1f1b_schedule(num_stages, num_micro_batches, num_model_chunks)
    return build_1f1b_schedule(num_stages, num_micro_batches)

"""Pipeline-parallel schedules: GPipe, 1F1B, interleaved 1F1B, and ZB-H1.

A schedule is, per pipeline stage, an ordered list of :class:`PipelineOp` values.
Two kinds of consumer use them:

* :func:`replay_ops` walks finished lists in dependency order — the one
  pipeline replay under the synthesizer's evaluator, the timing simulator
  (compute and communication costs attached) and the functional engine's
  executor (every schedule kind, times ignored);
* the epilogue analysis (:func:`epilogue_micro_batches`) derives *which* backward
  communications sit on the critical path — the set the paper's epilogue-only
  compression targets (Section 5.2).

The 1F1B schedule follows Megatron-LM / PipeDream-Flush: stage ``k`` (0-indexed, of
``p`` stages) performs ``p-1-k`` warm-up forwards, then alternates one forward and
one backward, and finally drains ``p-1-k`` cool-down backwards.

The zero-bubble schedule (:func:`build_zb1_schedule`, ``Schedule.kind = "zb1"``)
follows the handcrafted ZB-H1 of the zero-bubble pipeline-parallelism work
(Qi et al.): each full backward pass is split into an activation-gradient pass B
(``"backward_input"``, on the inter-stage critical path) and a weight-gradient
pass W (``"backward_weight"``, purely local).  Stage ``k`` defers exactly ``k``
W passes, so B passes cascade upstream every ``T_B`` instead of every
``T_B + T_W`` and the deferred W passes fill what would otherwise be the
cool-down bubble — shrinking the per-stage bubble from ``(p-1)(T_F + T_B + T_W)``
to ``(p-1)(T_F + T_B - T_W)`` at the same peak in-flight activation count as
1F1B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

#: Op kinds a schedule may emit.  ``"backward"`` is the fused full backward
#: (input + weight gradients in one op); the zero-bubble schedules split it into
#: ``"backward_input"`` (B) and ``"backward_weight"`` (W).
OP_KINDS = ("forward", "backward", "backward_input", "backward_weight")

#: Kinds that carry the activation gradient upstream (trigger a backward send).
BACKWARD_SEND_KINDS = ("backward", "backward_input")


@dataclass(frozen=True)
class PipelineOp:
    """One unit of pipeline work on a stage.

    Attributes
    ----------
    kind:
        ``"forward"``, ``"backward"`` (fused full backward), ``"backward_input"``
        (B: activation gradient only), or ``"backward_weight"`` (W: deferred
        weight gradient).
    micro_batch:
        Zero-based micro-batch index.
    chunk:
        Model-chunk index (always 0 except for interleaved schedules).
    """

    kind: str
    micro_batch: int
    chunk: int = 0

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(f"op kind must be one of {OP_KINDS}, got {self.kind!r}")
        if self.micro_batch < 0:
            raise ValueError(f"micro_batch must be non-negative, got {self.micro_batch}")


def replay_ops(
    schedule: Sequence[Sequence[PipelineOp]],
    durations: Mapping[str, Sequence[float]],
    handoff: Callable[[PipelineOp, tuple[int, int, int]], float],
) -> Iterator[tuple[int, PipelineOp, float, float]]:
    """Walk finished per-stage op lists in dependency order; yield ``(stage, op, start, end)``.

    Each stage runs its list in order.  An op starts when its device is free
    *and* its input has arrived: a forward activation from upstream, an
    activation gradient from downstream, or — for a W pass — nothing beyond
    list order.  Stage 0's first-chunk forwards read their input locally and
    the last stage's last-chunk backwards are seeded by the loss, both at t=0.
    Arrivals are keyed ``(stage, micro_batch, chunk)``: under an interleaved
    list a forward leaving the last stage feeds stage 0's next chunk and a
    backward leaving stage 0 feeds the last stage's previous chunk.  The chunk
    count is read off the lists.

    ``durations[kind][stage]`` is an op's compute time.  ``handoff(op,
    consumer)`` is the delay of the transfer ``op`` sends to the arrival key
    ``consumer``; it is called once per transfer, in event order.

    The stages are swept in order, each running every op that is ready, so the
    visit order depends only on which producers have run, never on the times.
    Raises ``RuntimeError`` when a sweep makes no progress (a cyclic
    cross-stage dependency).
    """
    last_stage = len(schedule) - 1
    last_chunk = max((op.chunk for ops in schedule for op in ops), default=0)
    device_free = [0.0] * len(schedule)
    pointers = [0] * len(schedule)
    forward_arrival: dict[tuple[int, int, int], float] = {}
    backward_arrival: dict[tuple[int, int, int], float] = {}
    remaining = sum(len(ops) for ops in schedule)
    while remaining > 0:
        progressed = False
        for stage, ops in enumerate(schedule):
            while pointers[stage] < len(ops):
                op = ops[pointers[stage]]
                kind, micro, chunk = op.kind, op.micro_batch, op.chunk
                if kind == "backward_weight":
                    ready = 0.0  # purely local: list order already put its B pass first
                elif kind == "forward":
                    if stage == 0 and chunk == 0:
                        ready = 0.0
                    else:
                        ready = forward_arrival.get((stage, micro, chunk))
                elif stage == last_stage and chunk == last_chunk:
                    ready = 0.0
                else:
                    ready = backward_arrival.get((stage, micro, chunk))
                if ready is None:
                    break
                start = max(device_free[stage], ready)
                end = start + durations[kind][stage]
                device_free[stage] = end
                pointers[stage] += 1
                remaining -= 1
                progressed = True
                if kind == "forward":
                    if stage < last_stage:
                        consumer = (stage + 1, micro, chunk)
                    elif chunk < last_chunk:
                        consumer = (0, micro, chunk + 1)
                    else:
                        consumer = None
                    if consumer is not None:
                        forward_arrival[consumer] = end + handoff(op, consumer)
                elif kind in BACKWARD_SEND_KINDS:
                    if stage > 0:
                        consumer = (stage - 1, micro, chunk)
                    elif chunk > 0:
                        consumer = (last_stage, micro, chunk - 1)
                    else:
                        consumer = None
                    if consumer is not None:
                        backward_arrival[consumer] = end + handoff(op, consumer)
                yield stage, op, start, end
        if not progressed:
            raise RuntimeError("pipeline schedule deadlocked (cyclic cross-stage dependency)")


def bubble_fraction(
    schedule: Sequence[Sequence[PipelineOp]],
    durations: Mapping[str, Sequence[float]],
    makespan: float,
) -> float:
    """Share of device-seconds idle inside ``makespan`` (t=0 to the last backward-side op).

    The compute is summed in stage-major list order, not event order: the
    order fixes the last bit of the result.
    """
    if makespan <= 0.0:
        return 0.0
    total_compute = sum(
        durations[op.kind][stage] for stage, ops in enumerate(schedule) for op in ops
    )
    return 1.0 - total_compute / (len(schedule) * makespan)


def _validate(num_stages: int, num_micro_batches: int) -> None:
    if num_stages <= 0:
        raise ValueError(f"num_stages must be positive, got {num_stages}")
    if num_micro_batches <= 0:
        raise ValueError(f"num_micro_batches must be positive, got {num_micro_batches}")


def build_gpipe_schedule(num_stages: int, num_micro_batches: int) -> list[list[PipelineOp]]:
    """GPipe: all forwards, then all backwards, per stage."""
    _validate(num_stages, num_micro_batches)
    schedule = []
    for _stage in range(num_stages):
        ops = [PipelineOp("forward", mb) for mb in range(num_micro_batches)]
        ops.extend(PipelineOp("backward", mb) for mb in range(num_micro_batches))
        schedule.append(ops)
    return schedule


def build_1f1b_schedule(num_stages: int, num_micro_batches: int) -> list[list[PipelineOp]]:
    """Non-interleaved 1F1B (PipeDream-Flush), the paper's baseline schedule."""
    _validate(num_stages, num_micro_batches)
    schedule = []
    for stage in range(num_stages):
        num_warmup = min(num_stages - 1 - stage, num_micro_batches)
        ops: list[PipelineOp] = []
        forward_mb = 0
        backward_mb = 0
        for _ in range(num_warmup):
            ops.append(PipelineOp("forward", forward_mb))
            forward_mb += 1
        while forward_mb < num_micro_batches:
            ops.append(PipelineOp("forward", forward_mb))
            forward_mb += 1
            ops.append(PipelineOp("backward", backward_mb))
            backward_mb += 1
        while backward_mb < num_micro_batches:
            ops.append(PipelineOp("backward", backward_mb))
            backward_mb += 1
        schedule.append(ops)
    return schedule


def zb1_deferred_weight_passes(stage: int, num_stages: int, num_micro_batches: int) -> int:
    """How many weight-gradient (W) passes stage ``stage`` keeps pending under ZB-H1.

    Stage ``k`` defers exactly ``k`` W passes (capped by the micro-batch count):
    the last stage defers the most — its B passes then cascade upstream back to
    back — and stage 0, which drains last, defers none.  The deferred W passes
    are exactly what fills each stage's cool-down gaps.
    """
    if not 0 <= stage < num_stages:
        raise ValueError(f"stage {stage} out of range [0, {num_stages})")
    return min(stage, num_micro_batches)


def build_zb1_schedule(num_stages: int, num_micro_batches: int) -> list[list[PipelineOp]]:
    """Zero-bubble ZB-H1: 1F1B with the backward split into B and W passes.

    Per stage ``k`` the op order is: ``p-1-k`` warm-up forwards (as in 1F1B),
    then the 1F1B steady state with the full backward replaced by a B pass and
    the matching W pass emitted once more than ``k`` W passes are pending, then
    the cool-down B passes interleaved with the deferred W passes, and finally
    the remaining W drain.  Properties (asserted by the tests):

    * every micro-batch gets exactly one F, one B, and one W, with B after its F
      and W after its B — so gradient *accumulation order per parameter* is the
      ascending micro-batch order, identical to 1F1B (bit-for-bit weights);
    * the peak number of in-flight *forward-activation* caches equals 1F1B's
      (:func:`count_in_flight_micro_batches`) — ZB-H1's memory claim.  The B
      pass releases every forward activation (the nn layers' ``backward_input``
      clears them); between B and W only the small W stash (Linear inputs and
      output gradients, LayerNorm parameter-gradient vectors) stays alive, and
      stage ``k`` holds at most ``k + 1`` such stashes;
    * with ``num_stages == 1`` the schedule degenerates to the serial
      ``F, B, W`` loop (the split 1F1B), and ``num_micro_batches < num_stages``
      just shortens warm-up/steady phases.
    """
    _validate(num_stages, num_micro_batches)
    schedule = []
    for stage in range(num_stages):
        num_warmup = min(num_stages - 1 - stage, num_micro_batches)
        deferred = zb1_deferred_weight_passes(stage, num_stages, num_micro_batches)
        ops: list[PipelineOp] = []
        forward_mb = 0
        backward_mb = 0
        weight_mb = 0
        for _ in range(num_warmup):
            ops.append(PipelineOp("forward", forward_mb))
            forward_mb += 1
        while forward_mb < num_micro_batches:
            ops.append(PipelineOp("forward", forward_mb))
            forward_mb += 1
            ops.append(PipelineOp("backward_input", backward_mb))
            backward_mb += 1
            while backward_mb - weight_mb > deferred:
                ops.append(PipelineOp("backward_weight", weight_mb))
                weight_mb += 1
        while backward_mb < num_micro_batches:
            ops.append(PipelineOp("backward_input", backward_mb))
            backward_mb += 1
            while backward_mb - weight_mb > deferred and weight_mb < num_micro_batches:
                ops.append(PipelineOp("backward_weight", weight_mb))
                weight_mb += 1
        while weight_mb < num_micro_batches:
            ops.append(PipelineOp("backward_weight", weight_mb))
            weight_mb += 1
        schedule.append(ops)
    return schedule


def build_interleaved_1f1b_schedule(
    num_stages: int, num_micro_batches: int, num_chunks: int = 2
) -> list[list[PipelineOp]]:
    """Interleaved 1F1B with ``num_chunks`` model chunks per stage.

    This follows the structure of Megatron-LM's interleaved schedule: forward units
    are issued in groups of ``num_stages`` micro-batches per chunk, warm-up length is
    ``(num_stages - 1 - stage) * 2 + (num_chunks - 1) * num_stages`` units, and the
    remainder alternates forward/backward units before draining the backwards.
    """
    _validate(num_stages, num_micro_batches)
    if num_chunks <= 0:
        raise ValueError(f"num_chunks must be positive, got {num_chunks}")
    if num_chunks == 1:
        return build_1f1b_schedule(num_stages, num_micro_batches)
    if num_micro_batches % num_stages != 0:
        # Megatron requires the micro-batch count to be a multiple of the pipeline
        # size for the interleaved schedule; we keep the same constraint explicit.
        raise ValueError(
            f"interleaved schedule requires num_micro_batches ({num_micro_batches}) to be a "
            f"multiple of num_stages ({num_stages})"
        )

    total_units = num_micro_batches * num_chunks

    def unit_to_op(unit_index: int, forward: bool) -> PipelineOp:
        """Map the ``unit_index``-th forward (or backward) unit to (micro_batch, chunk)."""
        group = unit_index // (num_stages * num_chunks)
        within = unit_index % (num_stages * num_chunks)
        chunk = within // num_stages
        micro_in_group = within % num_stages
        micro_batch = group * num_stages + micro_in_group
        if not forward:
            chunk = num_chunks - 1 - chunk
        return PipelineOp("forward" if forward else "backward", micro_batch, chunk)

    schedule = []
    for stage in range(num_stages):
        num_warmup = min((num_stages - 1 - stage) * 2 + (num_chunks - 1) * num_stages, total_units)
        ops: list[PipelineOp] = []
        forward_unit = 0
        backward_unit = 0
        for _ in range(num_warmup):
            ops.append(unit_to_op(forward_unit, forward=True))
            forward_unit += 1
        while forward_unit < total_units:
            ops.append(unit_to_op(forward_unit, forward=True))
            forward_unit += 1
            ops.append(unit_to_op(backward_unit, forward=False))
            backward_unit += 1
        while backward_unit < total_units:
            ops.append(unit_to_op(backward_unit, forward=False))
            backward_unit += 1
        schedule.append(ops)
    return schedule


def warmup_micro_batches(stage: int, num_stages: int, num_micro_batches: int) -> int:
    """Number of warm-up forwards stage ``stage`` performs under 1F1B."""
    if not 0 <= stage < num_stages:
        raise ValueError(f"stage {stage} out of range [0, {num_stages})")
    return min(num_stages - 1 - stage, num_micro_batches)


def epilogue_micro_batches(
    receiving_stage: int, num_stages: int, num_micro_batches: int
) -> set[int]:
    """Micro-batches whose backward communication *into* ``receiving_stage`` is exposed.

    Under 1F1B, stage ``k`` finishes its forwards ``num_stages - 1 - k`` backwards
    before the end of the iteration; during that cool-down there is no forward
    computation left to hide the incoming activation-gradient transfer, so those
    transfers sit on the critical path.  They are exactly the backward communications
    of the last ``num_stages - 1 - k`` micro-batches — the pipeline *epilogue* the
    paper compresses (Section 5.2, Fig. 6).

    Returns a set of zero-based micro-batch indices.  The last stage receives no
    backward traffic, so its set is empty.
    """
    if not 0 <= receiving_stage < num_stages:
        raise ValueError(f"receiving_stage {receiving_stage} out of range [0, {num_stages})")
    cooldown = min(num_stages - 1 - receiving_stage, num_micro_batches)
    if cooldown <= 0:
        return set()
    return set(range(num_micro_batches - cooldown, num_micro_batches))


def count_in_flight_micro_batches(stage: int, num_stages: int, num_micro_batches: int) -> int:
    """Peak number of activations stage ``stage`` holds simultaneously under 1F1B.

    Used by the memory model: earlier stages keep more in-flight micro-batches
    (``num_stages - stage``), which is why 1F1B bounds activation memory compared to
    GPipe's ``num_micro_batches``.
    """
    return min(num_stages - stage, num_micro_batches)

"""Tests for the pipeline schedules and the epilogue analysis."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.pipeline_schedule import (
    PipelineOp,
    build_1f1b_schedule,
    build_gpipe_schedule,
    build_interleaved_1f1b_schedule,
    build_zb1_schedule,
    count_in_flight_micro_batches,
    epilogue_micro_batches,
    replay_ops,
    warmup_micro_batches,
    zb1_deferred_weight_passes,
)
from repro.parallel.scheduler import (
    StageCosts,
    SynthesisSpec,
    evaluate_schedule,
    synthesize_schedule,
)


def op_counts(ops):
    forwards = [(op.micro_batch, op.chunk) for op in ops if op.kind == "forward"]
    backwards = [(op.micro_batch, op.chunk) for op in ops if op.kind == "backward"]
    return forwards, backwards


class TestGPipe:
    def test_all_forwards_before_backwards(self):
        schedule = build_gpipe_schedule(3, 5)
        for ops in schedule:
            kinds = [op.kind for op in ops]
            assert kinds == ["forward"] * 5 + ["backward"] * 5


class Test1F1B:
    @pytest.mark.parametrize("num_stages,num_micro", [(1, 4), (2, 4), (4, 8), (4, 16), (3, 7)])
    def test_each_micro_batch_forward_and_backward_once(self, num_stages, num_micro):
        schedule = build_1f1b_schedule(num_stages, num_micro)
        for ops in schedule:
            forwards, backwards = op_counts(ops)
            assert sorted(forwards) == [(mb, 0) for mb in range(num_micro)]
            assert sorted(backwards) == [(mb, 0) for mb in range(num_micro)]

    def test_backward_never_precedes_forward_of_same_micro_batch(self):
        schedule = build_1f1b_schedule(4, 8)
        for ops in schedule:
            seen_forward = set()
            for op in ops:
                if op.kind == "forward":
                    seen_forward.add(op.micro_batch)
                else:
                    assert op.micro_batch in seen_forward

    def test_warmup_counts(self):
        assert warmup_micro_batches(0, 4, 16) == 3
        assert warmup_micro_batches(3, 4, 16) == 0
        assert warmup_micro_batches(0, 4, 2) == 2  # capped by micro-batch count

    def test_in_flight_bound(self):
        """1F1B keeps at most (num_stages - stage) activations alive."""
        schedule = build_1f1b_schedule(4, 16)
        for stage, ops in enumerate(schedule):
            outstanding = 0
            peak = 0
            for op in ops:
                if op.kind == "forward":
                    outstanding += 1
                else:
                    outstanding -= 1
                peak = max(peak, outstanding)
            assert peak == count_in_flight_micro_batches(stage, 4, 16)

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            build_1f1b_schedule(0, 4)
        with pytest.raises(ValueError):
            build_1f1b_schedule(2, 0)


class TestInterleaved:
    def test_requires_divisible_micro_batches(self):
        with pytest.raises(ValueError):
            build_interleaved_1f1b_schedule(4, 6, num_chunks=2)

    def test_single_chunk_falls_back_to_1f1b(self):
        assert build_interleaved_1f1b_schedule(4, 8, num_chunks=1) == build_1f1b_schedule(4, 8)

    @pytest.mark.parametrize("num_stages,num_micro,chunks", [(2, 4, 2), (4, 8, 2), (4, 8, 3)])
    def test_each_unit_appears_once(self, num_stages, num_micro, chunks):
        schedule = build_interleaved_1f1b_schedule(num_stages, num_micro, chunks)
        expected = sorted((mb, chunk) for mb in range(num_micro) for chunk in range(chunks))
        for ops in schedule:
            forwards, backwards = op_counts(ops)
            assert sorted(forwards) == expected
            assert sorted(backwards) == expected

    def test_backward_chunk_order_is_reversed(self):
        """Backward units start from the last model chunk (deepest layers first)."""
        schedule = build_interleaved_1f1b_schedule(4, 8, 2)
        for ops in schedule:
            first_backward = next(op for op in ops if op.kind == "backward")
            assert first_backward.chunk == 1


class TestZB1:
    """The handcrafted zero-bubble ZB-H1 schedule (split B/W backward)."""

    @staticmethod
    def op_lists(ops):
        forwards = [op.micro_batch for op in ops if op.kind == "forward"]
        inputs = [op.micro_batch for op in ops if op.kind == "backward_input"]
        weights = [op.micro_batch for op in ops if op.kind == "backward_weight"]
        return forwards, inputs, weights

    @pytest.mark.parametrize(
        "num_stages,num_micro",
        [(1, 4), (2, 4), (4, 8), (4, 16), (3, 7), (4, 2), (4, 1), (8, 3)],
    )
    def test_every_micro_batch_has_f_b_w_once_in_order(self, num_stages, num_micro):
        """Includes the micro_batches < pp edge cases (4,2), (4,1), (8,3)."""
        schedule = build_zb1_schedule(num_stages, num_micro)
        assert len(schedule) == num_stages
        for ops in schedule:
            forwards, inputs, weights = self.op_lists(ops)
            # Each phase visits every micro-batch exactly once, in ascending
            # order — ascending W order is what makes the per-parameter
            # gradient accumulation order identical to 1F1B's.
            assert forwards == list(range(num_micro))
            assert inputs == list(range(num_micro))
            assert weights == list(range(num_micro))
            seen_forward, seen_input = set(), set()
            for op in ops:
                if op.kind == "forward":
                    seen_forward.add(op.micro_batch)
                elif op.kind == "backward_input":
                    assert op.micro_batch in seen_forward
                    seen_input.add(op.micro_batch)
                else:
                    assert op.kind == "backward_weight"
                    assert op.micro_batch in seen_input

    def test_single_stage_degenerates_to_serial_split_backward(self):
        """pp == 1: F, B, W per micro-batch back to back — serial/1f1b order."""
        (ops,) = build_zb1_schedule(1, 3)
        assert ops == [
            PipelineOp(kind, mb)
            for mb in range(3)
            for kind in ("forward", "backward_input", "backward_weight")
        ]

    @pytest.mark.parametrize("num_stages,num_micro", [(2, 4), (4, 8), (4, 2), (3, 7)])
    def test_same_warmup_as_1f1b(self, num_stages, num_micro):
        """The first B sits at the same op index as 1F1B's first backward."""
        schedule = build_zb1_schedule(num_stages, num_micro)
        reference = build_1f1b_schedule(num_stages, num_micro)
        for zb_ops, ref_ops in zip(schedule, reference):
            zb_first_b = next(i for i, op in enumerate(zb_ops) if op.kind == "backward_input")
            ref_first_b = next(i for i, op in enumerate(ref_ops) if op.kind == "backward")
            assert zb_first_b == ref_first_b

    def test_stage_k_defers_k_weight_passes(self):
        num_stages, num_micro = 4, 8
        schedule = build_zb1_schedule(num_stages, num_micro)
        for stage, ops in enumerate(schedule):
            pending = peak_pending = 0
            for op in ops:
                if op.kind == "backward_input":
                    pending += 1
                elif op.kind == "backward_weight":
                    pending -= 1
                peak_pending = max(peak_pending, pending)
            assert peak_pending == zb1_deferred_weight_passes(stage, num_stages, num_micro) + 1
            assert zb1_deferred_weight_passes(stage, num_stages, num_micro) == min(
                stage, num_micro
            )

    def test_deferred_passes_out_of_range_stage_raises(self):
        with pytest.raises(ValueError):
            zb1_deferred_weight_passes(4, 4, 8)

    @settings(max_examples=40, deadline=None)
    @given(
        num_stages=st.integers(min_value=1, max_value=8),
        num_micro=st.integers(min_value=1, max_value=24),
    )
    def test_same_peak_in_flight_activations_as_1f1b(self, num_stages, num_micro):
        """ZB-H1's memory claim: peak in-flight micro-batches match 1F1B."""
        schedule = build_zb1_schedule(num_stages, num_micro)
        for stage, ops in enumerate(schedule):
            outstanding = peak = 0
            pending_w = peak_pending_w = 0
            for op in ops:
                if op.kind == "forward":
                    outstanding += 1
                elif op.kind == "backward_input":
                    # B consumes the forward activation (backward_input clears
                    # the caches), leaving only the W stash alive.
                    outstanding -= 1
                    pending_w += 1
                else:
                    pending_w -= 1
                peak = max(peak, outstanding)
                peak_pending_w = max(peak_pending_w, pending_w)
            assert peak == count_in_flight_micro_batches(stage, num_stages, num_micro)
            # The W stash held between B and W is bounded by the deferral depth.
            assert peak_pending_w <= min(stage + 1, num_micro)

    @settings(max_examples=40, deadline=None)
    @given(
        num_stages=st.integers(min_value=1, max_value=8),
        num_micro=st.integers(min_value=1, max_value=24),
    )
    def test_total_op_count_is_three_per_micro_batch(self, num_stages, num_micro):
        schedule = build_zb1_schedule(num_stages, num_micro)
        assert all(len(ops) == 3 * num_micro for ops in schedule)

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            build_zb1_schedule(0, 4)
        with pytest.raises(ValueError):
            build_zb1_schedule(2, 0)


class TestEpilogue:
    def test_paper_example(self):
        """p=4, m=8: the first stage's epilogue is the last 3 micro-batches (Fig. 6)."""
        assert epilogue_micro_batches(0, 4, 8) == {5, 6, 7}
        assert epilogue_micro_batches(1, 4, 8) == {6, 7}
        assert epilogue_micro_batches(2, 4, 8) == {7}
        assert epilogue_micro_batches(3, 4, 8) == set()

    def test_matches_schedule_cooldown(self):
        """The analytic epilogue is the cool-down tail of the schedule.

        The op list places the backward paired with the final forward right after
        it, so the "after the last forward" set may contain one extra micro-batch
        (whose transfer can still be hidden by that last forward); the analytic set
        must be exactly the remaining, fully exposed tail.
        """
        num_stages, num_micro = 4, 16
        schedule = build_1f1b_schedule(num_stages, num_micro)
        for stage, ops in enumerate(schedule):
            last_forward = max(i for i, op in enumerate(ops) if op.kind == "forward")
            cooldown = {op.micro_batch for op in ops[last_forward + 1 :] if op.kind == "backward"}
            analytic = epilogue_micro_batches(stage, num_stages, num_micro)
            assert analytic.issubset(cooldown)
            assert len(cooldown) - len(analytic) <= 1
            if analytic:
                assert max(cooldown) == max(analytic) == num_micro - 1

    def test_out_of_range_stage_raises(self):
        with pytest.raises(ValueError):
            epilogue_micro_batches(4, 4, 8)

    @settings(max_examples=30, deadline=None)
    @given(
        num_stages=st.integers(min_value=1, max_value=8),
        extra=st.integers(min_value=0, max_value=24),
        stage=st.integers(min_value=0, max_value=7),
    )
    def test_epilogue_size_property(self, num_stages, extra, stage):
        """|epilogue(stage)| == min(num_stages - 1 - stage, m) for every valid stage."""
        num_micro = num_stages + extra
        stage = stage % num_stages
        epilogue = epilogue_micro_batches(stage, num_stages, num_micro)
        assert len(epilogue) == min(num_stages - 1 - stage, num_micro)
        assert all(mb >= num_micro - (num_stages - 1 - stage) for mb in epilogue)


class TestScheduleProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        num_stages=st.integers(min_value=1, max_value=6),
        num_micro=st.integers(min_value=1, max_value=24),
    )
    def test_1f1b_total_op_count(self, num_stages, num_micro):
        schedule = build_1f1b_schedule(num_stages, num_micro)
        assert len(schedule) == num_stages
        assert all(len(ops) == 2 * num_micro for ops in schedule)

    @settings(max_examples=20, deadline=None)
    @given(
        num_stages=st.integers(min_value=2, max_value=5),
        groups=st.integers(min_value=1, max_value=4),
        chunks=st.integers(min_value=2, max_value=3),
    )
    def test_interleaved_total_op_count(self, num_stages, groups, chunks):
        num_micro = num_stages * groups
        schedule = build_interleaved_1f1b_schedule(num_stages, num_micro, chunks)
        assert all(len(ops) == 2 * num_micro * chunks for ops in schedule)


# ---------------------------------------------------------------------------
# The one dependency-ordered walk (replay_ops)
# ---------------------------------------------------------------------------

WALKED_KINDS = ("1f1b", "zb1", "interleaved x2", "interleaved x4", "auto")


def _walked_schedule(kind, costs, num_micro):
    """Per-stage op lists of ``kind`` over ``len(costs)`` stages."""
    num_stages = len(costs)
    if kind == "1f1b":
        return build_1f1b_schedule(num_stages, num_micro)
    if kind == "zb1":
        return build_zb1_schedule(num_stages, num_micro)
    if kind == "auto":
        spec = SynthesisSpec(num_stages, num_micro, costs, memory_cap_factor=2.0)
        return synthesize_schedule(spec).stage_ops()
    return build_interleaved_1f1b_schedule(num_stages, num_micro, int(kind[-1]))


def _producer(stage, op, num_stages, num_chunks):
    """The ``(stage, op)`` whose output ``op`` waits for; ``None`` for a seeded op.

    Spelled out apart from the walk: activations flow down the stages and
    wrap from the last stage to stage 0's next chunk, gradients flow up and
    wrap from stage 0 to the last stage's previous chunk, and a W pass waits
    for its own stage's B pass.
    """
    micro, chunk = op.micro_batch, op.chunk
    if op.kind == "forward":
        if stage > 0:
            return stage - 1, op
        return (num_stages - 1, PipelineOp(op.kind, micro, chunk - 1)) if chunk > 0 else None
    if op.kind == "backward_weight":
        return stage, PipelineOp("backward_input", micro, chunk)
    if stage < num_stages - 1:
        return stage + 1, op
    return (0, PipelineOp(op.kind, micro, chunk + 1)) if chunk < num_chunks - 1 else None


class TestReplayOps:
    """The walk the synthesizer's evaluator, the simulator and the engine all go through."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(WALKED_KINDS),
        num_stages=st.integers(min_value=1, max_value=5),
        num_micro=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_walk_respects_lists_devices_and_hand_offs(self, kind, num_stages, num_micro, data):
        if kind.startswith("interleaved"):
            num_micro = num_stages * -(-num_micro // num_stages)  # whole groups only
        time = st.floats(min_value=0.0, max_value=3.0)
        costs = tuple(
            StageCosts(*data.draw(st.tuples(time, time, time))) for _ in range(num_stages)
        )
        durations = {
            "forward": [cost.forward for cost in costs],
            "backward": [cost.backward_input + cost.backward_weight for cost in costs],
            "backward_input": [cost.backward_input for cost in costs],
            "backward_weight": [cost.backward_weight for cost in costs],
        }
        per_stage = st.lists(time, min_size=num_stages, max_size=num_stages)
        delays = {direction: data.draw(per_stage) for direction in ("forward", "backward")}
        schedule = _walked_schedule(kind, costs, num_micro)
        num_chunks = 1 + max(op.chunk for ops in schedule for op in ops)

        hand_offs = []

        def handoff(op, consumer):
            direction = "forward" if op.kind == "forward" else "backward"
            hand_offs.append((direction, consumer))
            return delays[direction][consumer[0]]

        events = list(replay_ops(schedule, durations, handoff))
        ended: dict = {}
        device_free = [0.0] * num_stages
        expected_hand_offs = []
        for stage, op, start, end in events:
            # Never overlapping on a device, and exactly one op's duration long.
            assert start >= device_free[stage]
            assert end == start + durations[op.kind][stage]
            device_free[stage] = end
            producer = _producer(stage, op, num_stages, num_chunks)
            if producer is not None:
                assert producer in ended  # dependency order
                if op.kind == "backward_weight":
                    assert start >= ended[producer]
                else:
                    direction = "forward" if op.kind == "forward" else "backward"
                    assert start >= ended[producer] + delays[direction][stage]
                    expected_hand_offs.append((direction, (stage, op.micro_batch, op.chunk)))
            ended[(stage, op)] = end
        for stage, ops in enumerate(schedule):
            assert [op for s, op, _, _ in events if s == stage] == list(ops)
        # One hand-off per cross-stage dependency, none for a seeded op.
        assert sorted(hand_offs) == sorted(expected_hand_offs)

        # evaluate_schedule folds the same walk: its makespan is the last
        # backward-side end, and the visit order does not depend on the times.
        spec = SynthesisSpec(num_stages, num_micro, costs, transfer_delay=delays["forward"][0])
        uniform = list(replay_ops(schedule, durations, lambda op, consumer: spec.transfer_delay))
        makespan, _ = evaluate_schedule(schedule, spec)
        assert makespan == max(end for _, op, _, end in uniform if op.kind != "forward")
        assert [event[:2] for event in uniform] == [event[:2] for event in events]

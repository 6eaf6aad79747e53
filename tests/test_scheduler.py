"""Schedule synthesis (``Schedule.kind="auto"``) — validity, memory, parity, monotonicity.

Four layers of evidence, mirroring the issue's acceptance criteria:

* **fuzzed invariants** (hypothesis): for arbitrary (pp, micro_batches, cost
  ratios, cap), every synthesized schedule passes the split-backward validity
  checks, respects its per-stage memory budget, and its makespan is monotone
  non-increasing in the cap;
* **degeneration and dominance**: at ``memory_cap_factor=1.0`` auto matches
  zb1's bubble fraction within 1 % (exactly, in fact — zb1 wins ties), and at
  2.0 it is strictly better on the paper's GPT-8.3B PP4xDP4 layout;
* **weight parity**: the functional engine replaying a synthesized schedule
  leaves bit-identical gradients to the 1f1b loop, across caps and layouts and
  the zb1 edge cases the synthesizer inherits (mb == 1, pp == 1, mb < pp);
* **memory-model honesty**: the Fig. 12 report now carries the split-backward
  W stash, pinned 1f1b-vs-zb1 per stage.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.gpt_configs import GPT_8_3B, functional_config
from repro.nn.gpt_stage import build_gpt_stages
from repro.parallel.pipeline_engine import PipelineParallelEngine
from repro.parallel.pipeline_schedule import (
    PipelineOp,
    build_1f1b_schedule,
    build_gpipe_schedule,
    build_interleaved_1f1b_schedule,
    build_zb1_schedule,
)
from repro.parallel.process_groups import ParallelLayout
from repro.parallel.scheduler import (
    CAP_LADDER,
    StageCosts,
    SynthesisSpec,
    evaluate_schedule,
    peak_stage_memory,
    stage_memory_budget,
    stage_memory_profile,
    synthesize_schedule,
    validate_schedule_ops,
)
from repro.plan import SCHEDULE_KINDS, SPLIT_BACKWARD_KINDS, validate_schedule_kind
from repro.simulator.cost_model import TrainingJob
from repro.simulator.executor import PipelineTimingSimulator
from repro.simulator.memory_model import MemoryModel
from repro.simulator.throughput import schedule_cap_sweep, schedule_throughput


def _spec(pp, mb, cap=1.0, f=1.0, b=2.0, w=1.0, delay=0.0):
    return SynthesisSpec(
        num_stages=pp,
        num_micro_batches=mb,
        costs=tuple(StageCosts(f, b, w) for _ in range(pp)),
        transfer_delay=delay,
        memory_cap_factor=cap,
    )


def _paper_job(**overrides) -> TrainingJob:
    defaults = dict(
        model=GPT_8_3B,
        layout=ParallelLayout(tensor_parallel=8, pipeline_parallel=4, data_parallel=4),
        micro_batch_size=8,
        global_batch_size=512,
        num_model_chunks=1,
    )
    defaults.update(overrides)
    return TrainingJob(**defaults)


# ---------------------------------------------------------------------------
# Synthesizer unit behaviour
# ---------------------------------------------------------------------------


class TestSynthesizer:
    def test_output_is_valid_and_within_budget(self):
        spec = _spec(4, 8, cap=2.0, delay=0.05)
        result = synthesize_schedule(spec)
        validate_schedule_ops(result.stage_ops(), 4, 8)
        for stage in range(4):
            assert result.peak_memory[stage] <= result.memory_budget[stage] + 1e-9

    def test_cap_one_degenerates_to_zb1(self):
        """At 1x memory the handcrafted ZB-H1 lists are the (tie-winning) answer."""
        for pp, mb in ((2, 4), (4, 8), (4, 16), (8, 8)):
            spec = _spec(pp, mb, cap=1.0, delay=0.05)
            result = synthesize_schedule(spec)
            zb1_makespan, zb1_bubble = evaluate_schedule(build_zb1_schedule(pp, mb), spec)
            assert result.makespan <= zb1_makespan + 1e-9, (pp, mb)
            assert result.bubble_fraction <= zb1_bubble + 1e-9, (pp, mb)
            if result.source == "zb1":
                assert result.stage_ops() == build_zb1_schedule(pp, mb)

    def test_higher_cap_strictly_beats_zb1_on_wide_pipeline(self):
        spec = _spec(4, 16, cap=2.0, delay=0.05)
        result = synthesize_schedule(spec)
        _, zb1_bubble = evaluate_schedule(build_zb1_schedule(4, 16), spec)
        assert result.bubble_fraction < zb1_bubble
        assert result.source.startswith("greedy@")

    def test_never_worse_than_zb1_at_any_cap(self):
        for cap in CAP_LADDER:
            spec = _spec(4, 8, cap=cap, delay=0.05)
            result = synthesize_schedule(spec)
            zb1_makespan, _ = evaluate_schedule(build_zb1_schedule(4, 8), spec)
            assert result.makespan <= zb1_makespan + 1e-9, cap

    def test_edge_case_layouts(self):
        """The zb1 edge cases the synthesizer inherits: mb==1, pp==1, mb<pp."""
        for pp, mb in ((4, 1), (1, 4), (1, 1), (4, 2), (6, 3)):
            for cap in (1.0, 2.0):
                result = synthesize_schedule(_spec(pp, mb, cap=cap))
                validate_schedule_ops(result.stage_ops(), pp, mb)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="num_stages"):
            _spec(0, 4)
        with pytest.raises(ValueError, match="num_micro_batches"):
            _spec(2, 0)
        for cap in (0.5, float("nan")):
            with pytest.raises(ValueError, match="memory_cap_factor"):
                _spec(2, 4, cap=cap)
        with pytest.raises(ValueError, match="non-negative"):
            StageCosts(-1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="one entry per stage"):
            SynthesisSpec(2, 4, costs=(StageCosts(1, 2, 1),))

    def test_validate_rejects_broken_op_lists(self):
        good = synthesize_schedule(_spec(2, 2)).stage_ops()
        # Drop one W pass.
        broken = [list(ops) for ops in good]
        broken[0] = [op for op in broken[0] if not (op.kind == "backward_weight" and op.micro_batch == 1)]
        with pytest.raises(ValueError, match="every micro-batch exactly once"):
            validate_schedule_ops(broken, 2, 2)
        # Swap F and B of one micro-batch (F must precede B).
        swapped = [list(ops) for ops in good]
        f = next(i for i, op in enumerate(swapped[0]) if op.kind == "forward" and op.micro_batch == 1)
        b = next(i for i, op in enumerate(swapped[0]) if op.kind == "backward_input" and op.micro_batch == 1)
        swapped[0][f], swapped[0][b] = swapped[0][b], swapped[0][f]
        with pytest.raises(ValueError):
            validate_schedule_ops(swapped, 2, 2)

    def test_validate_catches_cross_stage_deadlock(self):
        """Per-stage ascending order alone does not imply deadlock-freedom."""
        F, B, W = "forward", "backward_input", "backward_weight"
        # Stage 0 insists on B0 before F1; stage 1 runs F0,F1 before B0 — but
        # stage 0's B0 needs stage 1's B0, which needs stage 1's F1, which
        # needs stage 0's F1: a cycle.
        deadlocked = [
            [PipelineOp(F, 0), PipelineOp(B, 0), PipelineOp(W, 0), PipelineOp(F, 1), PipelineOp(B, 1), PipelineOp(W, 1)],
            [PipelineOp(F, 0), PipelineOp(F, 1), PipelineOp(B, 0), PipelineOp(W, 0), PipelineOp(B, 1), PipelineOp(W, 1)],
        ]
        with pytest.raises(RuntimeError, match="deadlock"):
            validate_schedule_ops(deadlocked, 2, 2)

    @pytest.mark.parametrize(
        "schedule, pp, mb",
        [
            (build_interleaved_1f1b_schedule(4, 8, 2), 4, 8),
            (build_interleaved_1f1b_schedule(2, 4, 4), 2, 4),
            (build_1f1b_schedule(4, 8), 4, 8),
            (build_1f1b_schedule(1, 3), 1, 3),
            (build_gpipe_schedule(3, 5), 3, 5),
        ],
        ids=["interleaved-4x8x2", "interleaved-2x4x4", "1f1b-4x8", "1f1b-1x3", "gpipe-3x5"],
    )
    def test_validate_accepts_interleaved_and_fused_lists(self, schedule, pp, mb):
        validate_schedule_ops(schedule, pp, mb)

    def test_validate_rejects_broken_interleaved_and_mixed_lists(self):
        interleaved = build_interleaved_1f1b_schedule(2, 4, 2)
        # Drop chunk 1's backward of micro-batch 3 on stage 0.
        dropped = [list(ops) for ops in interleaved]
        dropped[0].remove(PipelineOp("backward", 3, 1))
        with pytest.raises(ValueError, match="chunk 1: backward ops must cover"):
            validate_schedule_ops(dropped, 2, 4)
        # One fused backward in a split-backward list.
        mixed = build_zb1_schedule(2, 2)
        mixed[1][-1] = PipelineOp("backward", 1)
        with pytest.raises(ValueError, match="not part of a split-backward schedule"):
            validate_schedule_ops(mixed, 2, 2)

    def test_validate_catches_cyclic_interleaved_list(self):
        """Stage 1 runs chunk 1's first forward before chunk 0's — but chunk
        1's input wraps around from stage 1's own chunk 0 through stage 0."""
        F, B = "forward", "backward"
        backwards = [PipelineOp(B, 0, 1), PipelineOp(B, 1, 1), PipelineOp(B, 0, 0), PipelineOp(B, 1, 0)]
        cyclic = [
            [PipelineOp(F, 0, 0), PipelineOp(F, 1, 0), PipelineOp(F, 0, 1), PipelineOp(F, 1, 1)]
            + backwards,
            [PipelineOp(F, 0, 1), PipelineOp(F, 0, 0), PipelineOp(F, 1, 0), PipelineOp(F, 1, 1)]
            + backwards,
        ]
        with pytest.raises(RuntimeError, match="deadlock"):
            validate_schedule_ops(cyclic, 2, 2)

    def test_stage_memory_profile_matches_peak(self):
        ops = synthesize_schedule(_spec(4, 8, cap=2.0)).stage_ops()
        for stage_ops in ops:
            in_flight, pending = stage_memory_profile(stage_ops)
            # With unit activation and stash bytes, the joint peak is bounded
            # by the sum of the individual peaks and dominated by either alone.
            joint = peak_stage_memory(stage_ops, 1.0, 1.0)
            assert max(in_flight, pending) <= joint <= in_flight + pending


# ---------------------------------------------------------------------------
# Hypothesis fuzz: validity + budget + monotone bubble-vs-cap
# ---------------------------------------------------------------------------


class TestFuzzedInvariants:
    @given(
        pp=st.integers(min_value=1, max_value=6),
        mb=st.integers(min_value=1, max_value=10),
        forward=st.floats(min_value=0.1, max_value=4.0),
        backward=st.floats(min_value=0.1, max_value=4.0),
        weight=st.floats(min_value=0.1, max_value=4.0),
        delay=st.floats(min_value=0.0, max_value=0.5),
        cap=st.floats(min_value=1.0, max_value=4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_synthesized_schedules_are_valid_and_fit(
        self, pp, mb, forward, backward, weight, delay, cap
    ):
        spec = _spec(pp, mb, cap=cap, f=forward, b=backward, w=weight, delay=delay)
        result = synthesize_schedule(spec)
        validate_schedule_ops(result.stage_ops(), pp, mb)
        for stage in range(pp):
            budget = stage_memory_budget(spec, stage)
            assert result.peak_memory[stage] <= budget + 1e-9
            assert result.memory_budget[stage] == pytest.approx(budget)

    @given(
        pp=st.integers(min_value=2, max_value=5),
        mb=st.integers(min_value=2, max_value=10),
        forward=st.floats(min_value=0.2, max_value=2.0),
        backward=st.floats(min_value=0.2, max_value=2.0),
        weight=st.floats(min_value=0.2, max_value=2.0),
        delay=st.floats(min_value=0.0, max_value=0.2),
    )
    @settings(max_examples=25, deadline=None)
    def test_makespan_monotone_in_cap(self, pp, mb, forward, backward, weight, delay):
        makespans = []
        for cap in (1.0, 1.5, 2.0, 3.0):
            spec = _spec(pp, mb, cap=cap, f=forward, b=backward, w=weight, delay=delay)
            makespans.append(synthesize_schedule(spec).makespan)
        for tighter, looser in zip(makespans, makespans[1:]):
            assert looser <= tighter + 1e-9

    @given(
        pp=st.integers(min_value=2, max_value=4),
        mb=st.integers(min_value=2, max_value=6),
        cap=st.sampled_from((1.0, 1.5, 2.0)),
    )
    @settings(max_examples=15, deadline=None)
    def test_fuzzed_engine_weight_parity(self, pp, mb, cap):
        assert _max_grad_delta(pp, mb, "auto", cap) == 0.0


# ---------------------------------------------------------------------------
# Functional engine: weight parity (bit-identical to 1f1b)
# ---------------------------------------------------------------------------


def _max_grad_delta(pp: int, mb: int, kind: str, cap: float = 1.0, seed: int = 11) -> float:
    """Train one iteration under ``kind`` and 1f1b; return the max |grad delta|."""
    config = functional_config(
        vocab_size=61, sequence_length=12, num_layers=max(pp, 4), hidden_size=16, num_heads=2
    )
    rng = np.random.default_rng(seed)
    micro_batches = [
        (
            rng.integers(0, config.vocab_size, size=(2, 12)),
            rng.integers(0, config.vocab_size, size=(2, 12)),
        )
        for _ in range(mb)
    ]

    def grads(schedule_kind: str, memory_cap: float) -> list[np.ndarray]:
        stages = build_gpt_stages(config, pp, seed=seed)
        engine = PipelineParallelEngine(
            stages, schedule_kind=schedule_kind, memory_cap_factor=memory_cap
        )
        engine.zero_grad()
        engine.run_iteration(micro_batches)
        return [parameter.grad.copy() for parameter in engine.parameters()]

    worst = 0.0
    for base, other in zip(grads("1f1b", 1.0), grads(kind, cap)):
        worst = max(worst, float(np.max(np.abs(base - other))))
    return worst


class TestEngineParity:
    @pytest.mark.parametrize("cap", [1.0, 1.5, 2.0, 4.0])
    def test_auto_bit_identical_across_caps(self, cap):
        assert _max_grad_delta(4, 8, "auto", cap) == 0.0

    @pytest.mark.parametrize("pp,mb", [(2, 6), (3, 5), (4, 4)])
    def test_auto_bit_identical_across_layouts(self, pp, mb):
        assert _max_grad_delta(pp, mb, "auto", 2.0) == 0.0

    # The zb1 edge cases the synthesizer inherits (satellite): parity, not
    # just bubble numbers.
    @pytest.mark.parametrize("kind", SPLIT_BACKWARD_KINDS)
    @pytest.mark.parametrize(
        "pp,mb",
        [(4, 1), (1, 4), (1, 1), (4, 2), (3, 2)],  # mb==1, pp==1, mb<pp
    )
    def test_edge_case_weight_parity(self, kind, pp, mb):
        assert _max_grad_delta(pp, mb, kind, 1.0) == 0.0

    def test_smoke_pp4_mb8(self):
        """The CI fast-tier smoke: synthesize + replay one auto schedule end to end."""
        spec = _spec(4, 8, cap=1.5)
        result = synthesize_schedule(spec)
        validate_schedule_ops(result.stage_ops(), 4, 8)
        assert _max_grad_delta(4, 8, "auto", 1.5) == 0.0
        timing = PipelineTimingSimulator(
            _paper_job(schedule_kind="auto", memory_cap_factor=1.5)
        ).run()
        assert timing.schedule_kind == "auto"
        assert 0.0 < timing.bubble_fraction < 1.0

    def test_engine_rejects_bad_kind_and_cap(self):
        config = functional_config(vocab_size=32, sequence_length=8, num_layers=2, hidden_size=8, num_heads=2)
        stages = build_gpt_stages(config, 2, seed=0)
        with pytest.raises(ValueError, match="unknown schedule kind"):
            PipelineParallelEngine(stages, schedule_kind="gpipe")
        for cap in (0.5, float("nan")):
            with pytest.raises(ValueError, match="memory_cap_factor"):
                PipelineParallelEngine(stages, schedule_kind="auto", memory_cap_factor=cap)


# ---------------------------------------------------------------------------
# Simulator: acceptance numbers on the paper layout + loud kind rejection
# ---------------------------------------------------------------------------


class TestSimulatorAcceptance:
    def test_cap_one_matches_zb1_within_one_percent(self):
        points = {p.kind: p for p in schedule_throughput(_paper_job(), kinds=("zb1",))}
        auto = schedule_cap_sweep(_paper_job(), caps=(1.0,))[0]
        zb1 = points["zb1"]
        assert auto.bubble_fraction == pytest.approx(zb1.bubble_fraction, rel=0.01)

    def test_cap_two_strictly_beats_zb1_on_gpt83b_pp4(self):
        zb1 = {p.kind: p for p in schedule_throughput(_paper_job(), kinds=("zb1",))}["zb1"]
        auto = schedule_cap_sweep(_paper_job(), caps=(2.0,))[0]
        assert auto.bubble_fraction < zb1.bubble_fraction
        assert auto.iteration_time_s < zb1.iteration_time_s

    def test_cap_sweep_monotone(self):
        sweep = schedule_cap_sweep(_paper_job(), caps=(1.0, 1.5, 2.0))
        bubbles = [point.bubble_fraction for point in sweep]
        assert bubbles == sorted(bubbles, reverse=True) or all(
            later <= earlier + 1e-9 for earlier, later in zip(bubbles, bubbles[1:])
        )
        assert [point.memory_cap_factor for point in sweep] == [1.0, 1.5, 2.0]

    def test_schedule_throughput_rejects_unknown_kind_loudly(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            schedule_throughput(_paper_job(), kinds=("1f1b", "gpipe"))

    def test_training_job_rejects_unknown_kind_and_bad_cap(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            _paper_job(schedule_kind="gpipe")
        for cap in (0.9, float("nan")):
            with pytest.raises(ValueError, match="memory_cap_factor"):
                _paper_job(schedule_kind="auto", memory_cap_factor=cap)

    def test_shared_validator_vocabulary(self):
        assert "auto" in SCHEDULE_KINDS
        assert set(SPLIT_BACKWARD_KINDS) == {"zb1", "auto"}
        assert validate_schedule_kind("zb1") == "zb1"
        with pytest.raises(ValueError, match="my-context"):
            validate_schedule_kind("nope", context="my-context")


# ---------------------------------------------------------------------------
# Memory model: the W-stash term (satellite bugfix)
# ---------------------------------------------------------------------------


class TestMemoryModelStash:
    def test_1f1b_has_no_stash(self):
        report = MemoryModel(_paper_job(schedule_kind="1f1b")).peak_report()
        assert report.weight_stash == 0.0

    def test_zb1_peak_exceeds_1f1b_by_the_stash(self):
        """Regression pin: zb1 = 1f1b + per-stage stash term, nothing else."""
        base_model = MemoryModel(_paper_job(schedule_kind="1f1b"))
        zb1_model = MemoryModel(_paper_job(schedule_kind="zb1"))
        for stage in range(4):
            base = base_model.stage_report(stage)
            zb1 = zb1_model.stage_report(stage)
            assert zb1.weight_stash > 0.0, stage
            # Same activations (zb1 keeps the 1F1B in-flight profile) …
            assert zb1.activations == pytest.approx(base.activations), stage
            # … so the whole difference is the stash term.
            assert zb1.total - base.total == pytest.approx(zb1.weight_stash), stage
            expected_pending = zb1_model.cost.weight_stash_bytes_per_microbatch(stage)
            in_flight, pending = stage_memory_profile(build_zb1_schedule(4, 16)[stage])
            assert zb1.weight_stash == pytest.approx(expected_pending * pending), stage

    def test_auto_at_higher_cap_reports_more_activation_memory(self):
        cap1 = MemoryModel(_paper_job(schedule_kind="auto", memory_cap_factor=1.0)).peak_report()
        cap2 = MemoryModel(_paper_job(schedule_kind="auto", memory_cap_factor=2.0)).peak_report()
        assert cap2.activations >= cap1.activations
        assert cap2.total > cap1.total

    def test_auto_report_matches_synthesized_op_lists(self):
        job = _paper_job(schedule_kind="auto", memory_cap_factor=2.0)
        model = MemoryModel(job)
        from repro.simulator.executor import build_job_schedule

        schedule = build_job_schedule(job)
        for stage in range(4):
            in_flight, pending = stage_memory_profile(schedule[stage])
            report = model.stage_report(stage)
            assert report.activations == pytest.approx(
                model.cost.activation_bytes_per_microbatch(stage) * in_flight
            )
            assert report.weight_stash == pytest.approx(
                model.cost.weight_stash_bytes_per_microbatch(stage) * pending
            )

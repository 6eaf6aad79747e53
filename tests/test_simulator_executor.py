"""Tests for the event-driven timing simulator, breakdown, memory, and throughput models."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.models import GPT_2_5B, GPT_8_3B, GPT_175B
from repro.parallel.process_groups import ParallelLayout
from repro.parallel.topology import ethernet_cluster
from repro.plan import Boundary, CompressionSpec, ParallelPlan
from repro.simulator import (
    CompressionThroughputModel,
    MemoryModel,
    PipelineTimingSimulator,
    TrainingJob,
    compute_breakdown,
    measured_numpy_throughput,
)
from repro.simulator import executor as executor_module
from repro.simulator import memory_model as memory_module
from repro.simulator.cost_model import CLASS_MEMO_SIZE, job_cost_model
from repro.simulator import evaluate as evaluate_module
from repro.simulator.evaluate import evaluate_job
from repro.simulator.hardware import ClusterSpec, SimulationConstants
from repro.simulator.executor import (
    REPLAY_MEMO_SIZE,
    ComponentToggles,
    build_job_schedule,
    replay_pipeline,
    simulate_plan,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def job() -> TrainingJob:
    return TrainingJob(model=GPT_2_5B)


@pytest.fixture(scope="module")
def baseline(job):
    return PipelineTimingSimulator(job, ParallelPlan.baseline()).run()


class TestPlanCodecs:
    """Of a plan the simulator reads the three boundaries' compression specs."""

    def test_compressed_stage_selection(self):
        def stages(plan):
            return plan.spec(Boundary.DP).compressed_stages(4)

        assert stages(ParallelPlan.cb_fe_sc(stage_fraction=0.75)) == {0, 1, 2}
        assert stages(ParallelPlan.naive_dp()) == {0, 1, 2, 3}
        assert stages(ParallelPlan.baseline()) == set()
        # Dormant knobs of an uncompressed boundary select nothing ...
        assert stages(ParallelPlan.baseline().with_boundary(Boundary.DP, stage_fraction=0.5)) == set()
        # ... and neither does a codec over a zero stage fraction.
        assert stages(ParallelPlan.naive_dp().with_boundary(Boundary.DP, stage_fraction=0.0)) == set()

    @pytest.mark.parametrize("codec", ["powersgd", "qsgd", "topk"])
    def test_every_codec_reduces_dp_wire_bytes(self, job, baseline, codec):
        plan = ParallelPlan.baseline().with_boundary(
            Boundary.DP, codec=codec, stage_fraction=1.0, rank=4, bits=4, fraction=0.01
        )
        timing = PipelineTimingSimulator(job, plan).run()
        assert timing.dp_wire_bytes < baseline.dp_wire_bytes

    def test_zero_stage_fraction_charges_nothing(self, job, baseline):
        plan = ParallelPlan.naive_dp().with_boundary(Boundary.DP, stage_fraction=0.0)
        assert PipelineTimingSimulator(job, plan).run() == baseline


class TestDpOverlapAccounting:
    """Exposed/overlapped split of the DP all-reduce across the cool-down."""

    def test_split_partitions_the_dp_wire_bytes(self, baseline):
        total = baseline.dp_exposed_wire_bytes + baseline.dp_overlapped_wire_bytes
        assert total == pytest.approx(baseline.dp_wire_bytes)
        assert 0.0 < baseline.dp_overlapped_fraction < 1.0

    def test_stage_zero_is_always_exposed(self, baseline):
        # Stage 0 drains last: its all-reduce can never hide, so some bytes stay
        # exposed even though late stages overlap theirs.
        assert baseline.dp_exposed_wire_bytes > 0

    def test_deeper_pipelines_hide_more(self):
        shallow_job = TrainingJob(
            model=GPT_2_5B, layout=ParallelLayout(pipeline_parallel=2)
        )
        deep_job = TrainingJob(
            model=GPT_2_5B, layout=ParallelLayout(pipeline_parallel=8)
        )
        shallow = PipelineTimingSimulator(shallow_job).run()
        deep = PipelineTimingSimulator(deep_job).run()
        assert deep.dp_overlapped_fraction > shallow.dp_overlapped_fraction

    def test_micro_batch_fire_widens_the_overlap_window(self):
        """dp_fire='micro_batch' opens each stage's window one backward op
        earlier, so strictly more DP bytes hide — total bytes unchanged."""
        stage_job = TrainingJob(
            model=GPT_2_5B, layout=ParallelLayout(pipeline_parallel=4), dp_fire="stage"
        )
        micro_job = TrainingJob(
            model=GPT_2_5B,
            layout=ParallelLayout(pipeline_parallel=4),
            dp_fire="micro_batch",
        )
        stage = PipelineTimingSimulator(stage_job).run()
        micro = PipelineTimingSimulator(micro_job).run()
        assert micro.dp_wire_bytes == pytest.approx(stage.dp_wire_bytes)
        assert micro.dp_overlapped_fraction > stage.dp_overlapped_fraction
        assert micro.iteration_time == pytest.approx(stage.iteration_time)

    def test_invalid_dp_fire_rejected(self):
        with pytest.raises(ValueError):
            TrainingJob(model=GPT_2_5B, dp_fire="per_layer")


class TestTimingSimulator:
    def test_iteration_time_positive_and_consistent(self, job, baseline):
        assert baseline.iteration_time > 0
        assert baseline.days_for(230_000) == pytest.approx(
            baseline.iteration_time * 230_000 / 86400
        )
        assert len(baseline.stage_finish) == job.num_stages

    def test_deterministic(self, job, baseline):
        again = PipelineTimingSimulator(job, ParallelPlan.baseline()).run()
        assert again.iteration_time == pytest.approx(baseline.iteration_time)

    def test_every_technique_speeds_up_the_baseline(self, job, baseline):
        for plan in (
            ParallelPlan.cb(),
            ParallelPlan.cb_fe(),
            ParallelPlan.cb_fe_sc(),
        ):
            timing = PipelineTimingSimulator(job, plan).run()
            assert timing.iteration_time < baseline.iteration_time

    def test_paper_ordering_cb_lt_cbfe_lt_cbfesc(self, job, baseline):
        """Table 2 ordering: each added technique increases the speedup."""
        cb = simulate_plan(job, ParallelPlan.cb()).speedup_over(baseline)
        cb_fe = simulate_plan(job, ParallelPlan.cb_fe()).speedup_over(baseline)
        full = simulate_plan(job, ParallelPlan.cb_fe_sc()).speedup_over(baseline)
        assert 0 < cb < cb_fe < full

    def test_compression_reduces_wire_bytes(self, job, baseline):
        compressed = simulate_plan(job, ParallelPlan.cb_fe_sc())
        assert compressed.interstage_wire_bytes < baseline.interstage_wire_bytes
        assert compressed.dp_wire_bytes < baseline.dp_wire_bytes
        assert compressed.embedding_wire_bytes < baseline.embedding_wire_bytes

    def test_compression_overhead_reported(self, job):
        assert simulate_plan(job, ParallelPlan.cb_fe_sc()).compression_overhead > 0
        assert simulate_plan(job, ParallelPlan.baseline()).compression_overhead == 0

    def test_naive_cb_compresses_more_transfers_than_epilogue_only(self, job):
        naive = simulate_plan(job, ParallelPlan.naive_cb())
        epilogue = simulate_plan(job, ParallelPlan.cb())
        assert naive.interstage_wire_bytes < epilogue.interstage_wire_bytes

    def test_plain_1f1b_schedule_supported(self):
        job = TrainingJob(model=GPT_2_5B, num_model_chunks=1)
        timing = PipelineTimingSimulator(job).run()
        assert timing.iteration_time > 0

    def test_single_stage_pipeline(self):
        layout = ParallelLayout(tensor_parallel=8, pipeline_parallel=1, data_parallel=4)
        job = TrainingJob(model=GPT_2_5B, layout=layout, num_model_chunks=1)
        timing = PipelineTimingSimulator(job).run()
        assert timing.iteration_time > 0
        assert timing.interstage_wire_bytes == 0

    def test_toggles_remove_component_costs(self, job, baseline):
        no_dp = PipelineTimingSimulator(job, toggles=ComponentToggles(data_parallel=0.0)).run()
        assert no_dp.iteration_time < baseline.iteration_time
        no_comm = PipelineTimingSimulator(
            job,
            toggles=ComponentToggles(interstage=0.0, data_parallel=0.0, embedding=0.0),
        ).run()
        assert no_comm.iteration_time < no_dp.iteration_time

    def test_bigger_model_takes_longer(self):
        small = PipelineTimingSimulator(TrainingJob(model=GPT_2_5B)).run()
        large = PipelineTimingSimulator(TrainingJob(model=GPT_8_3B)).run()
        assert large.iteration_time > small.iteration_time

    def test_speedup_over_convention(self, baseline):
        assert baseline.speedup_over(baseline) == pytest.approx(0.0)


class TestConfigurationSensitivity:
    """Fig. 14 trends: CB gains grow with pipeline depth, SC gains shrink."""

    @staticmethod
    def _speedup(layout, plan, reference_plan=ParallelPlan.baseline()):
        from repro.models import GPT_9_2B

        job = TrainingJob(model=GPT_9_2B, layout=layout)
        reference = PipelineTimingSimulator(job, reference_plan).run()
        timing = PipelineTimingSimulator(job, plan).run()
        return reference.iteration_time / timing.iteration_time - 1

    def test_cb_benefit_grows_with_pipeline_depth(self):
        shallow = ParallelLayout(tensor_parallel=8, pipeline_parallel=4, data_parallel=4)
        deep = ParallelLayout(tensor_parallel=2, pipeline_parallel=16, data_parallel=4)
        assert self._speedup(deep, ParallelPlan.cb()) > self._speedup(shallow, ParallelPlan.cb())

    def test_all_configurations_see_speedup(self):
        for tp, pp in ((8, 4), (4, 8), (2, 16)):
            layout = ParallelLayout(tensor_parallel=tp, pipeline_parallel=pp, data_parallel=4)
            assert self._speedup(layout, ParallelPlan.cb_fe_sc()) > 0


class TestBreakdown:
    def test_components_are_nonnegative_and_reasonable(self, job):
        breakdown = compute_breakdown(job)
        values = breakdown.as_dict()
        assert all(value >= 0 for value in values.values())
        assert breakdown.total > 0
        assert 0 < breakdown.communication_fraction() < 1

    def test_optimus_reduces_communication_components(self, job):
        base = compute_breakdown(job, ParallelPlan.baseline())
        optimus = compute_breakdown(job, ParallelPlan.cb_fe_sc())
        base_comm = base.interstage_comm + base.data_parallel_comm + base.embedding_comm
        optimus_comm = (
            optimus.interstage_comm + optimus.data_parallel_comm + optimus.embedding_comm
        )
        assert optimus_comm < base_comm
        assert optimus.total < base.total

    def test_fe_reduces_embedding_component(self, job):
        base = compute_breakdown(job, ParallelPlan.baseline())
        fe = compute_breakdown(job, ParallelPlan.cb_fe())
        assert fe.embedding_comm < base.embedding_comm


class TestMemoryModel:
    def test_baseline_report_components(self, job):
        report = MemoryModel(job, ParallelPlan.baseline()).peak_report()
        assert report.parameters_and_optimizer > 0
        assert report.activations > 0
        assert report.compression_buffers == 0
        assert report.lazy_error_buffers == 0
        assert report.total_gb > 1

    def test_compression_adds_buffers(self, job):
        baseline = MemoryModel(job, ParallelPlan.baseline()).peak_report()
        compressed = MemoryModel(job, ParallelPlan.cb_fe_sc()).peak_report()
        assert compressed.total > baseline.total
        overhead = compressed.overhead_over(baseline)
        assert 0 < overhead < 0.25  # paper Fig. 12: ~5-10 % for the low-rank buffers

    def test_lazy_error_adds_small_overhead(self, job):
        model = MemoryModel(job, ParallelPlan.cb())
        with_lep = model.peak_report(lazy_error_propagation=True)
        without_lep = model.peak_report(lazy_error_propagation=False)
        extra = with_lep.overhead_over(without_lep)
        assert 0 <= extra < 0.05  # paper Fig. 12: ~1 %

    def test_first_stage_holds_most_activations(self, job):
        model = MemoryModel(job)
        first = model.stage_report(0)
        last = model.stage_report(job.num_stages - 1)
        assert first.activations > last.activations


class TestThroughputModel:
    def test_throughput_above_interconnect(self):
        model = CompressionThroughputModel(TrainingJob(model=GPT_8_3B))
        point = model.sweep([16])[0]
        assert point.compress_gbps > model.interconnect_gbps()
        assert point.decompress_gbps > point.compress_gbps

    def test_throughput_decreases_with_rank(self):
        """Paper Fig. 15: higher rank -> slower compression (orthogonalisation cost)."""
        model = CompressionThroughputModel(TrainingJob(model=GPT_8_3B))
        points = {p.rank: p.compress_gbps for p in model.sweep([4, 16, 64, 256])}
        assert points[4] > points[16] > points[64] > points[256]

    def test_larger_model_higher_throughput(self):
        small = CompressionThroughputModel(TrainingJob(model=GPT_8_3B))
        large = CompressionThroughputModel(TrainingJob(model=GPT_175B))
        assert large.compress_throughput_gbps(16) > small.compress_throughput_gbps(16)

    def test_measured_numpy_throughput_runs(self):
        point = measured_numpy_throughput(rows=128, cols=64, rank=4, repeats=1)
        assert point.compress_gbps > 0 and point.decompress_gbps > 0


class TestZeroBubbleTiming:
    """The zb1 schedule through the timing simulator: bubble accounting."""

    @staticmethod
    def _job(pp=4, dp=4, global_batch=512, schedule_kind="1f1b"):
        return TrainingJob(
            model=GPT_8_3B,
            layout=ParallelLayout(tensor_parallel=8, pipeline_parallel=pp, data_parallel=dp),
            global_batch_size=global_batch,
            num_model_chunks=1,
            schedule_kind=schedule_kind,
        )

    @pytest.mark.parametrize(
        "pp,dp,global_batch",
        [(2, 8, 512), (4, 4, 512), (8, 2, 512), (4, 4, 256)],
    )
    def test_zb1_bubble_strictly_below_1f1b(self, pp, dp, global_batch):
        """The acceptance claim: pp >= 2, micro_batches >= pp."""
        base = PipelineTimingSimulator(
            self._job(pp, dp, global_batch), ParallelPlan.baseline()
        ).run()
        zb1 = PipelineTimingSimulator(
            self._job(pp, dp, global_batch, schedule_kind="zb1"), ParallelPlan.baseline()
        ).run()
        assert zb1.schedule_kind == "zb1" and base.schedule_kind == "1f1b"
        assert zb1.bubble_fraction < base.bubble_fraction
        assert zb1.iteration_time < base.iteration_time
        assert zb1.pipeline_time < base.pipeline_time

    def test_zb1_helps_even_when_micro_batches_below_pp(self):
        base = PipelineTimingSimulator(self._job(8, 4, 64), ParallelPlan.baseline()).run()
        zb1 = PipelineTimingSimulator(
            self._job(8, 4, 64, schedule_kind="zb1"), ParallelPlan.baseline()
        ).run()
        assert zb1.bubble_fraction < base.bubble_fraction

    def test_single_stage_has_no_bubble_under_either_schedule(self):
        for kind in ("1f1b", "zb1"):
            job = TrainingJob(
                model=GPT_2_5B,
                layout=ParallelLayout(tensor_parallel=8, pipeline_parallel=1, data_parallel=4),
                num_model_chunks=1,
                schedule_kind=kind,
            )
            timing = PipelineTimingSimulator(job, ParallelPlan.baseline()).run()
            assert timing.bubble_fraction == pytest.approx(0.0, abs=1e-12)

    def test_split_backward_times_sum_to_the_fused_backward(self):
        from repro.simulator import CostModel

        cost = CostModel(self._job())
        for stage in range(4):
            b = cost.backward_input_time(stage)
            w = cost.backward_weight_time(stage)
            assert b > 0 and w > 0
            assert b + w == pytest.approx(cost.backward_time(stage), rel=1e-12)

    def test_zb1_rejects_interleaving(self):
        with pytest.raises(ValueError, match="num_model_chunks"):
            TrainingJob(model=GPT_8_3B, num_model_chunks=2, schedule_kind="zb1")

    def test_unknown_schedule_kind_rejected(self):
        with pytest.raises(ValueError, match="schedule kind"):
            TrainingJob(model=GPT_8_3B, num_model_chunks=1, schedule_kind="gpipe")

    def test_schedule_throughput_report(self):
        from repro.simulator import schedule_throughput

        points = {p.kind: p for p in schedule_throughput(self._job())}
        assert set(points) == {"1f1b", "zb1", "auto"}
        # The default sweep runs auto at the job's cap (1.0): never worse than zb1.
        assert points["auto"].memory_cap_factor == 1.0
        assert points["auto"].bubble_fraction <= points["zb1"].bubble_fraction + 1e-9
        assert points["zb1"].tokens_per_second > points["1f1b"].tokens_per_second
        assert points["zb1"].bubble_fraction < points["1f1b"].bubble_fraction
        assert points["zb1"].speedup_over(points["1f1b"]) > 0.0

    def test_zb1_compression_still_simulated(self):
        """CB/FE/SC compose with the zb1 schedule (epilogue sets from B ops)."""
        base = PipelineTimingSimulator(
            self._job(schedule_kind="zb1"), ParallelPlan.baseline()
        ).run()
        compressed = PipelineTimingSimulator(
            self._job(schedule_kind="zb1"), ParallelPlan.cb_fe_sc()
        ).run()
        assert compressed.iteration_time < base.iteration_time
        assert compressed.interstage_wire_bytes < base.interstage_wire_bytes


#: Every per-process memo under :func:`repro.simulator.evaluate.evaluate_plan`.
CLASS_MEMOS = (
    evaluate_module._class_job,
    job_cost_model,
    executor_module._stage_compute,
    executor_module._dp_terms,
    executor_module._transfer,
    replay_pipeline,
    build_job_schedule,
    memory_module._stage_memory_profiles,
    memory_module._peak_report,
)

MEMO_BASE_JOB = TrainingJob(
    model=GPT_2_5B,
    layout=ParallelLayout(tensor_parallel=2, pipeline_parallel=4, data_parallel=4),
    micro_batch_size=4,
    global_batch_size=128,
)
MEMO_PLAIN_JOB = dataclasses.replace(MEMO_BASE_JOB, num_model_chunks=1)
MEMO_AUTO_JOB = dataclasses.replace(MEMO_PLAIN_JOB, schedule_kind="auto", memory_cap_factor=1.0)

#: ``(field, job to start from, the field's other value)`` — one row per
#: :class:`TrainingJob` field, nested cluster parts included.
JOB_PERTURBATIONS = [
    ("model", MEMO_BASE_JOB, GPT_8_3B),
    ("layout", MEMO_BASE_JOB, ParallelLayout(tensor_parallel=4, pipeline_parallel=4, data_parallel=4)),
    ("cluster", MEMO_BASE_JOB, ClusterSpec(topology=ethernet_cluster())),
    ("cluster", MEMO_BASE_JOB, ClusterSpec(constants=SimulationConstants(compute_efficiency=0.3))),
    ("micro_batch_size", MEMO_BASE_JOB, 8),
    ("global_batch_size", MEMO_BASE_JOB, 256),
    ("sequence_length", MEMO_BASE_JOB, 512),
    ("num_model_chunks", MEMO_BASE_JOB, 1),
    ("dp_fire", MEMO_BASE_JOB, "micro_batch"),
    ("schedule_kind", MEMO_PLAIN_JOB, "zb1"),
    ("memory_cap_factor", MEMO_AUTO_JOB, 2.0),
]

MEMO_DP_SPEC = CompressionSpec(codec="powersgd", rank=8, stage_fraction=0.5)
MEMO_PP_SPEC = CompressionSpec(codec="powersgd", rank=16)

#: ``(boundary, field, spec to start from, other value, whether a number must move)``.
SPEC_PERTURBATIONS = [
    (Boundary.DP, "codec", MEMO_DP_SPEC, "qsgd", True),
    (Boundary.DP, "rank", MEMO_DP_SPEC, 16, True),
    (Boundary.DP, "bits", MEMO_DP_SPEC.with_(codec="qsgd"), 2, True),
    (Boundary.DP, "fraction", MEMO_DP_SPEC.with_(codec="topk"), 0.1, True),
    (Boundary.DP, "error_feedback", MEMO_DP_SPEC, False, False),
    (Boundary.DP, "stage_fraction", MEMO_DP_SPEC, 1.0, True),
    (Boundary.DP, "min_elements", MEMO_DP_SPEC, 1, False),
    (Boundary.DP, "bucket_bytes", MEMO_DP_SPEC, 1 << 20, False),
    (Boundary.DP, "epilogue_only", MEMO_DP_SPEC, False, False),
    (Boundary.PP, "codec", MEMO_PP_SPEC, "none", True),
    (Boundary.PP, "rank", MEMO_PP_SPEC, 4, True),
    (Boundary.PP, "bits", MEMO_PP_SPEC, 2, False),
    (Boundary.PP, "fraction", MEMO_PP_SPEC, 0.1, False),
    (Boundary.PP, "error_feedback", MEMO_PP_SPEC, False, True),
    (Boundary.PP, "stage_fraction", MEMO_PP_SPEC, 0.5, False),
    (Boundary.PP, "min_elements", MEMO_PP_SPEC, 1, False),
    (Boundary.PP, "bucket_bytes", MEMO_PP_SPEC, 1 << 20, False),
    (Boundary.PP, "epilogue_only", MEMO_PP_SPEC, False, True),
]


class TestClassMemos:
    """Every memoised term is a pure function of its key: no field a term reads is left out."""

    @staticmethod
    def clear():
        for memo in CLASS_MEMOS:
            memo.cache_clear()

    @staticmethod
    def observe(job, plan, toggles=None):
        """Every number the simulator reports for one (job, plan, toggles)."""
        memory = MemoryModel(job, plan)
        return {
            "timing": dataclasses.asdict(PipelineTimingSimulator(job, plan, toggles).run()),
            "evaluation": evaluate_job(job, plan).to_dict(),
            "peak": dataclasses.asdict(memory.peak_report()),
            "peak_non_lep": dataclasses.asdict(memory.peak_report(lazy_error_propagation=False)),
            "stages": [
                dataclasses.asdict(memory.stage_report(stage)) for stage in range(job.num_stages)
            ],
        }

    def memoised_and_fresh(self, base, perturbed):
        """Observe ``perturbed`` over memos warmed on ``base``, then over empty ones."""
        self.clear()
        before = self.observe(*base)
        memoised = self.observe(*perturbed)
        assert self.observe(*base) == before  # and the base is still served its own
        self.clear()
        fresh = self.observe(*perturbed)
        assert memoised == fresh
        return before, fresh

    @staticmethod
    def plan(dp=MEMO_DP_SPEC, pp=MEMO_PP_SPEC):
        return ParallelPlan(compression={Boundary.DP: dp, Boundary.PP: pp})

    def test_tables_name_every_field(self):
        assert {name for name, _, _ in JOB_PERTURBATIONS} == {
            spec_field.name for spec_field in dataclasses.fields(TrainingJob)
        }
        spec_fields = {spec_field.name for spec_field in dataclasses.fields(CompressionSpec)}
        for boundary in (Boundary.DP, Boundary.PP):
            assert {row[1] for row in SPEC_PERTURBATIONS if row[0] is boundary} == spec_fields

    @pytest.mark.parametrize(
        "name, base, value", JOB_PERTURBATIONS, ids=[row[0] for row in JOB_PERTURBATIONS]
    )
    def test_job_fields(self, name, base, value):
        assert getattr(base, name) != value
        plan = self.plan()
        before, fresh = self.memoised_and_fresh(
            (base, plan), (dataclasses.replace(base, **{name: value}), plan)
        )
        assert fresh != before

    @pytest.mark.parametrize(
        "boundary, name, base, value, moves",
        SPEC_PERTURBATIONS,
        ids=[f"{row[0].value}.{row[1]}" for row in SPEC_PERTURBATIONS],
    )
    @pytest.mark.parametrize("job", [MEMO_BASE_JOB, MEMO_AUTO_JOB], ids=["1f1b", "auto"])
    def test_spec_fields(self, job, boundary, name, base, value, moves):
        assert getattr(base, name) != value
        key = "dp" if boundary is Boundary.DP else "pp"
        before, fresh = self.memoised_and_fresh(
            (job, self.plan(**{key: base})), (job, self.plan(**{key: base.with_(**{name: value})}))
        )
        assert (fresh != before) == moves

    @pytest.mark.parametrize(
        "name", [spec_field.name for spec_field in dataclasses.fields(ComponentToggles)]
    )
    def test_toggle_fields(self, name):
        plan = self.plan()
        before, fresh = self.memoised_and_fresh(
            (MEMO_BASE_JOB, plan, ComponentToggles()),
            (MEMO_BASE_JOB, plan, ComponentToggles(**{name: 0.5})),
        )
        assert fresh["timing"] != before["timing"]

    def test_every_table_is_bounded(self):
        from repro.search import SearchQuery, run_search

        self.clear()
        outcome = run_search(
            SearchQuery(
                model="GPT-9.2B", gpus=128, dp_ranks=(8, 16, 32, 64, 128), embedding=("none",)
            ),
            workers=0,
        )
        assert outcome.evaluated == outcome.candidates > 2 * CLASS_MEMO_SIZE
        for memo in CLASS_MEMOS:
            info = memo.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize <= CLASS_MEMO_SIZE
        assert executor_module._dp_terms.cache_info().currsize == CLASS_MEMO_SIZE  # it overflowed

    def test_second_pass_of_the_flagship_query_adds_no_misses(self):
        """The tables hold one whole query: answering it again recomputes no class."""
        from repro.search import SearchQuery, run_search

        text = (REPO_ROOT / "benchmarks/e2e/queries/flagship.json").read_text(encoding="utf-8")
        query = SearchQuery.from_json(text)
        self.clear()
        first = run_search(query, workers=0)
        misses = [memo.cache_info().misses for memo in CLASS_MEMOS]
        assert all(misses) and max(misses) <= CLASS_MEMO_SIZE
        second = run_search(query, workers=0)
        assert [memo.cache_info().misses for memo in CLASS_MEMOS] == misses
        assert second.to_json() == first.to_json()


class TestReplayMemo:
    """The memoised pipeline replay is invisible: same bits hit or miss, any order."""

    @pytest.fixture(scope="class")
    def tasks(self):
        from repro.search import SearchQuery

        text = (REPO_ROOT / "examples/queries/gpt_2_5b_two_tier.json").read_text(encoding="utf-8")
        query = SearchQuery.from_json(text)
        return [candidate.task(query) for candidate in query.candidates()]

    def test_results_do_not_depend_on_order_process_or_memo_state(self, tasks):
        from repro.search import evaluate_task

        replay_pipeline.cache_clear()
        forward = [evaluate_task(task) for task in tasks]
        assert replay_pipeline.cache_info().hits > replay_pipeline.cache_info().misses > 0

        shuffled = list(range(len(tasks)))
        random.Random(20261002).shuffle(shuffled)
        for order in (range(len(tasks) - 1, -1, -1), shuffled):
            results = {index: evaluate_task(tasks[index]) for index in order}
            assert [results[index] for index in range(len(tasks))] == forward  # exact floats

        every_call_a_miss = []
        for task in tasks[::5]:
            replay_pipeline.cache_clear()
            build_job_schedule.cache_clear()
            every_call_a_miss.append(evaluate_task(task))
        assert every_call_a_miss == forward[::5]

        script = (
            "import json, sys; from repro.search import evaluate_task; "
            "json.dump([evaluate_task(task) for task in json.load(sys.stdin)], sys.stdout)"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(tasks),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
        assert json.loads(child.stdout) == forward  # repr round-trips floats exactly

    def test_table_stays_within_its_bound_across_a_batch_of_models(self):
        from repro.search import SearchQuery, run_queries

        replay_pipeline.cache_clear()
        queries = [
            SearchQuery(
                model=model, gpus=128, dp_codecs=("none",), embedding=("none",),
                schedules=("1f1b", "zb1"),
            )
            for model in ("GPT-8.3B", "GPT-9.2B", "GPT-18B")
        ]
        outcomes = run_queries(queries, workers=0)
        info = replay_pipeline.cache_info()
        # One distinct replay per candidate here: the batch overflows the table.
        assert info.misses == sum(outcome.candidates for outcome in outcomes) > REPLAY_MEMO_SIZE
        assert info.currsize == info.maxsize == REPLAY_MEMO_SIZE
        assert build_job_schedule.cache_info().currsize <= build_job_schedule.cache_info().maxsize

    def test_mutating_a_returned_timing_does_not_reach_the_next_call(self, job):
        simulator = PipelineTimingSimulator(job, ParallelPlan.cb_fe_sc())
        first = simulator.run()
        pristine = dataclasses.asdict(first)
        first.stage_backward_finish[0] = -1.0
        first.stage_finish.clear()
        first.dp_times.append(99.0)
        assert dataclasses.asdict(simulator.run()) == pristine
        assert dataclasses.asdict(
            PipelineTimingSimulator(job, ParallelPlan.cb_fe_sc()).run()
        ) == pristine

    def test_toggle_breakdowns_are_unchanged_to_the_bit(self):
        """Digest recorded at the commit before the replay was split out and memoised.

        Re-pinned once, when the forward-compression plan left ``plans``: the
        commit before computes the new digest over the remaining three.
        """
        jobs = [
            TrainingJob(model=GPT_2_5B),
            TrainingJob(
                model=GPT_8_3B, layout=ParallelLayout(8, 4, 4), num_model_chunks=1,
                schedule_kind="zb1",
            ),
            TrainingJob(
                model=GPT_2_5B, num_model_chunks=1, schedule_kind="auto",
                memory_cap_factor=2.0, dp_fire="micro_batch",
            ),
        ]
        plans = [
            ParallelPlan.baseline(),
            ParallelPlan.cb_fe_sc(),
            ParallelPlan.naive_cb(),
        ]

        def rows():
            collected = []
            for job in jobs:
                for plan in plans:
                    collected.append(dataclasses.asdict(compute_breakdown(job, plan)))
                    timing = PipelineTimingSimulator(job, plan).run(
                        resilience_overhead_s=0.01, respawns=0.001
                    )
                    collected.append(dataclasses.asdict(timing))
            return collected

        replay_pipeline.cache_clear()
        cold = rows()
        assert rows() == cold  # every replay now a hit
        digest = hashlib.sha256(json.dumps(cold, sort_keys=True).encode("ascii")).hexdigest()
        assert digest == "a9f4bbf01587468ea3e2354da62a7dfee872ccb0a8378a880f47b2f2497e440a"

    def test_evaluate_schedule_is_unchanged_to_the_bit(self):
        """The synthesizer's evaluator, pinned like the simulator's replay above.

        Digest recorded at the commit before the evaluator's own event loop
        became a fold over ``replay_ops``: makespan, bubble and (for ``auto``)
        the synthesized op lists over pp x mb x {1f1b, zb1, auto@1x, auto@2x}
        x two hand-off delays.
        """
        from repro.parallel.pipeline_schedule import build_1f1b_schedule, build_zb1_schedule
        from repro.parallel.scheduler import (
            StageCosts,
            SynthesisSpec,
            evaluate_schedule,
            synthesize_schedule,
        )

        rows = []
        for pp in (1, 2, 4, 8):
            for mb in (1, 4, 8, 16):
                costs = tuple(
                    StageCosts(1.0 + 0.125 * s, 2.0 - 0.0625 * s, 0.75 + 0.03125 * s)
                    for s in range(pp)
                )
                for delay in (0.0, 0.3):
                    for kind, cap in (("1f1b", 1.0), ("zb1", 1.0), ("auto", 1.0), ("auto", 2.0)):
                        spec = SynthesisSpec(
                            pp, mb, costs, transfer_delay=delay, memory_cap_factor=cap
                        )
                        if kind == "1f1b":
                            ops = build_1f1b_schedule(pp, mb)
                        elif kind == "zb1":
                            ops = build_zb1_schedule(pp, mb)
                        else:
                            ops = synthesize_schedule(spec).ops
                        makespan, bubble = evaluate_schedule(ops, spec)
                        listing = [[[op.kind, op.micro_batch] for op in stage] for stage in ops]
                        rows.append([pp, mb, delay, kind, cap, makespan, bubble, listing])
        digest = hashlib.sha256(json.dumps(rows).encode("ascii")).hexdigest()
        assert digest == "7fa2398fb5a4ae6d1674807c0cbc4ec5a32a766bddfa186802f31d03ffd3f1e4"

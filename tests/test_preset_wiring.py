"""What a plan preset wires into the engine, the trainer and the simulator."""

from __future__ import annotations

import pytest

from repro import Boundary, ParallelPlan, Topology
from repro.compression import PowerSGDCompressor, TopKCompressor
from repro.core.compressed_backprop import CompressedBackpropagation
from repro.core.selective_stage import SelectiveStageCompression
from repro.models import GPT_2_5B
from repro.nn.transformer import GPTModelConfig
from repro.parallel.engine import CODEC_SEED, ThreeDParallelEngine
from repro.simulator import PipelineTimingSimulator, TrainingJob, compute_breakdown
from repro.training.trainer import Pretrainer


class TestPresetDefaults:
    def test_baseline_has_nothing_enabled(self):
        plan = ParallelPlan.preset("baseline")
        assert not plan.compresses_anything
        assert plan.stack_label() == "Baseline"

    def test_paper_default_hyperparameters(self):
        plan = ParallelPlan.preset("cb_fe_sc")
        assert plan.spec(Boundary.PP).rank == 16
        assert plan.spec(Boundary.DP).rank == 128
        assert plan.spec(Boundary.DP).stage_fraction == 0.75


class TestEngineHookWiring:
    """The hooks an engine builds from each boundary's spec."""

    @pytest.fixture
    def build(self, tiny_config):
        def _build(plan: ParallelPlan, **kwargs) -> ThreeDParallelEngine:
            return ThreeDParallelEngine(tiny_config, plan.with_topology(dp=2, pp=2), **kwargs)

        return _build

    def test_baseline_produces_no_hooks(self, build):
        engine = build(ParallelPlan.preset("baseline"))
        assert engine.cb_hooks == [None, None]
        assert engine.dp_reduce.powersgd is None and engine.dp_reduce.compressor is None
        assert not engine.embedding_sync.fused

    def test_full_stack_produces_all_hooks(self):
        model = GPTModelConfig(
            vocab_size=32, max_sequence_length=12, num_layers=4, hidden_size=16, num_heads=2
        )
        # PP4: 75 % selects stages {0, 1, 2}.
        engine = ThreeDParallelEngine(model, ParallelPlan.preset("cb_fe_sc"))
        for hook, pipeline in zip(engine.cb_hooks, engine.pipeline_engines):
            assert isinstance(hook, CompressedBackpropagation)
            assert hook.epilogue_only and hook.lazy_error_propagation
            assert pipeline.channel.backward_hook is hook
        dp = engine.dp_reduce.powersgd
        assert isinstance(dp, SelectiveStageCompression)
        assert engine.dp_reduce.compressed_stages == {0, 1, 2}
        assert engine.embedding_sync.fused

    def test_non_lep_and_naive_flags_propagate(self, build):
        assert not build(ParallelPlan.preset("cb_non_lep")).cb_hooks[0].lazy_error_propagation
        assert not build(ParallelPlan.preset("naive_cb")).cb_hooks[0].epilogue_only

    def test_topk_backward_codec(self, build):
        hook = build(ParallelPlan.preset("optimus_topk")).cb_hooks[0]
        assert isinstance(hook.feedback.compressor, TopKCompressor)

    def test_embedding_synchroniser_respects_fusion_flag(self, build):
        assert build(ParallelPlan.preset("cb_fe")).embedding_sync.fused
        assert not build(ParallelPlan.preset("cb")).embedding_sync.fused

    def test_codec_seeds_do_not_follow_the_weight_seed(self, build):
        engine = build(ParallelPlan.preset("cb_fe_sc"), seed=5)
        compressor = engine.cb_hooks[0].feedback.compressor
        assert isinstance(compressor, PowerSGDCompressor)
        assert compressor.seed == engine.dp_reduce.powersgd.seed == CODEC_SEED

    def test_diagnostics_are_collected_on_replica_zero_only(self, build):
        engine = build(ParallelPlan.preset("cb"), collect_cb_diagnostics=True)
        assert [hook.collect_diagnostics for hook in engine.cb_hooks] == [True, False]


class TestPresetSimulation:
    @pytest.fixture(scope="class")
    def job(self) -> TrainingJob:
        return TrainingJob(model=GPT_2_5B)

    def test_simulate_and_speedup(self, job):
        baseline = PipelineTimingSimulator(job).run()
        timing = PipelineTimingSimulator(job, ParallelPlan.preset("cb_fe_sc")).run()
        assert timing.iteration_time > 0
        assert timing.speedup_over(baseline) > 0
        explicit = PipelineTimingSimulator(job, ParallelPlan.preset("baseline")).run()
        assert explicit.speedup_over(baseline) == pytest.approx(0.0)

    def test_training_days_projection(self, job):
        timing = PipelineTimingSimulator(job).run()
        assert timing.days_for(230_000) == pytest.approx(timing.iteration_time * 230_000 / 86400)

    def test_breakdown_shrinks_under_compression(self, job):
        assert compute_breakdown(job, ParallelPlan.preset("cb_fe_sc")).total < compute_breakdown(job).total

    def test_trainer_from_a_preset_is_wired(self, small_config, loader):
        plan = ParallelPlan.cb(Topology(dp=2, pp=2, micro_batches=2), rank=4)
        trainer = Pretrainer(small_config, loader, plan, learning_rate=1e-3)
        assert trainer.plan is trainer.engine.plan is plan
        assert trainer.engine.cb_hooks[0] is not None
        assert trainer.train_iteration() > 0

"""Tests for the Pretrainer, metrics, and the zero-shot evaluator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import LanguageModelingDataLoader, build_zero_shot_suite
from repro.nn.loss import perplexity_from_loss
from repro.plan import ParallelPlan
from repro.training import Pretrainer, TrainingHistory, ZeroShotEvaluator
from repro.training.metrics import ValidationPoint


def make_trainer(plan, loader, small_config, **kwargs):
    """A PP2 trainer running ``plan``'s compression on the loader's DP shape."""
    plan = plan.with_topology(
        pp=2, dp=loader.data_parallel_degree, micro_batches=loader.num_micro_batches
    )
    defaults = dict(learning_rate=2e-3, seed=3)
    defaults.update(kwargs)
    return Pretrainer(small_config, loader, plan, **defaults)


class TestTrainingHistory:
    def test_records_and_final_values(self):
        history = TrainingHistory()
        history.record_train(2.0)
        history.record_train(1.5)
        history.record_validation(2, 1.2)
        assert history.num_iterations == 2
        assert history.final_train_loss == 1.5
        assert history.final_validation_loss == 1.2
        assert history.final_validation_perplexity == pytest.approx(perplexity_from_loss(1.2))
        assert history.smoothed_train_loss(window=2) == pytest.approx(1.75)

    def test_curve_and_best(self):
        history = TrainingHistory()
        history.record_validation(10, 2.0)
        history.record_validation(20, 1.0)
        iterations, perplexities = history.perplexity_curve()
        assert iterations == [10, 20]
        assert history.best_validation_perplexity() == pytest.approx(perplexity_from_loss(1.0))

    def test_empty_history_raises(self):
        history = TrainingHistory()
        with pytest.raises(ValueError):
            _ = history.final_train_loss
        with pytest.raises(ValueError):
            _ = history.final_validation_loss

    def test_validation_point_perplexity(self):
        point = ValidationPoint(iteration=1, loss=np.log(8.0))
        assert point.perplexity == pytest.approx(8.0)


class TestPretrainer:
    def test_training_reduces_validation_loss(self, small_config, loader):
        trainer = make_trainer(ParallelPlan.baseline(), loader, small_config)
        before = trainer.validation_loss()
        result = trainer.train(num_iterations=12, validation_interval=6)
        assert result.history.num_iterations == 12
        assert result.final_validation_perplexity < perplexity_from_loss(before)

    def test_replicas_stay_in_sync(self, small_config, loader):
        trainer = make_trainer(ParallelPlan.baseline(), loader, small_config)
        trainer.train(num_iterations=3, validation_interval=3)
        assert trainer.weights_in_sync()

    def test_data_parallelism_matches_single_replica_with_same_data(self, small_config, corpus):
        """DP over two replicas equals one replica consuming both shards."""
        from repro.data.dataloader import LanguageModelingDataLoader

        dp_loader = LanguageModelingDataLoader(
            corpus, sequence_length=12, micro_batch_size=2, num_micro_batches=1, data_parallel_degree=2
        )
        dp_trainer = make_trainer(ParallelPlan.baseline(), dp_loader, small_config)
        dp_trainer.train_iteration()

        class MergedLoader(LanguageModelingDataLoader):
            """Presents the two replicas' micro-batches to a single replica."""

            def iteration_batches(self, iteration):
                replicated = dp_loader.iteration_batches(iteration)
                return [[micro for replica in replicated for micro in replica]]

        merged = MergedLoader(
            corpus, sequence_length=12, micro_batch_size=2, num_micro_batches=2, data_parallel_degree=1
        )
        single_trainer = make_trainer(ParallelPlan.baseline(), merged, small_config)
        single_trainer.train_iteration()

        dp_params = dp_trainer.engine.parameters()
        single_params = single_trainer.engine.parameters()
        for dp_param, single_param in zip(dp_params, single_params):
            assert np.allclose(dp_param.data, single_param.data, atol=1e-8)

    def test_cb_hooks_created_per_replica(self, small_config, loader):
        trainer = make_trainer(ParallelPlan.cb(rank=2), loader, small_config)
        assert all(hook is not None for hook in trainer.engine.cb_hooks)
        trainer.train(num_iterations=2, validation_interval=2)
        assert trainer.compression_summary["compressed_fraction"] > 0
        assert trainer.compression_summary["bytes_saved_fraction"] > 0

    def test_sc_hook_shared(self, small_config, loader):
        trainer = make_trainer(
            ParallelPlan.cb_fe_sc(cb_rank=2, dp_rank=2, stage_fraction=0.5), loader, small_config
        )
        trainer.train(num_iterations=2, validation_interval=2)
        assert trainer.engine.dp_reduce.powersgd is not None
        factors = [
            record
            for record in trainer.engine.log.records
            if record.category == "data_parallel" and record.compressed
        ]
        assert factors and all(record.payload_bytes > 0 for record in factors)
        assert trainer.weights_in_sync()

    def test_lr_schedule_applied(self, small_config, loader):
        from repro.optim import CosineWithWarmup

        schedule = CosineWithWarmup(max_lr=1e-2, warmup_iterations=2, total_iterations=10)
        trainer = make_trainer(
            ParallelPlan.baseline(), loader, small_config, lr_schedule=schedule
        )
        trainer.train_iteration()
        assert trainer.optimizer.lr == pytest.approx(schedule.lr_at(0))

    def test_communication_log_categories(self, small_config, loader):
        trainer = make_trainer(ParallelPlan.baseline(), loader, small_config)
        trainer.train_iteration()
        categories = trainer.engine.log.by_category()
        assert "inter_stage_forward" in categories
        assert "inter_stage_backward" in categories
        assert "data_parallel" in categories
        assert "embedding_dp" in categories  # unfused baseline path
        assert "embedding_sync" in categories

    def test_fused_embedding_removes_embedding_dp_traffic(self, small_config, loader):
        trainer = make_trainer(ParallelPlan.cb_fe(rank=2), loader, small_config)
        trainer.train_iteration()
        categories = trainer.engine.log.by_category()
        assert "embedding_dp" not in categories
        assert "embedding_sync" in categories

    def test_invalid_arguments_raise(self, small_config, loader):
        with pytest.raises(ValueError, match="data_parallel_degree"):
            Pretrainer(small_config, loader, ParallelPlan.baseline().with_topology(dp=3))
        trainer = make_trainer(ParallelPlan.baseline(), loader, small_config)
        with pytest.raises(ValueError):
            trainer.train(num_iterations=0)

    def test_zero_shot_evaluation_runs(self, small_config, loader, corpus):
        trainer = make_trainer(ParallelPlan.baseline(), loader, small_config)
        trainer.train(num_iterations=2, validation_interval=2)
        tasks = build_zero_shot_suite(corpus, examples_per_task=4)
        accuracies = trainer.evaluate_zero_shot(tasks)
        assert set(accuracies) == {task.name for task in tasks}
        assert all(0.0 <= value <= 1.0 for value in accuracies.values())


class TestZeroShotEvaluator:
    def test_reports_and_degradation(self, corpus):
        tasks = build_zero_shot_suite(corpus, examples_per_task=6)
        evaluator = ZeroShotEvaluator(tasks)
        rng = np.random.default_rng(0)

        def random_model(token_ids):
            return rng.normal(size=(*token_ids.shape, corpus.config.vocab_size))

        report = evaluator.evaluate(random_model)
        assert set(report.accuracies) == {task.name for task in tasks}
        assert 0.0 <= report.mean_accuracy <= 1.0
        degradation = report.degradation_from(report)
        assert all(value == pytest.approx(0.0) for value in degradation.values())

    def test_evaluate_many(self, corpus):
        tasks = build_zero_shot_suite(corpus, examples_per_task=4)
        evaluator = ZeroShotEvaluator(tasks)
        rng = np.random.default_rng(1)

        def model(token_ids):
            return rng.normal(size=(*token_ids.shape, corpus.config.vocab_size))

        reports = evaluator.evaluate_many({"a": model, "b": model})
        assert set(reports) == {"a", "b"}

    def test_chance_accuracies(self, corpus):
        tasks = build_zero_shot_suite(corpus, examples_per_task=4)
        chance = ZeroShotEvaluator(tasks).chance_accuracies()
        assert chance["synthetic-mathqa"] == pytest.approx(0.25)
        assert chance["synthetic-piqa"] == pytest.approx(0.5)

    def test_empty_tasks_raise(self):
        with pytest.raises(ValueError):
            ZeroShotEvaluator([])

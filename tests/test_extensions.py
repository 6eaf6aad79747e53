"""Tests for the extension features: the QSGD compressor, checkpointing, auto-tuning,
the accelerator discussion experiment, and the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import QSGDCompressor
from repro.core.autotune import SelectiveCompressionAutoTuner
from repro.experiments.discussion_accelerators import run_accelerator_comparison
from repro.models import GPT_2_5B, GPT_8_3B
from repro.plan import Boundary, ParallelPlan, Topology
from repro.simulator import TrainingJob
from repro.training.checkpoint import load_checkpoint, save_checkpoint
from repro.training.trainer import Pretrainer
from repro import cli

from compression_metrics import relative_error


class TestQSGD:
    def test_roundtrip_error_shrinks_with_bits(self, rng):
        tensor = rng.normal(size=(32, 32))
        errors = []
        for bits in (2, 4, 8):
            approx, _ = QSGDCompressor(bits=bits, deterministic=True).roundtrip(tensor)
            errors.append(relative_error(tensor, approx))
        assert errors[0] > errors[1] > errors[2]

    def test_unbiased_in_expectation(self, rng):
        tensor = rng.normal(size=(16, 16))
        compressor = QSGDCompressor(bits=2, seed=1)
        approximations = [compressor.roundtrip(tensor)[0] for _ in range(400)]
        mean_estimate = np.mean(approximations, axis=0)
        # The element-wise error of the averaged estimate shrinks well below one
        # quantisation step (stochastic rounding is unbiased).
        assert float(np.max(np.abs(mean_estimate - tensor))) < 0.12

    def test_payload_smaller_than_original(self, rng):
        payload = QSGDCompressor(bits=4).compress(rng.normal(size=1024))
        assert payload.payload_bytes < payload.original_bytes

    def test_zero_tensor(self):
        approx, _ = QSGDCompressor(bits=4).roundtrip(np.zeros((4, 4)))
        assert np.all(approx == 0)

    def test_invalid_bits_raise(self):
        with pytest.raises(ValueError):
            QSGDCompressor(bits=0)


#: The shared ``loader`` fixture's shape at pipeline depth 2.
PP2 = ParallelPlan.baseline(Topology(dp=2, pp=2, micro_batches=2))


class TestCheckpointing:
    def test_save_and_resume_reproduces_training(self, small_config, loader, tmp_path):
        trainer = Pretrainer(small_config, loader, PP2, learning_rate=2e-3, seed=3)
        trainer.train_iteration()
        trainer.train_iteration()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")

        # Reference: continue the original trainer.
        reference_loss = trainer.train_iteration()

        # Restore into a freshly constructed trainer and continue from the checkpoint.
        resumed = Pretrainer(small_config, loader, PP2, learning_rate=2e-3, seed=99)
        iteration = load_checkpoint(resumed, path)
        assert iteration == 2
        resumed_loss = resumed.train_iteration()
        assert resumed_loss == pytest.approx(reference_loss, rel=1e-9)

    def test_history_restored(self, small_config, loader, tmp_path):
        trainer = Pretrainer(small_config, loader, PP2, learning_rate=2e-3, seed=3)
        trainer.train(num_iterations=2, validation_interval=1)
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")
        other = Pretrainer(small_config, loader, PP2, learning_rate=2e-3, seed=4)
        load_checkpoint(other, path)
        assert other.history.train_losses == trainer.history.train_losses
        assert len(other.history.validation_points) == len(trainer.history.validation_points)

    def test_mismatched_trainer_rejected(self, small_config, loader, tmp_path):
        trainer = Pretrainer(small_config, loader, PP2, learning_rate=2e-3, seed=3)
        trainer.train_iteration()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")
        mismatched = Pretrainer(
            small_config, loader, PP2.with_topology(pp=1), learning_rate=2e-3, seed=3
        )
        # The pipeline/DP topology is validated before any weight is touched,
        # so the mismatch fails loudly up front.
        with pytest.raises(ValueError, match="topology"):
            load_checkpoint(mismatched, path)


class TestAutoTuner:
    @pytest.fixture(scope="class")
    def tuner(self) -> SelectiveCompressionAutoTuner:
        return SelectiveCompressionAutoTuner(
            TrainingJob(model=GPT_2_5B),
            stage_fractions=(0.0, 0.5, 1.0),
            dp_ranks=(64, 128),
        )

    def test_budget_zero_disables_compression(self, tuner):
        result = tuner.tune(budget=0.0)
        assert result.best.stage_fraction == 0.0
        assert result.best.dp_bytes_removed_fraction == 0.0

    def test_larger_budget_allows_more_speedup(self, tuner):
        tight = tuner.tune(budget=0.3)
        loose = tuner.tune(budget=1.0)
        assert loose.best.speedup >= tight.best.speedup
        assert tight.best.satisfies(0.3)

    def test_best_plan_reflects_choice(self, tuner):
        result = tuner.tune(budget=1.0)
        plan = result.best_plan()
        dp = plan.spec(Boundary.DP)
        assert (dp.codec, dp.stage_fraction, dp.rank) == (
            "powersgd",
            result.best.stage_fraction,
            result.best.dp_rank,
        )
        # The rest of the stack is the tuner's CB+FE base.
        assert plan.with_boundary(Boundary.DP, codec="none").stack_label() == "CB+FE"
        assert "auto-tuning" in result.render().lower()

    def test_quality_evaluator_breaks_ties(self, tuner):
        # A quality evaluator that prefers the least aggressive plan.
        def evaluator(plan: ParallelPlan) -> float:
            return plan.spec(Boundary.DP).stage_fraction

        result = tuner.tune(budget=1.0, quality_evaluator=evaluator, shortlist_size=3)
        shortlist_fractions = [c.stage_fraction for c in result.candidates if c.quality_score is not None]
        assert result.best.stage_fraction == min(shortlist_fractions)

    def test_invalid_budget_raises(self, tuner):
        with pytest.raises(ValueError):
            tuner.tune(budget=1.5)


class TestAcceleratorDiscussion:
    def test_higher_compute_to_bandwidth_ratio_gives_more_speedup(self):
        result = run_accelerator_comparison(model=GPT_8_3B)
        speedups = result.speedups_ordered_by_ratio()
        assert len(speedups) == 3
        # The platform with the highest compute/bandwidth ratio (IPU-like) benefits
        # the most; the GPU baseline the least (Section 10.1's claim).
        assert speedups[-1] > speedups[0]
        assert "Section 10.1" in result.render()


class TestCLI:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        output = capsys.readouterr().out
        assert "GPT-8.3B" in output and "cb_fe_sc" in output and "table2" in output

    def test_simulate_single_config(self, capsys):
        assert cli.main(["simulate", "--model", "GPT-2.5B", "--config", "cb_fe_sc"]) == 0
        output = capsys.readouterr().out
        assert "GPT-2.5B" in output and "cb_fe_sc" in output

    def test_breakdown(self, capsys):
        assert cli.main(["breakdown", "--model", "GPT-2.5B", "--config", "baseline"]) == 0
        output = capsys.readouterr().out
        assert "DP Comm." in output and "Total" in output

    def test_autotune(self, capsys):
        assert cli.main(["autotune", "--model", "GPT-2.5B", "--budget", "0.5"]) == 0
        output = capsys.readouterr().out
        assert "Best operating point" in output

    def test_reproduce_simulator_artefact(self, capsys):
        assert cli.main(["reproduce", "fig12"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 12" in output

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["simulate", "--model", "GPT-1T", "--config", "cb"])

    def test_unknown_artefact_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["reproduce", "fig99"])

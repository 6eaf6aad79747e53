"""Tests for the experiment drivers (fast paths).

The simulator-backed drivers run at full paper scale (they are cheap); the
functional drivers are exercised with a miniature settings object so the whole file
stays fast — the benchmark harness runs them at the proper fast/thorough scales.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import cli
from repro.data import SyntheticCorpusConfig
from repro.experiments.fidelity_ledger import run_ledger
from repro.experiments.fig03_motivation import simulate_fig03
from repro.experiments.fig10_breakdown import run_fig10
from repro.experiments.fig11_error_independence import run_fig11
from repro.experiments.fig12_memory import run_fig12
from repro.experiments.fig14_config_sensitivity import run_fig14
from repro.experiments.fig15_throughput import run_fig15
from repro.experiments.fig16_scalability import run_fig16
from repro.experiments.quality import (
    clear_quality_cache,
    paper_variant_configurations,
    run_quality_experiment,
    run_quality_suite,
)
from repro.experiments.settings import (
    FunctionalSettings,
    fast_functional_settings,
    paper_job,
    thorough_functional_settings,
)
from repro.experiments.table2_pretraining import simulate_table2
from repro.models import GPT_2_5B, GPT_8_3B
from repro.models.gpt_configs import functional_config
from repro.plan import ParallelPlan


REPO = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def mini_settings() -> FunctionalSettings:
    """Miniature functional settings so experiment drivers run in a few seconds."""
    return FunctionalSettings(
        model=functional_config(
            # max sequence length 20 so the zero-shot contexts (16 tokens) fit even
            # though training itself uses 12-token sequences.
            vocab_size=64, sequence_length=20, num_layers=2, hidden_size=16, num_heads=2
        ),
        corpus_config=SyntheticCorpusConfig(vocab_size=64, seed=5),
        num_stages=2,
        data_parallel_degree=2,
        sequence_length=12,
        micro_batch_size=2,
        num_micro_batches=2,
        num_iterations=6,
        validation_interval=3,
        validation_batches=1,
        zero_shot_examples=6,
        cb_rank=2,
        dp_rank=2,
    )


class TestSettings:
    def test_fast_and_thorough_presets_are_consistent(self):
        fast = fast_functional_settings()
        thorough = thorough_functional_settings()
        assert thorough.num_iterations > fast.num_iterations
        assert fast.model.vocab_size == fast.corpus_config.vocab_size
        assert thorough.model.vocab_size == thorough.corpus_config.vocab_size

    def test_paper_job_defaults(self):
        job = paper_job(GPT_8_3B)
        assert job.layout.describe() == "TP8/DP4/PP4"
        assert job.num_micro_batches == 16
        assert job.num_model_chunks == 2

    def test_settings_with_and_cache_key(self):
        settings = fast_functional_settings()
        modified = settings.with_(num_iterations=10)
        assert modified.num_iterations == 10
        assert settings.cache_key() != modified.cache_key()
        assert settings.cache_key() == fast_functional_settings().cache_key()

    def test_loader_construction(self, mini_settings):
        loader = mini_settings.build_loader()
        assert loader.data_parallel_degree == 2
        assert loader.mini_batch_size == 2 * 2 * 2


class TestQualityDriver:
    def test_run_and_cache(self, mini_settings):
        clear_quality_cache()
        first = run_quality_experiment("Baseline", ParallelPlan.baseline(), mini_settings)
        assert first.final_validation_perplexity > 1.0
        assert len(first.zero_shot_accuracy) == 5
        # Cached second call returns identical numbers (and is fast).
        second = run_quality_experiment("Baseline-again", ParallelPlan.baseline(), mini_settings)
        assert second.final_validation_perplexity == first.final_validation_perplexity
        assert second.label == "Baseline-again"

    def test_suite_covers_paper_variants(self, mini_settings):
        results = run_quality_suite(
            paper_variant_configurations(), mini_settings, evaluate_zero_shot=False
        )
        assert set(results) == {"Baseline", "CB", "CB+FE", "CB+FE+SC"}
        # FE is mathematically exact, so CB and CB+FE produce the same perplexity up
        # to floating-point summation order.
        assert results["CB"].final_validation_perplexity == pytest.approx(
            results["CB+FE"].final_validation_perplexity, rel=1e-3
        )

    def test_fig11_driver_records_diagnostics(self, mini_settings):
        result = run_fig11(settings=mini_settings)
        assert result.num_observations > 0
        assert result.max_abs_cosine <= 1.0
        assert "Fig. 11" in result.render()


class TestSimulatorDrivers:
    def test_fig10(self):
        result = run_fig10(models=[GPT_2_5B])
        assert result.communication_reduction("GPT-2.5B") > 0.3
        assert "Fig. 10" in result.render()

    def test_fig12(self):
        result = run_fig12(models=[GPT_8_3B])
        assert 0.0 < result.row("GPT-8.3B", "CB (LEP)").overhead_over_baseline < 0.2
        assert result.lep_overhead("GPT-8.3B") > 0.0
        assert "Fig. 12" in result.render()

    def test_fig14(self):
        result = run_fig14()
        gains = result.cb_gain_by_depth()
        assert gains[16] > gains[4]
        assert "Fig. 14" in result.render()

    def test_fig15(self):
        result = run_fig15(include_measured_point=False)
        assert result.measured_cpu_point is None
        assert result.min_compress_gbps("GPT-175B") > 0
        assert "Fig. 15" in result.render()

    def test_fig16(self):
        result = run_fig16()
        assert len(result.points) == 4
        assert all(speedup > 0 for speedup in result.full_stack_speedups())
        assert "Fig. 16" in result.render()


class TestFidelityLedger:
    def test_reproduce_ledger_writes_the_committed_files(self, monkeypatch, tmp_path, capsys):
        """From the simulator alone; ``benchmarks/test_fidelity_ledger.py`` pins the verdicts."""
        monkeypatch.chdir(tmp_path)
        assert cli.main(["reproduce", "ledger"]) == 0
        assert "trend reversed" in capsys.readouterr().out
        for name in ("FIDELITY.txt", "FIDELITY.json"):
            written = (tmp_path / "benchmarks" / "results" / name).read_bytes()
            assert written == (REPO / "benchmarks" / "results" / name).read_bytes()

    def test_table2_and_the_ledger_share_one_simulation(self):
        ledger = {row.row: row.reproduced for row in run_ledger().rows}
        for model, label, days, speedup in simulate_table2():
            assert ledger[f"Table 2 days {model} {label}"] == days
            if label != "Baseline":
                assert ledger[f"Table 2 speedup {model} {label}"] == 100.0 * speedup

    def test_fig03_and_fig14_rows_read_their_simulations(self):
        ledger = {row.row: row for row in run_ledger().rows}
        days = {label: bar_days for label, bar_days, _ in simulate_fig03()}
        topk = ledger["Fig. 3 days Opt-CC (TopK) - Opt-CC"]
        assert topk.reproduced == days["Opt-CC (TopK)"] - days["Opt-CC"]
        assert topk.paper is None and topk.gap is None
        for row in run_fig14().rows:
            if row.label == "CB+FE+SC":
                floor = ledger[f"Fig. 14 speedup {row.layout_label} CB+FE+SC, at least"]
                assert (floor.reproduced, floor.paper) == (100.0 * row.speedup, 19.2)

    def test_fig14_depth_trend_rows_read_the_cb_and_sc_gains(self):
        ledger = {row.row: row for row in run_ledger().rows}
        fig14 = run_fig14()
        cb, sc = fig14.cb_gain_by_depth(), fig14.sc_gain_by_depth()
        expected = {
            "Fig. 14 CB gain PP8 > PP4": cb[8] - cb[4],
            "Fig. 14 CB gain PP16 > PP8": cb[16] - cb[8],
            "Fig. 14 SC gain PP4 > PP8": sc[4] - sc[8],
            "Fig. 14 SC gain PP8 > PP16": sc[8] - sc[16],
        }
        for name, difference in expected.items():
            row = ledger[name]
            assert (row.unit, row.paper, row.gap) == ("points", None, None)
            assert row.reproduced == 100.0 * difference
            assert row.verdict == ("direction ok" if difference > 0 else "trend reversed")

    def test_ordering_rows_render_in_their_unit(self):
        ledger = run_ledger()
        lines = {line.split("|")[0].strip(): line for line in ledger.render().splitlines()}
        orderings = [row for row in ledger.rows if row.paper is None]
        assert {row.unit for row in orderings} == {"days", "points"}
        for row in orderings:
            suffix = "d" if row.unit == "days" else "pt"
            cells = [cell.strip() for cell in lines[row.row].split("|")]
            assert cells[1:] == [f"{row.reproduced:+.2f} {suffix}", "> 0", "n/a", row.verdict]


class TestScheduleComparison:
    def test_driver_reports_zb1_wins_and_exact_parity(self):
        from repro.experiments.schedule_compare import run_schedule_comparison

        result = run_schedule_comparison(layouts=((2, 2), (4, 2)))
        for (pp, _dp), points in result.sweeps.items():
            assert points["zb1"].bubble_fraction < points["1f1b"].bubble_fraction, pp
            assert points["zb1"].iteration_time_s < points["1f1b"].iteration_time_s
        # The schedules must be numerically identical.
        assert result.functional_weight_delta == 0.0
        rendered = result.render()
        assert "zb1" in rendered and "bit-identical" in rendered

"""Fig. 3 — motivational study.

The paper's Fig. 3 shows, for GPT-2.5B trained for 125K iterations on 128 GPUs:

* the execution-time breakdown of the baseline (FWD / BWD / DP Comm. / Inter-stage
  Comm. / EMB Comm.), demonstrating that inter-node communication is a significant
  cost even on a 200 Gb/s fabric;
* total training time and validation perplexity for: Baseline, naive DP compression,
  naive compressed backpropagation, Optimus-CC, and Optimus-CC with top-k instead of
  low-rank compression — showing that naive compression saves time but destroys
  model quality, while Optimus-CC saves time *and* preserves quality.

This driver reproduces both halves: times come from the performance simulator on the
real GPT-2.5B configuration; perplexities come from paired functional training runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.quality import run_quality_suite
from repro.experiments.settings import (
    MOTIVATION_ITERATIONS,
    FunctionalSettings,
    fast_functional_settings,
    paper_job,
    simulate_configurations,
)
from repro.models.gpt_configs import GPT_2_5B
from repro.plan import ParallelPlan
from repro.simulator.breakdown import compute_breakdown
from repro.simulator.cost_model import TrainingJob
from repro.utils.tables import Table, format_float


@dataclass
class MotivationRow:
    """One bar of Fig. 3."""

    label: str
    training_days: float
    speedup_over_baseline: float
    validation_perplexity: float
    perplexity_increase: float


@dataclass
class MotivationResult:
    """Breakdown of the baseline plus one row per configuration."""

    baseline_breakdown: dict[str, float]
    communication_fraction: float
    rows: list[MotivationRow] = field(default_factory=list)

    def render(self) -> str:
        breakdown_table = Table(
            title="Fig. 3 (left): baseline execution-time breakdown, GPT-2.5B, 128 GPUs",
            columns=["Component", "Seconds/iteration", "Share"],
        )
        total = sum(self.baseline_breakdown.values())
        for component, seconds in self.baseline_breakdown.items():
            share = seconds / total if total else 0.0
            breakdown_table.add_row([component, format_float(seconds, 3), f"{share:.1%}"])

        bars_table = Table(
            title=(
                f"Fig. 3 (right): {MOTIVATION_ITERATIONS // 1000}K-iteration training time and "
                "validation perplexity"
            ),
            columns=["Configuration", "Days", "Speedup", "Val. PPL", "PPL increase"],
        )
        for row in self.rows:
            bars_table.add_row(
                [
                    row.label,
                    format_float(row.training_days, 2),
                    f"{row.speedup_over_baseline:+.2%}",
                    format_float(row.validation_perplexity, 2),
                    f"{row.perplexity_increase:+.2f}",
                ]
            )
        footer = (
            f"Exposed inter-node communication is {self.communication_fraction:.0%} of the baseline "
            "iteration (paper: a significant portion even on InfiniBand HDR)."
        )
        return "\n\n".join([breakdown_table.render(), bars_table.render(), footer])


#: The Fig. 3 configurations, in the paper's order.
MOTIVATION_CONFIGURATIONS: dict[str, ParallelPlan] = {
    "Baseline": ParallelPlan.baseline(),
    "naive DP": ParallelPlan.naive_dp(),
    "naive CB": ParallelPlan.naive_cb(),
    "Opt-CC": ParallelPlan.cb_fe_sc(),
    "Opt-CC (TopK)": ParallelPlan.optimus_topk(),
}


def simulate_fig03(
    job: TrainingJob | None = None, num_iterations: int = MOTIVATION_ITERATIONS
) -> list[tuple[str, float, float]]:
    """``(configuration, training days, speedup over the baseline)`` per Fig. 3 bar, simulated."""
    job = job if job is not None else paper_job(GPT_2_5B)
    return [
        (label, timing.days_for(num_iterations), speedup)
        for label, timing, speedup in simulate_configurations(job, MOTIVATION_CONFIGURATIONS)
    ]


def run_fig03(
    settings: FunctionalSettings | None = None,
    job: TrainingJob | None = None,
    num_iterations: int = MOTIVATION_ITERATIONS,
) -> MotivationResult:
    """Reproduce Fig. 3: breakdown, training times, and perplexities."""
    settings = settings if settings is not None else fast_functional_settings()
    job = job if job is not None else paper_job(GPT_2_5B)

    breakdown = compute_breakdown(job)
    quality = run_quality_suite(MOTIVATION_CONFIGURATIONS, settings)
    baseline_quality = quality["Baseline"]
    rows = [
        MotivationRow(
            label=label,
            training_days=days,
            speedup_over_baseline=speedup,
            validation_perplexity=quality[label].final_validation_perplexity,
            perplexity_increase=quality[label].perplexity_increase_over(baseline_quality),
        )
        for label, days, speedup in simulate_fig03(job, num_iterations)
    ]

    components = breakdown.as_dict()
    components.pop("Compression", None)
    components.pop("Bubble/Overlap", None)
    return MotivationResult(
        baseline_breakdown=components,
        communication_fraction=breakdown.communication_fraction(),
        rows=rows,
    )

"""Fig. 12 — peak memory overhead of compressed backpropagation and LEP.

The paper reports the per-GPU peak memory of compressed backpropagation: the
PowerSGD low-rank buffers add 5–10 % over the baseline, and the lazy-error residuals
add only about another 1 %.  The reproduction uses the analytic memory model on the
paper-scale configurations and additionally reports the residual bytes actually held
by the functional trainer as a sanity check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.engine_traffic import EngineTrafficSample, measure_engine_traffic
from repro.experiments.settings import paper_job
from repro.models.gpt_configs import GPT_2_5B, GPT_8_3B, PaperModelSpec
from repro.plan import ParallelPlan
from repro.simulator.memory_model import MemoryModel, MemoryReport
from repro.utils.tables import Table, format_float


@dataclass
class MemoryRow:
    """Peak memory of one model under one configuration."""

    model: str
    label: str
    report: MemoryReport
    overhead_over_baseline: float


@dataclass
class Fig12Result:
    rows: list[MemoryRow] = field(default_factory=list)
    #: Residual memory actually held by the unified engine's error-feedback state
    #: (CB lazy-error residuals + DP residuals) on the functional proxy, as a
    #: sanity check of the analytic model's LEP-overhead story.
    engine_residual_samples: list[EngineTrafficSample] = field(default_factory=list)

    def row(self, model: str, label: str) -> MemoryRow:
        for row in self.rows:
            if row.model == model and row.label == label:
                return row
        raise KeyError(f"no memory row for ({model}, {label})")

    def lep_overhead(self, model: str) -> float:
        """Extra memory of CB+LEP over CB without LEP (paper: ~1 %)."""
        with_lep = self.row(model, "CB (LEP)").report.total
        without = self.row(model, "CB (Non-LEP)").report.total
        return with_lep / without - 1.0

    def engine_residual_bytes(self, label: str) -> int:
        """Measured residual bytes of one functional engine configuration."""
        for sample in self.engine_residual_samples:
            if sample.label == label:
                return sample.residual_memory_bytes
        raise KeyError(f"no engine residual sample labelled {label!r}")

    def render(self) -> str:
        table = Table(
            title="Fig. 12: peak memory per GPU (analytic model)",
            columns=["Model", "Config", "Peak GB", "Params+Opt GB", "Activations GB",
                     "Compression GB", "LEP residual GB", "Overhead vs baseline"],
        )
        for row in self.rows:
            report = row.report
            table.add_row(
                [
                    row.model,
                    row.label,
                    format_float(report.total_gb, 2),
                    format_float(report.parameters_and_optimizer / 1e9, 2),
                    format_float(report.activations / 1e9, 2),
                    format_float(report.compression_buffers / 1e9, 3),
                    format_float(report.lazy_error_buffers / 1e9, 3),
                    f"{row.overhead_over_baseline:+.2%}",
                ]
            )
        rendered = table.render()
        if self.engine_residual_samples:
            lines = [
                f"  {sample.label}: {sample.residual_memory_bytes} bytes of error-feedback residuals"
                for sample in self.engine_residual_samples
            ]
            rendered += (
                "\nMeasured on the unified engine (functional proxy):\n" + "\n".join(lines)
            )
        return rendered


def run_fig12(
    models: list[PaperModelSpec] | None = None, include_engine_residuals: bool = True
) -> Fig12Result:
    """Reproduce Fig. 12: baseline vs CB without LEP vs CB with LEP."""
    models = models if models is not None else [GPT_2_5B, GPT_8_3B]
    result = Fig12Result()
    if include_engine_residuals:
        residual_plans = {
            "Baseline": ParallelPlan.baseline(),
            "CB (Non-LEP)": ParallelPlan.cb_non_lep(),
            "CB (LEP)": ParallelPlan.cb(),
            "CB+FE+SC": ParallelPlan.cb_fe_sc(),
        }
        result.engine_residual_samples = [
            measure_engine_traffic(label, plan=plan.proxy_scaled())
            for label, plan in residual_plans.items()
        ]
    for model in models:
        job = paper_job(model)
        baseline_report = MemoryModel(job).peak_report()
        cb_model = MemoryModel(job, ParallelPlan.cb())
        variants = [
            ("Baseline", baseline_report),
            ("CB (Non-LEP)", cb_model.peak_report(lazy_error_propagation=False)),
            ("CB (LEP)", cb_model.peak_report(lazy_error_propagation=True)),
        ]
        for label, report in variants:
            result.rows.append(
                MemoryRow(
                    model=model.name,
                    label=label,
                    report=report,
                    overhead_over_baseline=report.overhead_over(baseline_report),
                )
            )
    return result

"""Table 2 — pretraining time, speedup, and validation perplexity.

The paper trains GPT-8.3B and GPT-2.5B for 230K iterations under Baseline / CB /
CB+FE / CB+FE+SC and reports wall-clock days, relative speedup, and final validation
perplexity.  Here, the wall-clock side is produced by the performance simulator on
the real model specifications, and the perplexity side by paired functional training
runs (the same proxy model for both GPT sizes, since quality effects depend on the
compression algebra rather than the parameter count — see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.quality import paper_variant_configurations, run_quality_suite
from repro.experiments.settings import (
    PAPER_TOTAL_ITERATIONS,
    FunctionalSettings,
    fast_functional_settings,
    paper_job,
    simulate_configurations,
)
from repro.models.gpt_configs import GPT_2_5B, GPT_8_3B, PaperModelSpec
from repro.utils.tables import Table, format_float


@dataclass
class PretrainingCell:
    """One (model, configuration) cell of Table 2."""

    model: str
    label: str
    training_days: float
    speedup: float
    validation_perplexity: float


@dataclass
class Table2Result:
    """All cells of Table 2 plus the paper's reference values."""

    cells: list[PretrainingCell] = field(default_factory=list)

    #: Paper-reported values for side-by-side comparison in reports.
    PAPER_DAYS = {
        ("GPT-8.3B", "Baseline"): 37.27,
        ("GPT-8.3B", "CB"): 34.83,
        ("GPT-8.3B", "CB+FE"): 32.84,
        ("GPT-8.3B", "CB+FE+SC"): 25.72,
        ("GPT-2.5B", "Baseline"): 14.72,
        ("GPT-2.5B", "CB"): 13.63,
        ("GPT-2.5B", "CB+FE"): 12.79,
        ("GPT-2.5B", "CB+FE+SC"): 12.55,
    }
    PAPER_SPEEDUP = {
        ("GPT-8.3B", "CB"): 0.0701,
        ("GPT-8.3B", "CB+FE"): 0.1349,
        ("GPT-8.3B", "CB+FE+SC"): 0.4491,
        ("GPT-2.5B", "CB"): 0.0800,
        ("GPT-2.5B", "CB+FE"): 0.1509,
        ("GPT-2.5B", "CB+FE+SC"): 0.1729,
    }

    def cell(self, model: str, label: str) -> PretrainingCell:
        for cell in self.cells:
            if cell.model == model and cell.label == label:
                return cell
        raise KeyError(f"no cell for ({model}, {label})")

    def render(self) -> str:
        table = Table(
            title=f"Table 2: pretraining ({PAPER_TOTAL_ITERATIONS // 1000}K iterations) on 128 GPUs",
            columns=[
                "Model",
                "Configuration",
                "Days (sim)",
                "Speedup (sim)",
                "Speedup (paper)",
                "Val. PPL (functional)",
            ],
        )
        for cell in self.cells:
            paper_speedup = self.PAPER_SPEEDUP.get((cell.model, cell.label))
            table.add_row(
                [
                    cell.model,
                    cell.label,
                    format_float(cell.training_days, 2),
                    f"{cell.speedup:+.2%}",
                    "-" if paper_speedup is None else f"{paper_speedup:+.2%}",
                    format_float(cell.validation_perplexity, 2),
                ]
            )
        return table.render()


def simulate_table2(
    models: list[PaperModelSpec] | None = None,
    num_iterations: int = PAPER_TOTAL_ITERATIONS,
) -> list[tuple[str, str, float, float]]:
    """Table 2's wall-clock side, from the simulator alone (no training).

    ``(model, configuration, training days, speedup over the model's
    baseline)`` per cell, GPT-8.3B's then GPT-2.5B's by default.
    """
    models = models if models is not None else [GPT_8_3B, GPT_2_5B]
    return [
        (model.name, label, timing.days_for(num_iterations), speedup)
        for model in models
        for label, timing, speedup in simulate_configurations(
            paper_job(model), paper_variant_configurations()
        )
    ]


def run_table2(
    settings: FunctionalSettings | None = None,
    models: list[PaperModelSpec] | None = None,
    num_iterations: int = PAPER_TOTAL_ITERATIONS,
) -> Table2Result:
    """Reproduce Table 2 for the given models (default: GPT-8.3B and GPT-2.5B)."""
    settings = settings if settings is not None else fast_functional_settings()
    quality = run_quality_suite(paper_variant_configurations(), settings)
    return Table2Result(
        cells=[
            PretrainingCell(
                model=model,
                label=label,
                training_days=days,
                speedup=speedup,
                validation_perplexity=quality[label].final_validation_perplexity,
            )
            for model, label, days, speedup in simulate_table2(models, num_iterations)
        ]
    )

"""Fig. 14 — sensitivity to the tensor/pipeline-parallel configuration.

With the data-parallel degree fixed at 4 and 128 GPUs, the paper trains a GPT-9.2B
(80-layer) model under (TP, PP) ∈ {(8, 4), (4, 8), (2, 16)} and reports the training
time of Baseline / CB / CB+FE / CB+FE+SC for each.  The observed trends: Optimus-CC
speeds up every configuration (≥19.2 % in the paper); CB matters more as the
pipeline gets deeper (more inter-stage traffic); SC matters more as the pipeline
gets shallower (more parameters per stage → more data-parallel traffic on the
critical path).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.settings import PAPER_TOTAL_ITERATIONS, paper_job, simulate_configurations
from repro.models.gpt_configs import GPT_9_2B, PaperModelSpec
from repro.parallel.process_groups import ParallelLayout
from repro.plan import ParallelPlan
from repro.utils.tables import Table, format_float


@dataclass
class ConfigSensitivityRow:
    """One (parallel configuration, Optimus-CC configuration) measurement."""

    tensor_parallel: int
    pipeline_parallel: int
    label: str
    iteration_time: float
    speedup: float

    @property
    def layout_label(self) -> str:
        return f"TP{self.tensor_parallel}/PP{self.pipeline_parallel}"


@dataclass
class Fig14Result:
    rows: list[ConfigSensitivityRow] = field(default_factory=list)

    def speedup(self, tp: int, pp: int, label: str) -> float:
        for row in self.rows:
            if row.tensor_parallel == tp and row.pipeline_parallel == pp and row.label == label:
                return row.speedup
        raise KeyError(f"no row for TP{tp}/PP{pp} {label}")

    def cb_gain_by_depth(self) -> dict[int, float]:
        """Pipeline depth -> CB speedup (should increase with depth)."""
        return {
            row.pipeline_parallel: row.speedup for row in self.rows if row.label == "CB"
        }

    def sc_gain_by_depth(self) -> dict[int, float]:
        """Pipeline depth -> additional speedup from SC on top of CB+FE."""
        gains = {}
        for row in self.rows:
            if row.label == "CB+FE+SC":
                base = self.speedup(row.tensor_parallel, row.pipeline_parallel, "CB+FE")
                gains[row.pipeline_parallel] = row.speedup - base
        return gains

    def render(self) -> str:
        table = Table(
            title="Fig. 14: TP/PP configuration sensitivity, GPT-9.2B, DP=4, 128 GPUs",
            columns=["Layout", "Config", "Iteration (s)", f"Days/{PAPER_TOTAL_ITERATIONS // 1000}K", "Speedup"],
        )
        for row in self.rows:
            table.add_row(
                [
                    row.layout_label,
                    row.label,
                    format_float(row.iteration_time, 2),
                    format_float(row.iteration_time * PAPER_TOTAL_ITERATIONS / 86400, 1),
                    f"{row.speedup:+.2%}",
                ]
            )
        return table.render()


#: The paper's floor: Optimus-CC (CB+FE+SC) speeds up every layout by at least this.
PAPER_MIN_SPEEDUP = 0.192

#: The paper's three layouts (DP fixed at 4, 128 GPUs).
FIG14_LAYOUTS = (
    ParallelLayout(tensor_parallel=8, pipeline_parallel=4, data_parallel=4),
    ParallelLayout(tensor_parallel=4, pipeline_parallel=8, data_parallel=4),
    ParallelLayout(tensor_parallel=2, pipeline_parallel=16, data_parallel=4),
)

FIG14_CONFIGURATIONS: dict[str, ParallelPlan] = {
    "Baseline": ParallelPlan.baseline(),
    "CB": ParallelPlan.cb(),
    "CB+FE": ParallelPlan.cb_fe(),
    "CB+FE+SC": ParallelPlan.cb_fe_sc(),
}


def run_fig14(
    model: PaperModelSpec = GPT_9_2B, layouts: tuple[ParallelLayout, ...] = FIG14_LAYOUTS
) -> Fig14Result:
    """Reproduce Fig. 14 across the three parallel layouts."""
    result = Fig14Result()
    for layout in layouts:
        job = paper_job(model, layout=layout)
        for label, timing, speedup in simulate_configurations(job, FIG14_CONFIGURATIONS):
            result.rows.append(
                ConfigSensitivityRow(
                    tensor_parallel=layout.tensor_parallel,
                    pipeline_parallel=layout.pipeline_parallel,
                    label=label,
                    iteration_time=timing.iteration_time,
                    speedup=speedup,
                )
            )
    return result

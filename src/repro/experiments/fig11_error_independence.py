"""Fig. 11 — empirical validation of the lazy-error-propagation condition (Eq. 14).

The paper shows, over training, that (a) the mean of the compression error stays
near zero, (b) the mean of the difference between consecutive micro-batches'
activations stays near zero, and (c) the cosine similarity between the two stays
around zero — the independence condition under which the lazily-propagated error
does not bias the mini-batch gradient.  The reproduction trains the functional proxy
with compressed backpropagation and records the same statistics on the compressed
activation gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.quality import run_quality_experiment
from repro.experiments.settings import FunctionalSettings, fast_functional_settings
from repro.plan import ParallelPlan
from repro.utils.tables import Table, format_float


@dataclass
class Fig11Result:
    """Summary statistics of the recorded error-independence diagnostics."""

    num_observations: int
    mean_error_mean: float
    mean_activation_diff_mean: float
    mean_abs_cosine: float
    max_abs_cosine: float
    cosine_series: list[float] = field(default_factory=list)

    def render(self) -> str:
        table = Table(
            title="Fig. 11: error / activation-difference independence statistics",
            columns=["Statistic", "Value", "Paper expectation"],
        )
        table.add_row(["observations", self.num_observations, "-"])
        table.add_row(["mean of Avg(error)", format_float(self.mean_error_mean, 5), "~0"])
        table.add_row(
            ["mean of Avg(Y(i) - Y(i+n))", format_float(self.mean_activation_diff_mean, 5), "~0"]
        )
        table.add_row(["mean |cosine similarity|", format_float(self.mean_abs_cosine, 4), "~0"])
        table.add_row(["max |cosine similarity|", format_float(self.max_abs_cosine, 4), "< 1"])
        return table.render()


def run_fig11(settings: FunctionalSettings | None = None) -> Fig11Result:
    """Reproduce Fig. 11 by training the proxy with CB and collecting diagnostics."""
    settings = settings if settings is not None else fast_functional_settings()
    result = run_quality_experiment(
        "CB",
        ParallelPlan.cb(),
        settings,
        evaluate_zero_shot=False,
        collect_diagnostics=True,
    )
    records = result.cb_diagnostics
    if not records:
        raise RuntimeError("no diagnostics recorded; is compressed backpropagation enabled?")
    cosines = [record.cosine for record in records]
    return Fig11Result(
        num_observations=len(records),
        mean_error_mean=float(np.mean([record.error_mean for record in records])),
        mean_activation_diff_mean=float(
            np.mean([record.activation_diff_mean for record in records])
        ),
        mean_abs_cosine=float(np.mean(np.abs(cosines))),
        max_abs_cosine=float(np.max(np.abs(cosines))),
        cosine_series=cosines,
    )

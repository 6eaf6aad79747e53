"""Automatic selection of the selective-stage-compression operating point.

Section 9.4 of the paper notes that "an even better trade-off can be achieved by
automatically choosing the right combination of the compression rank and the number
of stages for selective stage compression, which we leave as future work".  This
module implements that future-work feature as a constrained search:

* the *objective* is the simulated iteration-time speedup of the full Optimus-CC
  stack over the uncompressed baseline (performance layer);
* the *constraint* is an aggressiveness budget — the fraction of data-parallel
  gradient bytes removed from the wire, which is a monotone proxy for the
  quality risk the paper's Fig. 13 measures (more bytes removed, more staleness-
  affected error);
* optionally, a caller-supplied quality evaluator (e.g. a short functional training
  run) re-scores the shortlisted candidates so the final pick is validated on real
  gradients rather than the proxy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.compression import codec_for
from repro.plan import Boundary, ParallelPlan
from repro.simulator.cost_model import CostModel, TrainingJob
from repro.simulator.executor import PipelineTimingSimulator
from repro.utils.tables import Table, format_float

#: Signature of the optional quality evaluator: plan -> quality score (lower = better).
QualityEvaluator = Callable[[ParallelPlan], float]


def _with_selective_dp(base: ParallelPlan, stage_fraction: float, dp_rank: int) -> ParallelPlan:
    """``base`` with PowerSGD at ``dp_rank`` on the earliest ``stage_fraction`` of stages."""
    return base.with_boundary(
        Boundary.DP, codec="powersgd", rank=dp_rank, stage_fraction=stage_fraction
    )


@dataclass(frozen=True)
class AutoTuneCandidate:
    """One evaluated operating point."""

    stage_fraction: float
    dp_rank: int
    speedup: float
    dp_bytes_removed_fraction: float
    quality_score: float | None = None

    def satisfies(self, budget: float) -> bool:
        """Whether the candidate stays within the aggressiveness budget."""
        return self.dp_bytes_removed_fraction <= budget + 1e-12


@dataclass
class AutoTuneResult:
    """Outcome of an auto-tuning search."""

    best: AutoTuneCandidate
    candidates: list[AutoTuneCandidate] = field(default_factory=list)
    budget: float = 1.0

    def best_plan(self, base_plan: ParallelPlan | None = None) -> ParallelPlan:
        """``base_plan`` (default CB+FE) with the best candidate's DP compression."""
        base = base_plan if base_plan is not None else ParallelPlan.cb_fe()
        return _with_selective_dp(base, self.best.stage_fraction, self.best.dp_rank)

    def render(self) -> str:
        table = Table(
            title=f"Selective-compression auto-tuning (budget: remove <= {self.budget:.0%} of DP bytes)",
            columns=["Stages", "DP rank", "Speedup", "DP bytes removed", "Within budget", "Quality score"],
        )
        for candidate in self.candidates:
            table.add_row(
                [
                    f"{candidate.stage_fraction:.0%}",
                    candidate.dp_rank,
                    f"{candidate.speedup:+.2%}",
                    f"{candidate.dp_bytes_removed_fraction:.0%}",
                    "yes" if candidate.satisfies(self.budget) else "no",
                    "-" if candidate.quality_score is None else format_float(candidate.quality_score, 3),
                ]
            )
        best = self.best
        table.add_row(
            ["==> best", best.dp_rank, f"{best.speedup:+.2%}", f"{best.dp_bytes_removed_fraction:.0%}", "yes", "-"]
        )
        return table.render()


class SelectiveCompressionAutoTuner:
    """Searches (stage fraction, DP rank) for the best speedup within a budget."""

    def __init__(
        self,
        job: TrainingJob,
        base_plan: ParallelPlan | None = None,
        stage_fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
        dp_ranks: Sequence[int] = (32, 64, 128, 256),
    ) -> None:
        self.job = job
        self.base_plan = base_plan if base_plan is not None else ParallelPlan.cb_fe()
        self.stage_fractions = tuple(stage_fractions)
        self.dp_ranks = tuple(int(rank) for rank in dp_ranks)
        self.cost = CostModel(job)
        self._baseline_timing = PipelineTimingSimulator(job).run()

    # -- proxies -----------------------------------------------------------------

    def dp_bytes_removed_fraction(self, stage_fraction: float, dp_rank: int) -> float:
        """Fraction of total DP gradient bytes removed from the wire by a candidate."""
        spec = self._plan_for(stage_fraction, dp_rank).spec(Boundary.DP)
        codec = codec_for(spec)
        full = [self.cost.dp_gradient_bytes(stage) for stage in range(self.job.num_stages)]
        total = sum(full)
        removed = sum(
            full[stage] - self.cost.dp_compressed_gradient_bytes(stage, codec, spec.min_elements)
            for stage in sorted(spec.compressed_stages(self.job.num_stages))
        )
        if total <= 0:
            return 0.0
        return removed / total

    def _plan_for(self, stage_fraction: float, dp_rank: int) -> ParallelPlan:
        return _with_selective_dp(self.base_plan, stage_fraction, dp_rank)

    # -- search --------------------------------------------------------------------

    def evaluate(self, stage_fraction: float, dp_rank: int) -> AutoTuneCandidate:
        """Evaluate one operating point."""
        plan = self._plan_for(stage_fraction, dp_rank)
        timing = PipelineTimingSimulator(self.job, plan).run()
        return AutoTuneCandidate(
            stage_fraction=stage_fraction,
            dp_rank=dp_rank,
            speedup=timing.speedup_over(self._baseline_timing),
            dp_bytes_removed_fraction=self.dp_bytes_removed_fraction(stage_fraction, dp_rank),
        )

    def tune(
        self,
        budget: float = 0.8,
        quality_evaluator: QualityEvaluator | None = None,
        shortlist_size: int = 3,
    ) -> AutoTuneResult:
        """Search the grid and return the best in-budget candidate.

        Parameters
        ----------
        budget:
            Maximum fraction of DP gradient bytes that may be removed (0 disables DP
            compression entirely, 1 allows everything).
        quality_evaluator:
            Optional callable scoring a shortlisted plan (lower is better, e.g. a
            functional validation perplexity); when given, the best candidate is the
            shortlisted one with the best quality score, ties broken by speedup.
        shortlist_size:
            How many of the fastest in-budget candidates to re-score.
        """
        if not 0.0 <= budget <= 1.0:
            raise ValueError("budget must be in [0, 1]")
        candidates = [
            self.evaluate(stage_fraction, dp_rank)
            for stage_fraction in self.stage_fractions
            for dp_rank in self.dp_ranks
        ]
        in_budget = [candidate for candidate in candidates if candidate.satisfies(budget)]
        if not in_budget:
            raise ValueError(f"no candidate satisfies the budget {budget:.0%}")
        in_budget.sort(key=lambda candidate: candidate.speedup, reverse=True)

        best = in_budget[0]
        if quality_evaluator is not None:
            shortlist = in_budget[: max(1, shortlist_size)]
            scored = []
            for candidate in shortlist:
                score = quality_evaluator(self._plan_for(candidate.stage_fraction, candidate.dp_rank))
                scored.append(
                    AutoTuneCandidate(
                        stage_fraction=candidate.stage_fraction,
                        dp_rank=candidate.dp_rank,
                        speedup=candidate.speedup,
                        dp_bytes_removed_fraction=candidate.dp_bytes_removed_fraction,
                        quality_score=score,
                    )
                )
            scored.sort(key=lambda candidate: (candidate.quality_score, -candidate.speedup))
            best = scored[0]
            # Reflect the scored shortlist in the candidate list for reporting.
            replacements = {(c.stage_fraction, c.dp_rank): c for c in scored}
            candidates = [
                replacements.get((candidate.stage_fraction, candidate.dp_rank), candidate)
                for candidate in candidates
            ]
        return AutoTuneResult(best=best, candidates=candidates, budget=budget)

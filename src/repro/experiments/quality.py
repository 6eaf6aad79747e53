"""Functional quality experiments: train small GPTs under a :class:`~repro.plan.ParallelPlan`.

Every quality-side experiment (Fig. 3 perplexity bars, Table 2 perplexities, Fig. 9
curves, Tables 3/4 zero-shot accuracies, Fig. 11 diagnostics) boils down to "train
the same model on the same data under plan X and measure quality", so the
driver lives here once and the per-figure modules assemble results from it.

Trained models are cached in-process by ``(plan, settings)`` — and *only*
by those, never by which measurements a caller asked for — so Table 2, Table 3,
Fig. 9, and Fig. 11 all share the same trained models instead of re-training them.
Zero-shot evaluation is computed lazily from the cached trainer on first request
and memoised; CB error-independence diagnostics are always recorded during
training (they are cheap at functional scale), so a diagnostics-requesting caller
is also a cache hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.compressed_backprop import ErrorIndependenceRecord
from repro.data.tasks import build_zero_shot_suite
from repro.experiments.settings import FunctionalSettings
from repro.plan import Boundary, ParallelPlan
from repro.training.metrics import TrainingHistory
from repro.training.trainer import Pretrainer
from repro.utils.logging import get_logger

_logger = get_logger("experiments.quality")


@dataclass
class _CachedRun:
    """One trained model plus its lazily-computed evaluations."""

    trainer: Pretrainer
    corpus: object
    final_validation_perplexity: float
    history: TrainingHistory
    cb_diagnostics: list
    peak_residual_bytes: int
    compression_summary: dict[str, float]
    zero_shot: dict[str, float] | None = None  # filled on first request

    def zero_shot_accuracy(self, examples_per_task: int) -> dict[str, float]:
        if self.zero_shot is None:
            tasks = build_zero_shot_suite(self.corpus, examples_per_task=examples_per_task)
            self.zero_shot = self.trainer.evaluate_zero_shot(tasks)
        return dict(self.zero_shot)


#: In-process cache of trained models, keyed by (plan, settings) only.
_QUALITY_CACHE: dict[tuple, _CachedRun] = {}


@dataclass
class QualityResult:
    """Outcome of one functional pretraining run."""

    label: str
    plan: ParallelPlan
    final_validation_perplexity: float
    history: TrainingHistory
    zero_shot_accuracy: dict[str, float] = field(default_factory=dict)
    cb_diagnostics: list[ErrorIndependenceRecord] = field(default_factory=list)
    peak_residual_bytes: int = 0
    compression_summary: dict[str, float] = field(default_factory=dict)

    @property
    def perplexity_curve(self) -> tuple[list[int], list[float]]:
        """(iterations, validation perplexities) — the Fig. 9 series."""
        return self.history.perplexity_curve()

    def perplexity_increase_over(self, baseline: "QualityResult") -> float:
        """Absolute validation-perplexity increase versus a baseline run."""
        return self.final_validation_perplexity - baseline.final_validation_perplexity


def _configure_for_functional_scale(
    plan: ParallelPlan, settings: FunctionalSettings
) -> ParallelPlan:
    """Put ``plan`` on the settings' topology and scale its ranks to the model size.

    The paper's ranks (16 for CB, 128 for DP) would be lossless on the tiny
    functional models, so each run uses the ranks from the settings, which keep a
    comparable ~10x compression ratio.
    """
    return (
        plan.with_topology(
            pp=settings.num_stages,
            dp=settings.data_parallel_degree,
            micro_batches=settings.num_micro_batches,
        )
        .with_boundary(Boundary.PP, rank=settings.cb_rank, fraction=settings.topk_fraction)
        .with_boundary(Boundary.DP, rank=settings.dp_rank)
    )


def clear_quality_cache() -> None:
    """Drop every cached quality run (mainly for tests)."""
    _QUALITY_CACHE.clear()


def run_quality_experiment(
    label: str,
    plan: ParallelPlan,
    settings: FunctionalSettings,
    evaluate_zero_shot: bool = True,
    collect_diagnostics: bool = False,
    use_cache: bool = True,
) -> QualityResult:
    """Train one model under ``plan`` and measure its quality.

    Parameters
    ----------
    label:
        Human-readable name used in reports (e.g. ``"CB+FE"``).
    plan:
        What to compress on which boundary; the topology comes from ``settings``
        and the ranks are rescaled to the functional model size (see
        :func:`_configure_for_functional_scale`).
    settings:
        Model / data / optimisation settings shared by every plan of one
        experiment so that comparisons are paired.
    evaluate_zero_shot:
        Also run the five-task synthetic zero-shot suite on the final model.
    collect_diagnostics:
        Record the Fig. 11 error-independence statistics during training.
    use_cache:
        Reuse a previous identical run if available (results are deterministic).
    """
    scaled_plan = _configure_for_functional_scale(plan, settings)
    key = (scaled_plan, settings.cache_key())
    cached = _QUALITY_CACHE.get(key) if use_cache else None

    if cached is None:
        corpus = settings.build_corpus()
        loader = settings.build_loader(corpus)
        trainer = Pretrainer(
            settings.model,
            loader,
            scaled_plan,
            learning_rate=settings.learning_rate,
            seed=settings.seed,
            # Diagnostics are only recorded for compressed transfers and cost a
            # cosine similarity over tiny tensors; always collecting them keeps
            # the cache key independent of what a caller measures.
            collect_cb_diagnostics=True,
        )
        _logger.info(
            "training %s (%s) for %d iterations", label, scaled_plan.stack_label(), settings.num_iterations
        )
        outcome = trainer.train(
            num_iterations=settings.num_iterations,
            validation_interval=settings.validation_interval,
            validation_batches=settings.validation_batches,
        )
        hook = trainer.engine.cb_hooks[0]
        residual_bytes = hook.residual_memory_bytes() if hook is not None else 0
        cached = _CachedRun(
            trainer=trainer,
            corpus=corpus,
            final_validation_perplexity=outcome.final_validation_perplexity,
            history=outcome.history,
            cb_diagnostics=outcome.cb_diagnostics,
            peak_residual_bytes=residual_bytes,
            compression_summary=trainer.compression_summary,
        )
        if use_cache:
            _QUALITY_CACHE[key] = cached

    zero_shot: dict[str, float] = {}
    if evaluate_zero_shot:
        zero_shot = cached.zero_shot_accuracy(settings.zero_shot_examples)

    return QualityResult(
        label=label,
        plan=scaled_plan,
        final_validation_perplexity=cached.final_validation_perplexity,
        history=cached.history,
        zero_shot_accuracy=zero_shot,
        cb_diagnostics=list(cached.cb_diagnostics) if collect_diagnostics else [],
        peak_residual_bytes=cached.peak_residual_bytes,
        compression_summary=dict(cached.compression_summary),
    )


def run_quality_suite(
    plans: dict[str, ParallelPlan],
    settings: FunctionalSettings,
    evaluate_zero_shot: bool = True,
    collect_diagnostics: bool = False,
) -> dict[str, QualityResult]:
    """Run several plans on identical data; returns label -> result."""
    return {
        label: run_quality_experiment(
            label,
            plan,
            settings,
            evaluate_zero_shot=evaluate_zero_shot,
            collect_diagnostics=collect_diagnostics,
        )
        for label, plan in plans.items()
    }


def paper_variant_configurations() -> dict[str, ParallelPlan]:
    """The four main configurations of Table 2 / Table 3 / Fig. 9."""
    return {
        "Baseline": ParallelPlan.baseline(),
        "CB": ParallelPlan.cb(),
        "CB+FE": ParallelPlan.cb_fe(),
        "CB+FE+SC": ParallelPlan.cb_fe_sc(),
    }

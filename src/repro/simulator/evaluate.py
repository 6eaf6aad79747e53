"""One-call plan evaluation: the simulator entry point the plan search drives.

The capacity-planning service (:mod:`repro.search`) needs to score thousands of
candidate :class:`~repro.plan.ParallelPlan`s per query, each in milliseconds,
each producing exactly the same numbers no matter which worker process computed
it or in which order.  :func:`evaluate_plan` is that seam: it derives the
simulator's job from the plan, reads the peak memory off
:class:`~repro.simulator.memory_model.MemoryModel`, replays one iteration
through :class:`~repro.simulator.executor.PipelineTimingSimulator`, and folds
the result into one flat, JSON-safe :class:`PlanEvaluation`.

The evaluation comes in two steps because a search's budgets read two of its
numbers only: :func:`budget_metrics` (peak memory and the compression-loss
score — no timing) and :func:`evaluate_job`, which adds the timing half.  The
search evaluates the first, and the second only for a candidate its budgets
admit (:func:`repro.search.pool.evaluate_candidate`); :func:`evaluate_plan` is
the two in a row.  Both run on :func:`plan_job`, the one
:class:`~repro.simulator.cost_model.TrainingJob` object every plan of a
(topology, schedule) class shares.

Determinism contract: the evaluation is a pure function of
``(plan, model, cluster, micro_batch_size)`` — no wall clock, no RNG, no
global state — so identical inputs produce bit-identical outputs across
processes and runs.  The simulator does keep per-process memos (the cost model
of a job, its per-stage compute and DP terms, transfers, pipeline replays,
memory peaks), but each memoised term is a pure function of its key, the key
names every input the term reads, and the values are immutable — a hit is
indistinguishable from a recomputation, whatever the order the memos were
filled in.  That property is what makes the search's content-keyed result
cache (:mod:`repro.search.cache`) sound, and
:data:`~repro.simulator.cost_model.COST_MODEL_VERSION` is the escape hatch for
the one thing the inputs cannot capture: changes to this model's own code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Any, Mapping

from repro.models.gpt_configs import PaperModelSpec
from repro.plan import Boundary, ParallelPlan, Schedule, Topology
from repro.simulator.cost_model import CLASS_MEMO_SIZE, TrainingJob
from repro.simulator.executor import PipelineTimingSimulator
from repro.simulator.hardware import ClusterSpec
from repro.simulator.memory_model import MemoryModel

__all__ = [
    "BUDGET_METRICS",
    "PlanEvaluation",
    "budget_metrics",
    "compression_loss",
    "evaluate_job",
    "evaluate_plan",
    "plan_job",
]

#: The two :class:`PlanEvaluation` fields a search budget reads
#: (:func:`repro.search.frontier.within_budget`) — what :func:`budget_metrics`
#: returns, and the field names of a budget-only cache entry.
BUDGET_METRICS = ("peak_memory_gb", "compression_loss")


def _codec_aggressiveness(codec: str, rank: int, bits: int, fraction: float) -> float:
    """Monotone lossiness score of one codec setting, in ``[0, 1)``.

    This is a *ranking heuristic*, not a measured perplexity: it only promises
    that turning a knob toward heavier compression never lowers the score
    (smaller rank, fewer bits, smaller kept fraction are all monotonically more
    aggressive), so an accuracy budget expressed as a cap on the score excludes
    candidates in a stable, explainable order.
    """
    if codec == "none" or codec == "fused":
        return 0.0
    if codec == "powersgd":
        return 8.0 / (8.0 + rank)
    if codec == "qsgd":
        return (8.0 - bits) / 8.0
    if codec == "topk":
        return 1.0 - fraction
    raise ValueError(f"unknown codec {codec!r}")


def compression_loss(plan: ParallelPlan) -> float:
    """Heuristic accuracy-impact score of a plan's compression stack, in ``[0, 1)``.

    The DP boundary contributes its codec aggressiveness scaled by the selected
    stage fraction (selective stage compression touches less of the gradient);
    the PP boundary contributes its codec aggressiveness, halved when only the
    epilogue transfers are compressed and halved again when lazy error
    propagation is on (the paper's convergence-preserving variants).  Fused
    embedding synchronisation is lossless and contributes nothing.  The two
    boundary terms are averaged, so the score stays comparable across plans
    that compress one or both boundaries.
    """
    dp = plan.spec(Boundary.DP)
    pp = plan.spec(Boundary.PP)
    dp_term = (
        _codec_aggressiveness(dp.codec, dp.rank, dp.bits, dp.fraction) * dp.stage_fraction
    )
    pp_term = _codec_aggressiveness(pp.codec, pp.rank, pp.bits, pp.fraction)
    if pp_term > 0.0 and pp.epilogue_only:
        pp_term *= 0.5
    if pp_term > 0.0 and pp.error_feedback:
        pp_term *= 0.5
    return (dp_term + pp_term) / 2.0


@dataclass(frozen=True)
class PlanEvaluation:
    """Flat, JSON-safe simulator verdict on one candidate plan.

    All fields are deterministic outputs of the analytic model — the search
    layer caches instances verbatim (:meth:`to_dict` / :meth:`from_dict`) and
    ranks Pareto frontiers over the ``tokens_per_second`` /
    ``wire_bytes_total`` / ``peak_memory_gb`` triple.
    """

    #: Simulated duration of one training iteration in seconds.
    iteration_time_s: float
    #: End-to-end training throughput (global batch x sequence length / iteration).
    tokens_per_second: float
    #: Fraction of device-seconds idle inside the pipeline phase.
    bubble_fraction: float
    #: Total per-iteration wire bytes across every communication axis.
    wire_bytes_total: float
    #: Data-parallel all-reduce wire bytes per iteration.
    dp_wire_bytes: float
    #: Inter-stage pipeline wire bytes per iteration (both directions).
    pp_wire_bytes: float
    #: Embedding-synchronisation wire bytes per iteration.
    embedding_wire_bytes: float
    #: Intra-node tensor-parallel wire bytes per iteration.
    tp_wire_bytes: float
    #: Peak per-GPU memory of the worst pipeline stage, in gigabytes.
    peak_memory_gb: float
    #: Heuristic accuracy-impact score of the compression stack (:func:`compression_loss`).
    compression_loss: float

    def to_dict(self) -> dict[str, float]:
        """Plain-dict form (JSON-safe; round-trips through :meth:`from_dict`)."""
        return {spec_field.name: getattr(self, spec_field.name) for spec_field in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PlanEvaluation":
        """Rebuild an evaluation from :meth:`to_dict` output (extra keys raise)."""
        return cls(**{key: float(value) for key, value in payload.items()})


@functools.lru_cache(maxsize=CLASS_MEMO_SIZE)
def _class_job(
    topology: Topology,
    schedule: Schedule,
    model: PaperModelSpec,
    cluster: ClusterSpec | None,
    micro_batch_size: int,
) -> TrainingJob:
    """The job of every plan with this topology and schedule, built (and validated) once."""
    return ParallelPlan(topology=topology, schedule=schedule).training_job(
        model, cluster=cluster, micro_batch_size=micro_batch_size
    )


def plan_job(
    plan: ParallelPlan,
    model: PaperModelSpec,
    cluster: ClusterSpec | None = None,
    micro_batch_size: int = 8,
) -> TrainingJob:
    """:meth:`~repro.plan.ParallelPlan.training_job` of ``plan``, one object per class.

    A job reads the plan's topology and schedule and nothing of its
    compression, so the plans of a sweep that differ in codecs only (28 per
    job in the flagship query) get the *same* :class:`TrainingJob`: it is
    constructed and validated once, and the per-class memos keyed on it
    (:mod:`repro.simulator.executor`, :mod:`repro.simulator.memory_model`)
    find an identical key instead of comparing two equal dataclass trees field
    by field.
    """
    return _class_job(plan.topology, plan.schedule, model, cluster, micro_batch_size)


def budget_metrics(job: TrainingJob, plan: ParallelPlan) -> dict[str, float]:
    """The :data:`BUDGET_METRICS` of ``plan`` on ``job``: memory peak and loss score.

    Neither needs the timing replay, so a search can reject a candidate on
    these before paying for :func:`evaluate_job`.
    """
    return {
        "peak_memory_gb": MemoryModel(job, plan).peak_report().total_gb,
        "compression_loss": compression_loss(plan),
    }


def evaluate_job(
    job: TrainingJob, plan: ParallelPlan, budget: Mapping[str, float] | None = None
) -> PlanEvaluation:
    """Simulate one iteration of ``plan`` on ``job`` and return its metrics.

    ``budget`` is :func:`budget_metrics` of the same pair where the caller has
    already computed it (computed here otherwise).
    """
    if budget is None:
        budget = budget_metrics(job, plan)
    timing = PipelineTimingSimulator(job, plan).run()
    tokens = job.global_batch_size * job.seq_length
    wire = timing.wire_bytes_by_axis()
    return PlanEvaluation(
        iteration_time_s=timing.iteration_time,
        tokens_per_second=tokens / timing.iteration_time,
        bubble_fraction=timing.bubble_fraction,
        wire_bytes_total=sum(wire.values()),
        dp_wire_bytes=wire["data_parallel"],
        pp_wire_bytes=wire["pipeline"],
        embedding_wire_bytes=wire["embedding"],
        tp_wire_bytes=wire["tensor_parallel"],
        **budget,
    )


def evaluate_plan(
    plan: ParallelPlan,
    model,
    cluster: ClusterSpec | None = None,
    micro_batch_size: int = 8,
) -> PlanEvaluation:
    """Simulate one iteration of ``plan`` on ``model`` and return its metrics.

    Parameters
    ----------
    plan:
        The candidate :class:`~repro.plan.ParallelPlan`; the simulator job
        derives from it and the simulator reads its compression specs directly,
        so the evaluation describes the same configuration every other layer
        would run.
    model:
        A :class:`~repro.models.gpt_configs.PaperModelSpec`.
    cluster:
        Hardware to simulate on (defaults to the paper's 16x8 A100 cluster).
    micro_batch_size:
        Sequences per micro-batch; the global batch follows from the plan's
        topology (``micro_batch_size x micro_batches x dp``).
    """
    return evaluate_job(plan_job(plan, model, cluster, micro_batch_size), plan)

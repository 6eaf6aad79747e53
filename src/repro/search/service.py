"""The search service: expand, evaluate (pooled + cached), rank, render.

:func:`run_search` answers one :class:`~repro.search.query.SearchQuery`;
:func:`run_queries` answers a batch over one shared worker pool and cache, so
overlapping queries (same model, overlapping sweeps) pay for each distinct
candidate once.  The outcome separates the *deterministic* answer — the ranked
frontier, byte-identical across runs, pool sizes, and cold/warm caches
(:meth:`SearchOutcome.to_json`) — from the *run-dependent* bookkeeping
(elapsed time, cache hits, evaluation counts), which callers print separately.

What a query pays for, and how often:

* **per query** — the expansion's option lists (each DP / PP / embedding
  :class:`~repro.plan.CompressionSpec` is built once per option) and the model
  document (:attr:`~repro.search.query.SearchQuery.model_document`);
* **per tier** — the resolved cluster, its hardware document and the canonical
  JSON of the model and hardware sections of the key
  (:mod:`repro.search.cache`);
* **per job** (topology × schedule; 100 in the flagship query's 2,800
  candidates) — one validated :class:`~repro.simulator.cost_model.TrainingJob`
  object (:func:`~repro.simulator.evaluate.plan_job`), the cost model, the
  per-stage F/B/W times, compute totals and TP wire, and the schedule's
  per-stage memory profile;
* **per (job, DP spec)** — the per-stage time, kernel overhead and wire bytes
  of the DP all-reduce;
* **per (job, PP rank, DP rank, compressed-stage set)** — the memory peak;
* **per replay class** — the simulator's pipeline replay, shared by every plan
  with the same job and PP-boundary codec
  (:func:`repro.simulator.executor.replay_pipeline`), and the inter-stage
  transfer of each rank;
* **per section object** (each topology, schedule and codec spec of the
  expansion; under a hundred) — its canonical JSON, the fragment every key
  that names it is joined from
  (:meth:`~repro.plan.ParallelPlan.canonical_json`);
* **per candidate** — in the parent: one validating
  :class:`~repro.plan.ParallelPlan` construction, the join of its key
  document from those fragments and its SHA-256, one cache table lookup or
  one buffered entry line, and its share of a block message (an integer out,
  a metrics dict back).  In the worker — which evaluates the parent's own
  plan object, inherited at the fork, not a rebuilt copy — the loss score
  and, only for a candidate the budgets admit, the arithmetic of the DP /
  embedding tail over the shared terms;
* **per evaluating pass** — one fork of the pool's workers, after expansion
  and keying, and their teardown (:meth:`~repro.search.pool.EvaluationPool.run`;
  a pass served from the cache forks nothing);
* **per pass** — one read of what was appended to the cache directory since
  the last query and, if anything was evaluated, one append to this cache
  object's segment (:meth:`~repro.search.cache.SearchCache.flush`).

The per-class terms are memoised per process (:mod:`repro.simulator.executor`,
:mod:`repro.simulator.memory_model`), and the pool hands each worker a
contiguous run of the class-major expansion, so a class is computed in one
worker rather than in all of them.

**Budget first.**  A query's budgets read two metrics, peak memory and the
compression-loss score, and neither needs the timing half of the simulation.
Each work unit carries the budgets; the evaluation computes those two metrics
first and returns only them for a candidate a budget rejects (1,336 of the
flagship query's 2,800).  Such a reply counts as evaluated, is excluded by the
budget filter like any over-budget candidate, and is cached as a narrower
entry — served as a hit only to a query whose budgets still reject it, and
completed by the first query that admits the candidate.

A cache hit is taken on trust only as far as its shape: the cache directory is
outside input, so a hit must be a mapping of finite numbers under exactly
:class:`~repro.simulator.evaluate.PlanEvaluation`'s field names — or, for a
candidate this query's budgets reject, exactly the two budget metrics — or it
is re-evaluated and stored again like a miss.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Sequence

from repro.search.cache import SearchCache, cache_key, task_key_material
from repro.search.frontier import (
    FrontierEntry,
    ObjectiveWeights,
    pareto_frontier,
    rank_frontier,
    within_budget,
)
from repro.search.pool import EvaluationPool
from repro.search.query import Candidate, SearchQuery, resolve_cluster
from repro.simulator.evaluate import BUDGET_METRICS, PlanEvaluation
from repro.utils.tables import Table, format_float

__all__ = ["SearchOutcome", "run_queries", "run_search"]

#: The field names a cached evaluation must carry — exactly these, no others —
#: and those of a budget-only one.
_METRIC_NAMES = frozenset(spec_field.name for spec_field in fields(PlanEvaluation))
_BUDGET_NAMES = frozenset(BUDGET_METRICS)


def _usable_entry(entry: Any, query: SearchQuery) -> bool:
    """Whether a cache hit is an evaluation this build can rank for ``query``.

    The cache directory is outside input: a file can parse as JSON and still
    be ``[]``, ``0``, or the metrics of a build whose
    :class:`~repro.simulator.evaluate.PlanEvaluation` had other fields.  Such
    a hit would fail the whole query in the budget filter, so it is treated as
    a miss instead: re-evaluated, and superseded by the fresh result.  A
    budget-only entry answers a query whose budgets reject it, and is a miss
    for every other.
    """
    if not isinstance(entry, dict):
        return False
    names = entry.keys()
    if names != _METRIC_NAMES and names != _BUDGET_NAMES:
        return False
    if not all(
        type(value) is float and math.isfinite(value) or type(value) is int
        for value in entry.values()
    ):
        return False
    return names == _METRIC_NAMES or not within_budget(
        entry, query.max_memory_gb, query.max_compression_loss
    )


@dataclass
class SearchOutcome:
    """Everything one query's search produced.

    ``entries`` (via ``query``/``candidates``/…) is the deterministic answer;
    ``evaluated``/``cache_hits``/``errors``/``elapsed_s`` describe how this
    particular run got there and stay out of :meth:`to_json` on purpose.
    """

    #: The query answered.
    query: SearchQuery
    #: Ranked frontier, best first, as JSON-safe dicts
    #: (``rank``/``index``/``tier``/``plan``/``label``/``score``/``metrics``).
    entries: list[dict[str, Any]] = field(default_factory=list)
    #: Candidates the query expanded to.
    candidates: int = 0
    #: Candidates whose metrics respected the query's budgets.
    within_budget: int = 0
    #: Candidates that failed to evaluate (deterministically excluded).
    errors: int = 0
    #: Simulator evaluations actually performed by this run (one that stopped
    #: at the budget metrics counts).
    evaluated: int = 0
    #: Evaluations served from the on-disk cache by this run.
    cache_hits: int = 0
    #: Wall-clock seconds this run took (not part of the deterministic output).
    elapsed_s: float = 0.0

    @property
    def over_budget(self) -> int:
        """Candidates that evaluated and exceeded one of the query's budgets."""
        return self.candidates - self.within_budget - self.errors

    def to_dict(self, top: int | None = None) -> dict[str, Any]:
        """The deterministic result document (frontier capped at ``top``)."""
        entries = self.entries if top is None else self.entries[:top]
        return {
            "query": self.query.to_dict(),
            "model": self.query.model_spec().name,
            "candidates": self.candidates,
            "within_budget": self.within_budget,
            "frontier_size": len(self.entries),
            "frontier": entries,
        }

    def to_json(self, top: int | None = None) -> str:
        """Canonical JSON of :meth:`to_dict` — byte-identical across runs."""
        return json.dumps(self.to_dict(top=top), indent=2, sort_keys=True) + "\n"

    def render_table(self, top: int | None = 10) -> str:
        """The frontier as an aligned text table (plan labels via ``describe``)."""
        model = self.query.model_spec()
        table = Table(
            title=(
                f"{model.name} on {self.query.gpus} GPUs: "
                f"{len(self.entries)} Pareto-optimal of {self.within_budget} "
                f"in-budget candidates ({self.candidates} candidates, "
                f"{self.over_budget} over budget)"
            ),
            columns=["#", "Plan", "Tier", "Tokens/s", "Wire GB", "Peak GB", "Loss", "Score"],
        )
        entries = self.entries if top is None else self.entries[:top]
        for entry in entries:
            metrics = entry["metrics"]
            table.add_row(
                [
                    entry["rank"],
                    entry["label"],
                    entry["tier"],
                    format_float(metrics["tokens_per_second"], 0),
                    format_float(metrics["wire_bytes_total"] / 1e9, 1),
                    format_float(metrics["peak_memory_gb"], 1),
                    format_float(metrics["compression_loss"], 3),
                    format_float(entry["score"], 4),
                ]
            )
        return table.render()


def _ranked_entries(
    ranked: Sequence[FrontierEntry], by_index: Mapping[int, Candidate]
) -> list[dict[str, Any]]:
    """Serialise ranked frontier entries back into candidate-labelled dicts."""
    entries = []
    for rank, entry in enumerate(ranked, start=1):
        candidate = by_index[entry.index]
        entries.append(
            {
                "rank": rank,
                "index": entry.index,
                "tier": candidate.tier,
                "label": candidate.plan.describe(),
                "plan": candidate.plan.to_dict(),
                "score": entry.score,
                "metrics": dict(entry.metrics),
            }
        )
    return entries


def _search_with(
    query: SearchQuery, pool: EvaluationPool, cache: SearchCache | None
) -> SearchOutcome:
    """Answer one query on an existing pool/cache (the batch-mode core)."""
    started = time.perf_counter()
    candidates = query.expand()
    by_index = {candidate.index: candidate for candidate in candidates}
    clusters = {tier: resolve_cluster(tier, query.gpus) for tier in query.hardware}

    model = query.model_spec()
    metrics: dict[int, Mapping[str, float]] = {}
    pending: list[tuple[int, tuple[Any, ...]]] = []
    keys: dict[int, str] = {}
    cache_hits = 0
    if cache is not None:
        cache.refresh()
    for candidate in candidates:
        cluster = clusters[candidate.tier]
        if cache is not None:
            task = {
                "plan": candidate.plan,
                "model": query.model_document,
                "micro_batch_size": query.micro_batch_size,
            }
            key = cache_key(task_key_material(task, cluster))
            keys[candidate.index] = key
            cached = cache.get(key)
            if _usable_entry(cached, query):
                metrics[candidate.index] = cached
                cache_hits += 1
                continue
        # The arguments of ``evaluate_candidate``: this process's validated
        # objects, which the pool's workers inherit by fork.
        pending.append(
            (
                candidate.index,
                (
                    candidate.plan,
                    model,
                    cluster,
                    query.micro_batch_size,
                    query.max_memory_gb,
                    query.max_compression_loss,
                ),
            )
        )

    errors = 0
    evaluated = 0
    if pending:
        for index, (kind, payload) in pool.run(pending).items():
            if kind != "ok":
                errors += 1
                continue
            evaluated += 1
            metrics[index] = payload
            if cache is not None:
                cache.put(keys[index], payload)
        if cache is not None:
            cache.flush()

    in_budget = [
        (index, candidate_metrics)
        for index, candidate_metrics in sorted(metrics.items())
        if within_budget(
            candidate_metrics, query.max_memory_gb, query.max_compression_loss
        )
    ]
    weights = ObjectiveWeights(
        throughput=query.weight_throughput,
        wire=query.weight_wire,
        memory=query.weight_memory,
    )
    ranked = rank_frontier(pareto_frontier(in_budget), weights)
    return SearchOutcome(
        query=query,
        entries=_ranked_entries(ranked, by_index),
        candidates=len(candidates),
        within_budget=len(in_budget),
        errors=errors,
        evaluated=evaluated,
        cache_hits=cache_hits,
        elapsed_s=time.perf_counter() - started,
    )


def run_search(
    query: SearchQuery,
    workers: int = 0,
    cache: SearchCache | None = None,
    pool: EvaluationPool | None = None,
) -> SearchOutcome:
    """Answer one query; spin up (and tear down) a pool unless one is passed.

    Parameters
    ----------
    query:
        The capacity-planning question.
    workers:
        Worker processes for a pool created here (ignored when ``pool`` is
        given); ``0`` evaluates inline.
    cache:
        Optional on-disk result cache; hits skip the simulator entirely.
    pool:
        An existing pool to reuse (the caller keeps ownership).
    """
    if pool is not None:
        return _search_with(query, pool, cache)
    with EvaluationPool(workers=workers) as owned:
        return _search_with(query, owned, cache)


def run_queries(
    queries: Sequence[SearchQuery],
    workers: int = 0,
    cache: SearchCache | None = None,
) -> list[SearchOutcome]:
    """Answer a batch of queries over one shared pool and cache, in order."""
    with EvaluationPool(workers=workers) as pool:
        return [_search_with(query, pool, cache) for query in queries]

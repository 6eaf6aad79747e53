"""Tests for the plan-search capacity-planning service (repro.search).

Covers the PR-10 acceptance criteria: deterministic query expansion, cache-key
stability (any single input field change misses; identical inputs hit with
zero re-evaluations), frontier determinism under worker-pool nondeterministic
completion order, the CLI surface (search + docs cli drift check), and the
GPT-8.3B >= 1000-candidate acceptance query.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pathlib
import re
import shutil
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.models.gpt_configs import GPT_2_5B
from repro.plan import (
    Boundary,
    CompressionSpec,
    ParallelPlan,
    ResilienceSpec,
    Schedule,
    Topology,
)
from repro.search import (
    EvaluationPool,
    ObjectiveWeights,
    SearchCache,
    SearchQuery,
    evaluate_task,
    pareto_frontier,
    rank_frontier,
    run_queries,
    run_search,
)
from repro.search import pool as pool_module
from repro.search.cache import cache_key, task_key_material
from repro.search.frontier import within_budget
from repro.search.query import resolve_cluster
from repro.simulator.cost_model import COST_MODEL_VERSION
from repro.simulator.evaluate import PlanEvaluation, compression_loss, evaluate_plan
from repro.simulator.hardware import ClusterSpec

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def tiny_query(**overrides) -> SearchQuery:
    """A fast query (tens of candidates) for unit tests."""
    defaults = dict(model="GPT-2.5B", gpus=8, max_candidates=24)
    defaults.update(overrides)
    return SearchQuery(**defaults)


def reference_plan_dict(plan: ParallelPlan) -> dict:
    """``ParallelPlan.to_dict`` as it was spelled through ``dataclasses.asdict``."""
    payload = {
        "topology": dataclasses.asdict(plan.topology),
        "schedule": dataclasses.asdict(plan.schedule),
        "compression": {
            boundary.value: dataclasses.asdict(spec)
            for boundary, spec in plan.compression.items()
        },
    }
    if plan.resilience is not None:
        resilience = dataclasses.asdict(plan.resilience)
        resilience["faults"] = list(plan.resilience.faults)
        payload["resilience"] = resilience
    if plan.executor != "serial":
        payload["executor"] = plan.executor
    return payload


def reference_key(query: SearchQuery, candidate, cluster: ClusterSpec) -> str:
    """The cache key as one ``json.dumps`` of a document built from fresh copies."""
    document = {
        "plan": reference_plan_dict(candidate.plan),
        "model": dataclasses.asdict(query.model_spec()),
        "hardware": dataclasses.asdict(cluster),
        "micro_batch_size": query.micro_batch_size,
        "cost_model_version": COST_MODEL_VERSION,
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def query_keys(query: SearchQuery) -> list[str]:
    """Every candidate's cache key, computed the way the service computes it."""
    clusters = {tier: resolve_cluster(tier, query.gpus) for tier in query.hardware}
    return [
        cache_key(task_key_material(candidate.task(query), clusters[candidate.tier]))
        for candidate in query.candidates()
    ]


def composed_keys(query: SearchQuery) -> list[str]:
    """Every candidate's cache key from the plan objects, as the service asks for it."""
    clusters = {tier: resolve_cluster(tier, query.gpus) for tier in query.hardware}
    return [
        cache_key(
            task_key_material(
                {
                    "plan": candidate.plan,
                    "model": query.model_document,
                    "micro_batch_size": query.micro_batch_size,
                },
                clusters[candidate.tier],
            )
        )
        for candidate in query.candidates()
    ]


def inherited_tasks(query: SearchQuery) -> list[tuple[int, tuple]]:
    """The pool work units the service builds: ``evaluate_candidate``'s arguments."""
    model = query.model_spec()
    return [
        (
            c.index,
            (
                c.plan, model, resolve_cluster(c.tier, query.gpus), query.micro_batch_size,
                query.max_memory_gb, query.max_compression_loss,
            ),
        )
        for c in query.expand()
    ]


def after_fork(monkeypatch, action) -> None:
    """Run ``action(workers)`` on every pool's workers right after ``run()`` forked them."""
    fork = EvaluationPool._fork

    def fork_then_act(pool, pending):
        fork(pool, pending)
        action(pool._workers)

    monkeypatch.setattr(EvaluationPool, "_fork", fork_then_act)


def kill_workers(workers) -> None:
    for worker in workers:
        worker.process.kill()
        worker.process.join(timeout=10.0)
        assert not worker.process.is_alive()


def segments(root) -> list[pathlib.Path]:
    """The segment files of one cache directory."""
    return sorted(pathlib.Path(root).glob("*.seg"))


def replace_entry(segment: pathlib.Path, key: str, values: bytes) -> None:
    """Overwrite the values of ``key``'s line in ``segment``."""
    lines = segment.read_bytes().splitlines(keepends=True)
    (index,) = [i for i, line in enumerate(lines) if line.startswith(key.encode("ascii"))]
    lines[index] = key.encode("ascii") + b" " + values + b"\n"
    segment.write_bytes(b"".join(lines))


class TestEvaluatePlan:
    def test_metrics_roundtrip_and_sanity(self):
        plan = ParallelPlan.cb_fe_sc(Topology(dp=2, pp=4, tp=1, micro_batches=8))
        evaluation = evaluate_plan(plan, GPT_2_5B)
        assert evaluation.iteration_time_s > 0
        assert evaluation.tokens_per_second > 0
        assert 0 <= evaluation.bubble_fraction < 1
        assert evaluation.wire_bytes_total == pytest.approx(
            evaluation.dp_wire_bytes
            + evaluation.pp_wire_bytes
            + evaluation.embedding_wire_bytes
            + evaluation.tp_wire_bytes
        )
        assert PlanEvaluation.from_dict(evaluation.to_dict()) == evaluation

    def test_evaluation_is_pure(self):
        plan = ParallelPlan.cb(Topology(dp=2, pp=4, tp=1, micro_batches=4))
        assert evaluate_plan(plan, GPT_2_5B) == evaluate_plan(plan, GPT_2_5B)

    def test_compression_loss_monotone(self):
        base = ParallelPlan.baseline()
        assert compression_loss(base) == 0.0
        low_rank = base.with_boundary(Boundary.DP, codec="powersgd", rank=4)
        high_rank = base.with_boundary(Boundary.DP, codec="powersgd", rank=128)
        assert compression_loss(low_rank) > compression_loss(high_rank) > 0.0
        full = high_rank.with_boundary(Boundary.DP, stage_fraction=1.0)
        partial = high_rank.with_boundary(Boundary.DP, stage_fraction=0.5)
        assert compression_loss(partial) < compression_loss(full)
        assert compression_loss(base.with_boundary(Boundary.EMBEDDING, codec="fused")) == 0.0


class TestQueryExpansion:
    def test_expansion_is_deterministic(self):
        query = tiny_query(max_candidates=None)
        first, second = query.expand(), query.expand()
        assert [c.index for c in first] == list(range(len(first)))
        assert [(c.plan, c.tier) for c in first] == [(c.plan, c.tier) for c in second]

    def test_default_gpt83b_query_exceeds_1000_candidates(self):
        assert len(SearchQuery().expand()) >= 1000

    def test_topologies_fill_the_gpu_budget(self):
        query = tiny_query(max_candidates=None)
        for topology in query.topologies():
            assert topology.world_size == query.gpus
            assert topology.pp <= query.model_spec().num_layers

    def test_max_candidates_truncates(self):
        assert len(tiny_query(max_candidates=7).expand()) == 7

    def test_query_roundtrips_through_dict(self):
        query = tiny_query(max_memory_gb=40.0, hardware=("infiniband", "ethernet"))
        assert SearchQuery.from_dict(query.to_dict()) == query

    def test_unknown_fields_and_vocabulary_raise(self):
        with pytest.raises(ValueError, match="unknown query field"):
            SearchQuery.from_dict({"modle": "GPT-2.5B"})
        with pytest.raises(ValueError, match="hardware tier"):
            SearchQuery(hardware=("token-ring",))
        with pytest.raises(ValueError, match="unknown model"):
            SearchQuery(model="GPT-1T")

    def test_custom_model_query(self):
        query = tiny_query(
            custom_model={
                "name": "tiny",
                "num_layers": 8,
                "hidden_size": 256,
                "num_heads": 4,
            }
        )
        assert query.model_spec().name == "tiny"
        assert SearchQuery.from_dict(query.to_dict()) == query

    def test_proxy_scaled_caps_ranks(self):
        query = tiny_query(proxy_scale_max_rank=2, max_candidates=None)
        for candidate in query.expand():
            for boundary in (Boundary.DP, Boundary.PP):
                assert candidate.plan.spec(boundary).rank <= 2


class TestCacheKeys:
    def task(self, **query_overrides):
        query = tiny_query(**query_overrides)
        candidate = query.expand()[-1]  # a compressed candidate, not the baseline
        return query, candidate.task(query)

    def key_of(self, query, task):
        return cache_key(task_key_material(task, resolve_cluster(task["tier"], task["gpus"])))

    def test_same_inputs_same_key(self):
        query, task = self.task()
        query2, task2 = self.task()
        assert self.key_of(query, task) == self.key_of(query2, task2)

    def test_codec_change_misses(self):
        query, task = self.task()
        changed = json.loads(json.dumps(task))
        changed["plan"]["compression"]["dp"]["codec"] = "qsgd"
        assert self.key_of(query, task) != self.key_of(query, changed)

    def test_cap_factor_change_misses(self):
        query, task = self.task()
        changed = json.loads(json.dumps(task))
        changed["plan"]["schedule"]["memory_cap_factor"] = 2.0
        assert self.key_of(query, task) != self.key_of(query, changed)

    def test_hardware_tier_change_misses(self):
        query, task = self.task()
        changed = dict(task, tier="ethernet")
        assert self.key_of(query, task) != self.key_of(query, changed)

    def test_micro_batch_size_change_misses(self):
        query, task = self.task()
        changed = dict(task, micro_batch_size=task["micro_batch_size"] * 2)
        assert self.key_of(query, task) != self.key_of(query, changed)

    def test_cost_model_version_change_misses(self, monkeypatch):
        query, task = self.task()
        before = self.key_of(query, task)
        monkeypatch.setattr("repro.search.cache.COST_MODEL_VERSION", "9999.99-0")
        assert self.key_of(query, task) != before

    def test_canonical_json_is_compact_and_sorted(self):
        plan = ParallelPlan.cb_fe_sc()
        canonical = plan.canonical_json()
        assert "\n" not in canonical and ": " not in canonical
        assert json.loads(canonical) == plan.to_dict()
        assert ParallelPlan.from_dict(json.loads(canonical)) == plan

    def test_cache_store_and_hit(self, tmp_path):
        cache = SearchCache(tmp_path / "cache")
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"x": 1.0})
        cache.flush()
        assert cache.get("ab" * 32) == {"x": 1.0}
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1}
        assert SearchCache(tmp_path / "cache").get("ab" * 32) == {"x": 1.0}

    def test_torn_entry_counts_as_miss(self, tmp_path):
        cache = SearchCache(tmp_path / "cache")
        key = "cd" * 32
        cache.put(key, {"x": 1.0})
        cache.flush()
        (segment,) = segments(cache.root)
        header = segment.read_bytes().splitlines(keepends=True)[0]
        segment.write_bytes(header + key.encode("ascii") + b" {not json\n")
        assert SearchCache(cache.root).get(key) is None


#: A query spelled with ints where floats are usual: equal plans, different
#: JSON (``1`` vs ``1.0``), therefore different keys than the float spelling.
INT_SPELLED_QUERY = {
    "model": "GPT-2.5B", "gpus": 16, "tp_degrees": [1, 2], "micro_batches": [8],
    "schedules": ["1f1b", "zb1", "auto"], "memory_cap_factors": [1, 2],
    "stage_fractions": [1], "dp_fractions": [1],
}

#: SHA-256 of the newline-joined candidate keys, recorded at the commit before
#: key computation was restructured.  A silent key change cold-starts every
#: user's cache; an intended one moves ``COST_MODEL_VERSION`` and these
#: digests together.  Keys also move when the plan schema loses a field,
#: with no ``COST_MODEL_VERSION`` bump when no evaluation changes: re-pinned
#: once so, when ``CompressionSpec`` lost its forward-compression knob (the
#: commit before, hashing its plan documents without that key, gives these).
#: Moved with ``COST_MODEL_VERSION`` 2026.10-2, when the simulator started
#: sizing PP top-k transfers from their fraction: the keys differ in the
#: version string only.
PINNED_KEY_DIGESTS = {
    "flagship": (
        (REPO_ROOT / "benchmarks/e2e/queries/flagship.json").read_text(encoding="utf-8"),
        2800,
        "c8fd2b305c83942a5347b5c4e55232ba18fb33c43deed1839d85ecf17486257b",
    ),
    "two_tier": (
        (REPO_ROOT / "examples/queries/gpt_2_5b_two_tier.json").read_text(encoding="utf-8"),
        432,
        "e9d37b2f6f20571829972772d392c36f94a4c8709b4db793bd086349b02a5f3c",
    ),
    "int_spelled": (
        json.dumps(INT_SPELLED_QUERY),
        576,
        "aa0a950cd9d20bdf60827d4773c4c5ea43ac26ea29151b34e966c7cdb1bd9e01",
    ),
    "proxy_scaled": (
        json.dumps({"model": "GPT-2.5B", "gpus": 8, "proxy_scale_max_rank": 2}),
        1120,
        "f751949da454accad3c764f2e42ca1dc1c9c4fe3ac74a2ab5aa94fae7eaec454",
    ),
}


class TestPinnedKeys:
    @pytest.mark.parametrize("name", sorted(PINNED_KEY_DIGESTS))
    def test_pinned_key_digests(self, name):
        text, count, digest = PINNED_KEY_DIGESTS[name]
        keys = query_keys(SearchQuery.from_json(text))
        assert len(keys) == count
        assert hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest() == digest

    def test_pinned_keys_tell_int_from_float_spellings(self):
        """Equal plans that serialise differently keep different keys, in either order."""
        floats = dict(INT_SPELLED_QUERY, memory_cap_factors=[1.0, 2.0], stage_fractions=[1.0],
                      dp_fractions=[1.0], max_candidates=120)
        ints = dict(INT_SPELLED_QUERY, max_candidates=120)
        for first, second in ((ints, floats), (floats, ints)):
            queries = [SearchQuery.from_dict(first), SearchQuery.from_dict(second)]
            assert queries[0].expand() == queries[1].expand()  # equal, hash-equal plans
            keys = [query_keys(query) for query in queries]
            assert keys[0] != keys[1]
            for query, mine in zip(queries, keys):
                cluster = resolve_cluster("infiniband", query.gpus)
                assert mine == [reference_key(query, c, cluster) for c in query.candidates()]

    def test_pinned_keys_tell_equal_custom_models_apart(self):
        """``256`` and ``256.0`` are equal model specs with different key documents."""
        spec = {"name": "tiny", "num_layers": 8, "hidden_size": 256, "num_heads": 4}
        as_int = tiny_query(custom_model=spec)
        as_float = tiny_query(custom_model=dict(spec, hidden_size=256.0))
        assert as_int.model_spec() == as_float.model_spec()
        cluster = resolve_cluster("infiniband", 8)
        for query in (as_int, as_float, as_int):
            assert query_keys(query) == [
                reference_key(query, candidate, cluster) for candidate in query.candidates()
            ]
        assert query_keys(as_int) != query_keys(as_float)


class TestComposedKeys:
    """A key assembled from per-section JSON is the key one ``json.dumps`` gives."""

    FLOAT_SPELLED_QUERY = dict(
        INT_SPELLED_QUERY, memory_cap_factors=[1.0, 2.0], stage_fractions=[1.0], dp_fractions=[1.0]
    )

    @staticmethod
    def assert_composed_keys_match_the_reference(query):
        clusters = {tier: resolve_cluster(tier, query.gpus) for tier in query.hardware}
        candidates = query.expand()
        assert composed_keys(query) == [
            reference_key(query, candidate, clusters[candidate.tier]) for candidate in candidates
        ]
        for candidate in candidates:
            assert candidate.plan.canonical_json() == json.dumps(
                candidate.plan.to_dict(), sort_keys=True, separators=(",", ":")
            )
        return candidates

    @pytest.mark.parametrize("name", sorted(PINNED_KEY_DIGESTS))
    def test_composed_keys_of_the_pinned_queries(self, name):
        """Incl. ``proxy_scaled``: sections rebuilt per plan, so none is shared by identity."""
        text, count, digest = PINNED_KEY_DIGESTS[name]
        query = SearchQuery.from_json(text)
        assert len(self.assert_composed_keys_match_the_reference(query)) == count
        keys = composed_keys(query)
        assert hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest() == digest

    def test_composed_keys_tell_int_from_float_spellings(self):
        """Equal sections met in either order in one process keep their own spelling."""
        ints = SearchQuery.from_dict(INT_SPELLED_QUERY)
        floats = SearchQuery.from_dict(self.FLOAT_SPELLED_QUERY)
        assert ints.expand() == floats.expand()
        for order in ((ints, floats), (floats, ints), (ints, floats)):
            for query in order:
                self.assert_composed_keys_match_the_reference(query)
        assert composed_keys(ints) != composed_keys(floats)

    def test_composed_key_emits_resilience_and_executor_only_when_set(self):
        query = tiny_query(max_candidates=1)
        (candidate,) = query.expand()
        cluster = resolve_cluster(candidate.tier, query.gpus)
        resilience = ResilienceSpec(
            faults=("nan@3:replica=1,stage=0", "hang@5"), max_grad_norm=1, worker_timeout=2.5
        )
        plans = [
            candidate.plan,
            candidate.plan.with_executor("process"),
            candidate.plan.with_resilience(ResilienceSpec(max_grad_norm=1.0)),
            dataclasses.replace(candidate.plan, resilience=resilience, executor="process"),
        ]
        keys = []
        for plan in plans:
            armed = dataclasses.replace(candidate, plan=plan)
            assert plan.canonical_json() == json.dumps(
                reference_plan_dict(plan), sort_keys=True, separators=(",", ":")
            )
            material = task_key_material(
                {"plan": plan, "model": query.model_document, "micro_batch_size": 8}, cluster
            )
            keys.append(cache_key(material))
            assert keys[-1] == reference_key(query, armed, cluster)
            assert keys[-1] == cache_key(task_key_material(armed.task(query), cluster))
        assert len(set(keys)) == len(plans)
        bare = plans[0].canonical_json()
        assert "resilience" not in bare and "executor" not in bare


class TestCorruptEntries:
    """The cache directory is outside input: a wrong entry is a miss, not a crash."""

    def corruptions(self, good: dict) -> dict[str, bytes]:
        """Byte strings to write where an entry's array of values was."""
        renamed = dict(good)
        renamed["tokens_per_s"] = renamed.pop("tokens_per_second")
        entries = {
            "extra_field": dict(good, stale_field=1.0),
            "missing_field": {k: v for k, v in good.items() if k != "bubble_fraction"},
            "non_finite": dict(good, peak_memory_gb=float("nan")),
            "text_value": dict(good, peak_memory_gb="12.5"),
            "boolean_value": dict(good, compression_loss=False),
        }
        mappings = dict(entries, other_field_set=renamed)
        return {
            "list": b"[]",
            "empty_mapping": b"{}",
            "number": b"0",
            "null": b"null",
            "not_utf8": b'{"tokens_per_second": "\xff"}',
            "not_utf8_value": b'["\xff"]',
            # The file-per-entry layout's spelling of an entry: a mapping.
            **{name: json.dumps(entry).encode("ascii") for name, entry in mappings.items()},
            # This layout's spelling: the values alone, in field-name order —
            # too many, too few, or as many as the header names but not numbers.
            **{
                f"{name}_values": json.dumps([entry[k] for k in sorted(entry)]).encode("ascii")
                for name, entry in entries.items()
            },
        }

    def test_corrupt_entry_is_reevaluated_and_repaired(self, tmp_path):
        query = tiny_query()
        pristine = tmp_path / "pristine"
        cold = run_search(query, workers=0, cache=SearchCache(pristine))
        # Corrupt the entry of the best-ranked candidate: a wrong value served
        # from it would show in the frontier.
        best = next(c for c in query.candidates() if c.index == cold.entries[0]["index"])
        key = cache_key(task_key_material(best.task(query), resolve_cluster(best.tier, query.gpus)))
        good = SearchCache(pristine).get(key)
        for name, corrupt in self.corruptions(good).items():
            root = tmp_path / name
            shutil.copytree(pristine, root)
            (segment,) = segments(root)
            replace_entry(segment, key, corrupt)
            # Each run is its own cache object, as each CLI invocation is; the
            # repair lands in a second segment, written after the corrupt one.
            os.utime(segment, ns=(0, 0))
            warm = run_search(query, workers=0, cache=SearchCache(root))
            assert warm.to_json() == cold.to_json(), name
            assert (warm.evaluated, warm.cache_hits) == (1, warm.candidates - 1), name
            assert warm.errors == 0, name
            assert len(segments(root)) == 2, name
            assert SearchCache(root).get(key) == good, name
            assert run_search(query, workers=0, cache=SearchCache(root)).evaluated == 0, name

    def test_corrupt_entry_is_repaired_in_a_long_lived_cache(self, tmp_path):
        """One object across the runs: the repair is appended to its own segment."""
        query = tiny_query()
        cache = SearchCache(tmp_path / "cache")
        cold = run_search(query, workers=0, cache=cache)
        (key,) = query_keys(tiny_query(max_candidates=1))
        (segment,) = segments(cache.root)
        fields = json.loads(segment.read_bytes().splitlines()[0])
        with segment.open("ab") as handle:  # append-only: a later line supersedes
            handle.write(f"{key} {json.dumps(['text'] * len(fields))}\n".encode("ascii"))
        warm = run_search(query, workers=0, cache=cache)
        assert warm.to_json() == cold.to_json()
        assert (warm.evaluated, warm.cache_hits) == (1, warm.candidates - 1)
        assert segments(cache.root) == [segment]
        assert run_search(query, workers=0, cache=cache).evaluated == 0


class TestCacheSegments:
    """What the append-only segment layout adds to the cache's contract."""

    def cold(self, root, **overrides):
        query = tiny_query(**overrides)
        return query, run_search(query, workers=0, cache=SearchCache(root))

    def test_segment_truncated_mid_line_loses_only_its_last_entry(self, tmp_path):
        query, cold = self.cold(tmp_path)
        (segment,) = segments(tmp_path)
        segment.write_bytes(segment.read_bytes()[:-10])
        warm = run_search(query, workers=0, cache=SearchCache(tmp_path))
        assert (warm.evaluated, warm.cache_hits) == (1, warm.candidates - 1)
        assert warm.to_json() == cold.to_json()

    @pytest.mark.parametrize(
        "header",
        [b"garbage", b"{}", b"[1, 2]", b'"tokens_per_second"', b"\xff\xfe", b"", None, "duplicated"],
    )
    def test_segment_with_unusable_header_is_ignored_whole(self, tmp_path, header):
        query, cold = self.cold(tmp_path)
        (segment,) = segments(tmp_path)
        fields, _, entries = segment.read_bytes().partition(b"\n")
        if header is None:  # a well-formed header that names other fields
            header = fields.replace(b"tokens_per_second", b"tokens_per_s")
        elif header == "duplicated":  # as many names as values, one of them twice
            names = json.loads(fields)
            header = json.dumps(names[:-1] + names[:1]).encode("ascii")
        segment.write_bytes(header + b"\n" + entries)
        os.utime(segment, ns=(0, 0))  # older than the segment the next run writes
        again = run_search(query, workers=0, cache=SearchCache(tmp_path))
        assert (again.evaluated, again.errors) == (again.candidates, 0)
        assert again.to_json() == cold.to_json()
        assert run_search(query, workers=0, cache=SearchCache(tmp_path)).evaluated == 0

    def test_segment_entries_must_match_their_own_header(self, tmp_path):
        cache = SearchCache(tmp_path)
        cache.put("aa" * 32, {"x": 1.0, "y": 2})
        cache.put("bb" * 32, {"x": 3.0})  # other field names: a segment of its own
        cache.flush()
        assert len(segments(tmp_path)) == 2
        reader = SearchCache(tmp_path)
        assert reader.get("aa" * 32) == {"x": 1.0, "y": 2}
        assert reader.get("bb" * 32) == {"x": 3.0}
        assert type(reader.get("aa" * 32)["y"]) is int
        cache.put("cc" * 32, {"y": 5, "x": 4.0})  # same names: same segment
        cache.flush()
        assert len(segments(tmp_path)) == 2
        assert cache.stats()["stores"] == 3

    def test_two_segment_writers_are_both_served_to_a_third_reader(self, tmp_path):
        first, second = SearchCache(tmp_path), SearchCache(tmp_path)
        first.put("aa" * 32, {"x": 1.0})
        second.put("bb" * 32, {"x": 2.0})
        first.flush()
        second.flush()
        assert len(segments(tmp_path)) == 2
        reader = SearchCache(tmp_path)
        assert (reader.get("aa" * 32), reader.get("bb" * 32)) == ({"x": 1.0}, {"x": 2.0})

    def test_later_written_segment_supersedes_an_earlier_one(self, tmp_path):
        for stamp, value in ((2_000_000_000, 2.0), (1_000_000_000, 1.0), (3_000_000_000, 3.0)):
            before = segments(tmp_path)
            writer = SearchCache(tmp_path)
            writer.put("aa" * 32, {"x": value})
            writer.flush()
            (written,) = set(segments(tmp_path)) - set(before)
            os.utime(written, ns=(stamp, stamp))
        assert SearchCache(tmp_path).get("aa" * 32) == {"x": 3.0}

    @pytest.mark.parametrize("full_first", [True, False])
    def test_narrower_entry_never_replaces_a_wider_one(self, tmp_path, full_first):
        """Two writers, either flush order: every reader ends up with the full entry."""
        full, narrow = {"x": 1.0, "y": 2.0, "z": 3.0}, {"x": 1.0, "z": 3.0}
        writers = [SearchCache(tmp_path), SearchCache(tmp_path)]
        for stamp, writer, payload in zip(
            (1_000_000_000, 2_000_000_000),
            writers,
            (full, narrow) if full_first else (narrow, full),
        ):
            before = segments(tmp_path)
            writer.put("aa" * 32, payload)
            writer.flush()
            (written,) = set(segments(tmp_path)) - set(before)
            os.utime(written, ns=(stamp, stamp))
        for reader in (*writers, SearchCache(tmp_path)):
            assert reader.get("aa" * 32) == full
        # Other names (not a subset) and the same names still supersede.
        for stamp, payload in ((3_000_000_000, {"x": 9.0, "w": 0.0}), (4_000_000_000, narrow)):
            before = segments(tmp_path)
            writer = SearchCache(tmp_path)
            writer.put("aa" * 32, payload)
            writer.flush()
            (written,) = set(segments(tmp_path)) - set(before)
            os.utime(written, ns=(stamp, stamp))
            assert SearchCache(tmp_path).get("aa" * 32) == payload

    def test_old_layout_tree_is_not_a_segment_and_reads_as_empty(self, tmp_path):
        query = tiny_query()
        (key, *_) = query_keys(query)
        shard = tmp_path / key[:2]
        shard.mkdir()
        (shard / f"{key}.json").write_text('{"tokens_per_second": 1.0}', encoding="ascii")
        (tmp_path / "notes.txt").write_text(f"{key} [1.0]\n", encoding="ascii")
        (tmp_path / "directory.seg").mkdir()
        reader = SearchCache(tmp_path)
        assert reader.get(key) is None
        outcome = run_search(query, workers=0, cache=reader)
        assert (outcome.evaluated, outcome.errors) == (outcome.candidates, 0)
        assert (shard / f"{key}.json").exists()  # ignored, not cleaned up

    def test_segment_is_written_by_flush_not_by_put(self, tmp_path):
        root = tmp_path / "cache"
        cache = SearchCache(root)
        cache.put("aa" * 32, {"x": 1.0})
        assert not root.exists() and cache.stats()["stores"] == 0
        assert SearchCache(root).get("aa" * 32) is None
        query, _ = self.cold(root)
        assert len(segments(root)) == 1  # run_search flushed its own cache, once
        assert all(SearchCache(root).get(key) is not None for key in query_keys(query))
        assert SearchCache(root).get("aa" * 32) is None

    def test_long_lived_reader_sees_a_segment_flushed_after_its_first_load(self, tmp_path):
        reader = SearchCache(tmp_path)
        query, _ = self.cold(tmp_path)
        assert run_search(query, workers=0, cache=reader).evaluated == 0
        other, _ = self.cold(tmp_path, micro_batch_size=4)
        (key, *_) = query_keys(other)
        assert reader.get(key) is None  # answered from the table, not the disk
        warm = run_search(other, workers=0, cache=reader)
        assert (warm.evaluated, warm.cache_hits) == (0, warm.candidates)
        assert reader.stats()["stores"] == 0

    def test_segment_is_smaller_than_one_file_per_entry_was(self, tmp_path):
        """The benchmark's ``traffic_mb_per_op`` is this directory's size."""
        query, _ = self.cold(tmp_path)
        reader = SearchCache(tmp_path)
        file_per_entry = sum(
            len(json.dumps(reader.get(key), sort_keys=True)) for key in query_keys(query)
        )
        on_disk = sum(path.stat().st_size for path in tmp_path.rglob("*") if path.is_file())
        assert 0 < on_disk < file_per_entry

    @pytest.mark.parametrize("blocked", ["root_is_a_file", "parent_is_a_file"])
    def test_unwritable_cache_costs_a_warning_not_the_answer(self, tmp_path, blocked):
        (tmp_path / "file").write_text("in the way", encoding="ascii")
        root = tmp_path / "file" if blocked == "root_is_a_file" else tmp_path / "file" / "cache"
        query = tiny_query()
        cache = SearchCache(root)
        with pytest.warns(RuntimeWarning, match=re.escape(str(root))) as caught:
            outcome = run_search(query, workers=0, cache=cache)
        assert len(caught) == 1
        assert outcome.to_json() == run_search(query, workers=0).to_json()
        assert (outcome.evaluated, outcome.errors) == (outcome.candidates, 0)
        assert cache.stats()["stores"] == 0
        assert (tmp_path / "file").read_text(encoding="ascii") == "in the way"


class TestWarmCache:
    def test_second_run_skips_all_evaluations(self, tmp_path):
        query = tiny_query()
        cache = SearchCache(tmp_path / "cache")
        cold = run_search(query, workers=0, cache=cache)
        assert cold.evaluated == cold.candidates and cold.cache_hits == 0
        warm = run_search(query, workers=0, cache=cache)
        assert warm.evaluated == 0
        assert warm.cache_hits == warm.candidates == cold.candidates
        assert warm.to_json() == cold.to_json()

    def test_changed_query_field_reevaluates(self, tmp_path):
        cache = SearchCache(tmp_path / "cache")
        run_search(tiny_query(), workers=0, cache=cache)
        bumped = run_search(tiny_query(micro_batch_size=4), workers=0, cache=cache)
        assert bumped.evaluated == bumped.candidates and bumped.cache_hits == 0


class TestPoolAndDeterminism:
    def test_json_identical_across_pool_sizes(self, tmp_path):
        query = tiny_query(max_candidates=30)
        inline = run_search(query, workers=0)
        pooled = run_search(query, workers=3)
        assert pooled.to_json() == inline.to_json()

    def test_pool_reports_worker_errors(self):
        query = tiny_query(max_candidates=2)
        good = query.expand()[0].task(query)
        bad = json.loads(json.dumps(good))
        bad["plan"]["topology"]["pp"] = -1
        with EvaluationPool(workers=2) as pool:
            results = pool.run([(0, good), (1, bad)])
        assert results[0][0] == "ok"
        assert results[1][0] == "error" and "must be positive" in results[1][1]

    def test_pool_survives_worker_crash(self, monkeypatch):
        """A worker dead before its first block: its share goes to the survivor."""
        query = tiny_query(max_candidates=12)
        tasks = [(c.index, c.task(query)) for c in query.expand()]
        after_fork(monkeypatch, lambda workers: kill_workers(workers[:1]))
        with EvaluationPool(workers=2) as pool:
            results = pool.run(tasks)
        assert sorted(results) == [index for index, _ in tasks]
        assert all(kind == "ok" for kind, _ in results.values())
        assert multiprocessing.active_children() == []

    def test_stalled_worker_is_killed_and_its_tasks_requeued(self, monkeypatch):
        """SIGSTOP one of two workers mid-query: same answer, bounded time, no orphan."""
        monkeypatch.setattr(pool_module, "WORKER_PROGRESS_DEADLINE_S", 0.5)
        query = tiny_query(max_candidates=120)
        tasks = [(c.index, c.task(query)) for c in query.expand()]
        with EvaluationPool(workers=0) as inline_pool:
            inline = inline_pool.run(tasks)

        drained = []
        stalled = []
        drain = EvaluationPool._drain

        def stop_a_worker_after_a_few_replies(worker, results):
            drained.append(worker)
            if len(drained) == 5:
                victim = pool._workers[0]
                assert victim.share and victim.outstanding  # mid-share
                stalled.append(victim.process)
                os.kill(victim.process.pid, signal.SIGSTOP)
            return drain(worker, results)

        monkeypatch.setattr(
            EvaluationPool, "_drain", staticmethod(stop_a_worker_after_a_few_replies)
        )
        with EvaluationPool(workers=2) as pool:
            started = time.monotonic()
            results = pool.run(tasks)
            elapsed = time.monotonic() - started
            assert stalled and not stalled[0].is_alive()  # killed by run() itself
        assert results == inline
        assert len(drained) > 5 and elapsed < 10.0
        assert multiprocessing.active_children() == []

    def test_stalled_idle_worker_does_not_survive_run(self, monkeypatch):
        """``terminate()`` never reaches a stopped process; teardown must escalate."""
        query = tiny_query(max_candidates=4)
        tasks = [(c.index, c.task(query)) for c in query.expand()]
        stopped = []
        drain = EvaluationPool._drain

        def stop_the_worker_once_it_owes_nothing(worker, results):
            alive = drain(worker, results)
            if len(results) == len(tasks):
                stopped.append(worker.process)
                os.kill(worker.process.pid, signal.SIGSTOP)
            return alive

        monkeypatch.setattr(
            EvaluationPool, "_drain", staticmethod(stop_the_worker_once_it_owes_nothing)
        )
        results = EvaluationPool(workers=1).run(tasks)
        assert all(kind == "ok" for kind, _ in results.values()) and len(results) == 4
        assert stopped and not stopped[0].is_alive()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failure", [RuntimeError, KeyboardInterrupt])
    def test_no_worker_outlives_a_run_that_raised(self, monkeypatch, failure):
        """Workers are reaped in ``run()``'s ``finally``, whatever ended the dispatch loop."""
        query = tiny_query(max_candidates=40)
        forked = []
        after_fork(monkeypatch, lambda workers: forked.extend(w.process for w in workers))

        def fail(worker, results):
            raise failure("dispatch loop interrupted")

        monkeypatch.setattr(EvaluationPool, "_drain", staticmethod(fail))
        pool = EvaluationPool(workers=2)
        with pytest.raises(failure, match="dispatch loop interrupted"):
            pool.run(inherited_tasks(query))
        assert len(forked) == 2 and not any(process.is_alive() for process in forked)
        assert pool._workers == [] and multiprocessing.active_children() == []
        pool.close()
        pool.close()

    def test_pool_forks_inside_run_and_only_for_work(self, monkeypatch):
        forked = []
        after_fork(monkeypatch, lambda workers: forked.append(len(workers)))
        pool = EvaluationPool(workers=2)
        pool.close()  # safe on a pool that never forked
        assert multiprocessing.active_children() == [] and forked == []
        assert pool.run([]) == {}
        assert forked == [0]  # a pass that evaluates nothing forks nothing
        query = tiny_query(max_candidates=6)
        assert len(pool.run(inherited_tasks(query))) == 6
        assert pool.run(inherited_tasks(query)[:1]).keys() == {0}
        assert forked == [0, 2, 1]  # never more workers than tasks
        assert multiprocessing.active_children() == []
        pool.close()

    def test_inherited_candidates_are_never_rebuilt(self, monkeypatch):
        """A worker evaluates the parent's validated objects; only a dict task is re-validated."""
        query = tiny_query(max_candidates=6, max_memory_gb=40.0)
        inherited = inherited_tasks(query)
        as_dicts = [(c.index, c.task(query)) for c in query.expand()]
        with EvaluationPool(workers=2) as pool:
            expected = pool.run(as_dicts)
            assert pool.run(inherited) == expected
        assert all(kind == "ok" for kind, _ in expected.values())

        def refuse(payload):
            raise AssertionError("a plan was rebuilt from a dict")

        monkeypatch.setattr(ParallelPlan, "from_dict", staticmethod(refuse))
        for workers in (0, 2):  # forked after the patch: the workers inherit it
            with EvaluationPool(workers=workers) as pool:
                assert pool.run(inherited) == expected
                rebuilt = pool.run(as_dicts[:2])
            assert all(
                kind == "error" and "a plan was rebuilt" in text for kind, text in rebuilt.values()
            )

    @pytest.mark.parametrize("workers", [0, 1, 2, 3])
    def test_inherited_candidates_give_one_answer_for_any_worker_count(self, tmp_path, workers):
        text = (REPO_ROOT / "examples/queries/gpt_2_5b_two_tier.json").read_text(encoding="utf-8")
        queries = [SearchQuery.from_json(text), tiny_query(max_memory_gb=40.0)]
        reference = [run_search(query, workers=0).to_json() for query in queries]
        cache = SearchCache(tmp_path / "cache")
        cold = run_queries(queries, workers=workers, cache=cache)
        assert multiprocessing.active_children() == []
        warm = [run_search(query, workers=workers, cache=cache) for query in queries]
        assert [outcome.to_json() for outcome in cold] == reference
        assert [outcome.to_json() for outcome in warm] == reference
        assert [outcome.evaluated for outcome in cold] == [o.candidates for o in cold]
        assert [outcome.evaluated for outcome in warm] == [0, 0]
        assert multiprocessing.active_children() == []

    def test_inline_matches_worker_evaluation(self):
        query = tiny_query(max_candidates=3)
        candidate = query.expand()[-1]
        task = candidate.task(query)
        with EvaluationPool(workers=1) as pool:
            pooled = pool.run([(candidate.index, task)])
        assert pooled[candidate.index] == ("ok", evaluate_task(task))

    def test_run_queries_shares_pool_and_cache(self, tmp_path):
        cache = SearchCache(tmp_path / "cache")
        queries = [tiny_query(), tiny_query()]  # identical: second is all cache hits
        first, second = run_queries(queries, workers=2, cache=cache)
        assert first.evaluated == first.candidates
        assert second.evaluated == 0 and second.cache_hits == second.candidates
        assert first.to_json() == second.to_json()


def budget_free(task: dict) -> dict:
    """``task`` without the query's budgets: always a full evaluation."""
    return {k: v for k, v in task.items() if k not in ("max_memory_gb", "max_compression_loss")}


def ladder_query(**overrides) -> SearchQuery:
    """168 candidates whose peaks straddle 40 and 80 GB and whose losses straddle 0.03 / 0.05."""
    defaults = dict(
        model="GPT-2.5B", gpus=16, micro_batches=(8,), dp_codecs=("none", "powersgd"),
        embedding=("none",),
    )
    defaults.update(overrides)
    return SearchQuery(**defaults)


class TestBudgetFirst:
    """A candidate a budget rejects is evaluated as far as the budget reads, and cached so."""

    def test_task_budgets_select_the_shape_not_the_numbers(self):
        query = ladder_query(max_memory_gb=40.0, max_compression_loss=0.03)
        shapes = set()
        for candidate in query.candidates():
            task = candidate.task(query)
            full = evaluate_task(budget_free(task))
            assert full.keys() == PlanEvaluation.from_dict(full).to_dict().keys()
            mine = evaluate_task(task)
            rejected = not within_budget(full, 40.0, 0.03)
            assert mine == (
                {k: full[k] for k in ("peak_memory_gb", "compression_loss")} if rejected else full
            )
            shapes.add(len(mine))
            plan = ParallelPlan.from_dict(task["plan"])
            cluster = resolve_cluster(candidate.tier, query.gpus)
            assert evaluate_plan(plan, query.model_spec(), cluster=cluster).to_dict() == full
        assert shapes == {2, len(full)}

    @pytest.mark.parametrize(
        "budget, tight, loose, metric",
        [
            ("max_memory_gb", 40.0, 80.0, "peak_memory_gb"),
            ("max_compression_loss", 0.03, 0.05, "compression_loss"),
        ],
    )
    def test_budget_ladder_on_one_cache_directory(self, tmp_path, budget, tight, loose, metric):
        values = [
            evaluate_task(budget_free(c.task(ladder_query())))[metric]
            for c in ladder_query().candidates()
        ]
        between = sum(tight < value <= loose for value in values)
        above = sum(value > loose for value in values)
        assert between > 0 and above > 0 and between + above < len(values)

        def run(bound, root=tmp_path / "cache"):
            return run_search(ladder_query(**{budget: bound}), workers=0, cache=SearchCache(root))

        cold = run(tight)
        assert (cold.evaluated, cold.cache_hits) == (cold.candidates, 0)
        assert cold.over_budget == between + above
        assert len(segments(tmp_path / "cache")) == 2  # full entries, budget-only entries
        warm = run(tight)
        assert (warm.evaluated, warm.cache_hits) == (0, warm.candidates)
        assert warm.to_json() == cold.to_json()
        looser = run(loose)
        assert (looser.evaluated, looser.over_budget) == (between, above)
        assert looser.to_json() == run(loose, tmp_path / "fresh").to_json()
        assert len(segments(tmp_path / "cache")) == 3  # the completed entries: full again
        again = run(tight)
        assert again.evaluated == 0 and again.to_json() == cold.to_json()
        unbounded = run(None)
        assert (unbounded.evaluated, unbounded.over_budget) == (above, 0)
        assert unbounded.to_json() == run_search(ladder_query(), workers=0).to_json()
        assert run(None).evaluated == run(loose).evaluated == run(tight).evaluated == 0

    def test_budget_ladder_in_one_batch(self, tmp_path):
        peaks = [
            evaluate_task(budget_free(c.task(ladder_query())))["peak_memory_gb"]
            for c in ladder_query().candidates()
        ]
        queries = [ladder_query(max_memory_gb=bound) for bound in (40.0, 80.0, 40.0)]
        cache = SearchCache(tmp_path / "cache")
        tight, loose, again = run_queries(queries, workers=2, cache=cache)
        assert tight.evaluated == tight.candidates
        assert loose.evaluated == sum(40.0 < peak <= 80.0 for peak in peaks)
        assert again.evaluated == 0 and again.to_json() == tight.to_json()
        alone = [run_search(query, workers=0) for query in queries[:2]]
        assert [tight.to_json(), loose.to_json()] == [outcome.to_json() for outcome in alone]

    def test_budget_only_entry_of_another_shape_is_a_miss(self, tmp_path):
        """Budget-only entries are outside input too: wrong names or values re-evaluate."""
        query = ladder_query(max_memory_gb=40.0)
        pristine = tmp_path / "pristine"
        cold = run_search(query, workers=0, cache=SearchCache(pristine))

        def narrow_segment(root):
            (narrow,) = [
                path for path in segments(root)
                if len(json.loads(path.read_bytes().splitlines()[0])) == 2
            ]
            return narrow

        header, *lines = narrow_segment(pristine).read_bytes().splitlines(keepends=True)
        assert json.loads(header) == ["compression_loss", "peak_memory_gb"]
        key = lines[0].split(b" ")[0].decode("ascii")
        corruptions = {
            "text": b'[0.5, "99"]', "non_finite": b"[0.5, NaN]", "too_few": b"[0.5]",
            # 12 GB is inside the budget: the entry cannot say what the timing was.
            "inside_the_budget": b"[0.5, 12.0]",
        }
        for name, corrupt in corruptions.items():
            root = tmp_path / name
            shutil.copytree(pristine, root)
            replace_entry(narrow_segment(root), key, corrupt)
            warm = run_search(query, workers=0, cache=SearchCache(root))
            assert (warm.evaluated, warm.to_json()) == (1, cold.to_json()), name
            assert run_search(query, workers=0, cache=SearchCache(root)).evaluated == 0, name
        root = tmp_path / "renamed"
        shutil.copytree(pristine, root)
        narrow_segment(root).write_bytes(
            header.replace(b"peak_memory_gb", b"peak_gb") + b"".join(lines)
        )
        assert run_search(query, workers=0, cache=SearchCache(root)).evaluated == len(lines)


FLAGSHIP_QUERY = (REPO_ROOT / "benchmarks/e2e/queries/flagship.json").read_text(encoding="utf-8")


class TestBitIdentityOracles:
    """Digests recorded at the commit before the per-class memos and budget-first landed."""

    def test_every_flagship_evaluation_is_unchanged_in_either_memo_fill_order(self):
        query = SearchQuery.from_json(FLAGSHIP_QUERY)
        tasks = [budget_free(candidate.task(query)) for candidate in query.candidates()]
        assert len(tasks) == 2800
        forward = [evaluate_task(task) for task in tasks]
        backward = [evaluate_task(task) for task in reversed(tasks)][::-1]
        for results in (forward, backward):
            text = "".join(json.dumps(result, sort_keys=True) for result in results)
            assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
                "122ca6c769e0379138dd0eb2da47aaa681a45026a6740c09ebbf041c00857100"
            )

    @pytest.mark.parametrize("workers", [0, 2])
    def test_flagship_frontier_is_unchanged_cold_and_warm(self, tmp_path, workers):
        """Re-pinned once, when each plan's three compression sections lost one
        key: the new answer is the old one without those 135 lines."""
        query = SearchQuery.from_json(FLAGSHIP_QUERY)
        cache = SearchCache(tmp_path / "cache")
        cold = run_search(query, workers=workers, cache=cache)
        warm = run_search(query, workers=workers, cache=SearchCache(cache.root))
        assert (cold.evaluated, warm.evaluated, warm.cache_hits) == (2800, 0, 2800)
        for outcome in (cold, warm):
            assert hashlib.sha256(outcome.to_json().encode("utf-8")).hexdigest() == (
                "437e606a0a1288f8998fb9d1b17a2baf97b543c8bf5c819cab153fe52fa8bf48"
            )


class TestPoolShares:
    """Contiguous shares, stealing and requeueing never change the result map."""

    @pytest.fixture(scope="class")
    def tasks(self):
        query = ladder_query(max_memory_gb=40.0)
        return [(c.index, c.task(query)) for c in query.expand()]

    @pytest.fixture(scope="class")
    def inline(self, tasks):
        with EvaluationPool(workers=0) as pool:
            return pool.run(tasks)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("count", [None, 2, 0])
    def test_same_result_map_for_any_worker_count(self, tasks, inline, workers, count):
        chosen = tasks[:count]  # the whole list, fewer tasks than workers, none
        inherited = inherited_tasks(ladder_query(max_memory_gb=40.0))[:count]
        with EvaluationPool(workers=workers) as pool:
            assert pool.run(chosen) == {index: inline[index] for index, _ in chosen}
            assert pool.run(chosen[::-1]) == {index: inline[index] for index, _ in chosen}
            assert pool.run(inherited) == {index: inline[index] for index, _ in chosen}
            assert pool._workers == [] and multiprocessing.active_children() == []

    def test_shares_are_contiguous_and_stealing_takes_the_back_half(self, tasks, monkeypatch):
        sent: dict[str, list[int]] = {}
        top_up = EvaluationPool._top_up

        def record(worker):
            before = {id(block) for block in worker.outstanding}
            alive = top_up(worker)
            assert sum(len(block) for block in worker.outstanding) <= pool_module.TASK_WINDOW
            for block in worker.outstanding:
                if id(block) not in before:
                    sent.setdefault(worker.process.name, []).extend(block)
            return alive

        monkeypatch.setattr(EvaluationPool, "_top_up", staticmethod(record))
        with EvaluationPool(workers=2) as pool:
            results = pool.run(tasks)
        first, second = sent["repro-search-0"], sent["repro-search-1"]
        assert sorted(results) == sorted(first + second) == list(range(len(tasks)))
        half = len(tasks) // 2
        assert first[:pool_module.TASK_WINDOW] == list(range(pool_module.TASK_WINDOW))
        assert second[:pool_module.TASK_WINDOW] == list(range(half, half + pool_module.TASK_WINDOW))
        for order in (first, second):  # runs of consecutive indices, a new run per steal
            runs = 1 + sum(b != a + 1 for a, b in zip(order, order[1:]))
            assert runs <= 1 + len(tasks).bit_length()

    def test_worker_killed_before_it_is_sent_anything_leaves_no_task_unanswered(
        self, tasks, inline, monkeypatch
    ):
        after_fork(monkeypatch, lambda workers: kill_workers(workers[:2]))
        with EvaluationPool(workers=3) as pool:
            assert pool.run(tasks) == inline
            assert pool.run(tasks[:1]) == {tasks[0][0]: inline[tasks[0][0]]}
        assert multiprocessing.active_children() == []

    def test_worker_killed_mid_share_has_its_unsent_share_requeued(
        self, tasks, inline, monkeypatch
    ):
        drained = []
        killed = []
        drain = EvaluationPool._drain

        def kill_the_first_worker_after_a_few_replies(worker, results):
            drained.append(worker)
            if len(drained) == 5:
                victim = pool._workers[0]
                assert victim.share and victim.outstanding  # mid-share: both get requeued
                killed.append(victim.process)
                os.kill(victim.process.pid, signal.SIGKILL)
            return drain(worker, results)

        monkeypatch.setattr(
            EvaluationPool, "_drain", staticmethod(kill_the_first_worker_after_a_few_replies)
        )
        with EvaluationPool(workers=2) as pool:
            assert pool.run(tasks) == inline
        assert killed and not killed[0].is_alive()
        assert multiprocessing.active_children() == []

    def test_every_worker_dead_finishes_inline(self, tasks, inline, monkeypatch):
        after_fork(monkeypatch, kill_workers)
        with EvaluationPool(workers=2) as pool:
            assert pool.run(tasks) == inline
        assert multiprocessing.active_children() == []


class TestFrontier:
    def metrics(self, tokens, wire, memory, loss=0.0):
        return {
            "tokens_per_second": tokens,
            "wire_bytes_total": wire,
            "peak_memory_gb": memory,
            "compression_loss": loss,
        }

    def test_dominated_points_are_dropped(self):
        points = [
            (0, self.metrics(100.0, 10.0, 1.0)),
            (1, self.metrics(90.0, 20.0, 2.0)),  # dominated by 0
            (2, self.metrics(80.0, 5.0, 3.0)),  # cheaper wire: survives
        ]
        assert [index for index, _ in pareto_frontier(points)] == [0, 2]

    def test_duplicate_triples_keep_lowest_index(self):
        points = [
            (5, self.metrics(100.0, 10.0, 1.0)),
            (3, self.metrics(100.0, 10.0, 1.0)),
        ]
        assert [index for index, _ in pareto_frontier(points)] == [3]

    def test_ranking_orders_by_weighted_score(self):
        frontier = [
            (0, self.metrics(100.0, 100.0, 1.0)),
            (1, self.metrics(50.0, 10.0, 1.0)),
        ]
        fast_first = rank_frontier(frontier, ObjectiveWeights(throughput=1.0, wire=0.1))
        cheap_first = rank_frontier(frontier, ObjectiveWeights(throughput=0.1, wire=1.0))
        assert [entry.index for entry in fast_first] == [0, 1]
        assert [entry.index for entry in cheap_first] == [1, 0]

    def test_budgets_filter(self):
        metrics = self.metrics(10.0, 1.0, 50.0, loss=0.4)
        assert within_budget(metrics, None, None)
        assert not within_budget(metrics, 40.0, None)
        assert not within_budget(metrics, None, 0.3)

    def test_negative_weights_raise(self):
        with pytest.raises(ValueError, match="non-negative"):
            ObjectiveWeights(throughput=-1.0)


class TestSearchProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        gpus=st.sampled_from([8, 16]),
        micro_batches=st.sampled_from([(4,), (8,), (4, 8)]),
        schedules=st.sampled_from([("1f1b",), ("zb1",), ("1f1b", "zb1")]),
        max_memory_gb=st.sampled_from([None, 40.0, 200.0]),
        max_compression_loss=st.sampled_from([None, 0.2, 0.5]),
        weight_wire=st.sampled_from([0.0, 0.25, 1.0]),
    )
    def test_fuzzed_queries_are_deterministic_and_nondominated(
        self, gpus, micro_batches, schedules, max_memory_gb, max_compression_loss, weight_wire
    ):
        query = SearchQuery(
            model="GPT-2.5B",
            gpus=gpus,
            micro_batches=micro_batches,
            schedules=schedules,
            max_memory_gb=max_memory_gb,
            max_compression_loss=max_compression_loss,
            weight_wire=weight_wire,
            max_candidates=16,
        )
        first = run_search(query, workers=0)
        second = run_search(query, workers=0)
        assert first.to_json() == second.to_json()
        entries = first.entries
        assert len(entries) <= first.within_budget <= first.candidates
        for entry in entries:
            assert within_budget(entry["metrics"], max_memory_gb, max_compression_loss)
        for mine in entries:
            for theirs in entries:
                if mine is theirs:
                    continue
                strictly_better_everywhere = (
                    theirs["metrics"]["tokens_per_second"]
                    > mine["metrics"]["tokens_per_second"]
                    and theirs["metrics"]["wire_bytes_total"]
                    < mine["metrics"]["wire_bytes_total"]
                    and theirs["metrics"]["peak_memory_gb"]
                    < mine["metrics"]["peak_memory_gb"]
                )
                assert not strictly_better_everywhere


    @settings(max_examples=25, deadline=None)
    @given(
        gpus=st.sampled_from([8, 16, 64]),
        hardware=st.sampled_from([("infiniband",), ("ethernet", "infiniband")]),
        micro_batch_size=st.sampled_from([4, 8]),
        schedules=st.sampled_from([("1f1b",), ("auto", "zb1"), ("serial", "auto")]),
        memory_cap_factors=st.sampled_from([(1,), (1.0, 2), (1.5,)]),
        stage_fractions=st.sampled_from([(1,), (0.75, 1.0)]),
        dp_fractions=st.sampled_from([(1,), (0.01,)]),
        pp_codecs=st.sampled_from([("none",), ("none", "powersgd", "topk")]),
        proxy_scale_max_rank=st.sampled_from([None, 2]),
        custom_hidden=st.sampled_from([None, 256, 256.0]),
    )
    def test_fuzzed_query_keys_match_the_reference_spelling(
        self, gpus, hardware, micro_batch_size, schedules, memory_cap_factors, stage_fractions,
        dp_fractions, pp_codecs, proxy_scale_max_rank, custom_hidden,
    ):
        """Shared documents and per-section serialisation never change a key."""
        custom_model = None
        if custom_hidden is not None:
            custom_model = {
                "name": "tiny", "num_layers": 8, "hidden_size": custom_hidden, "num_heads": 4,
            }
        query = SearchQuery(
            model="GPT-2.5B", custom_model=custom_model, gpus=gpus, hardware=hardware,
            micro_batch_size=micro_batch_size, schedules=schedules,
            memory_cap_factors=memory_cap_factors, stage_fractions=stage_fractions,
            dp_fractions=dp_fractions, pp_codecs=pp_codecs,
            proxy_scale_max_rank=proxy_scale_max_rank, max_candidates=60,
        )
        fresh_clusters = {  # equal to the resolved ones, but never seen by any memo
            tier: dataclasses.replace(resolve_cluster(tier, gpus)) for tier in hardware
        }
        candidates = query.expand()
        assert query_keys(query) == [
            reference_key(query, candidate, fresh_clusters[candidate.tier])
            for candidate in candidates
        ]
        for candidate in candidates[::7]:
            assert candidate.task(query)["plan"] == reference_plan_dict(candidate.plan)
            assert cache_key(
                task_key_material(candidate.task(query), fresh_clusters[candidate.tier])
            ) == reference_key(query, candidate, fresh_clusters[candidate.tier])

    @settings(max_examples=60, deadline=None)
    @given(
        topology=st.builds(
            Topology,
            dp=st.integers(1, 8), pp=st.integers(1, 8), tp=st.sampled_from([1, 2]),
            micro_batches=st.integers(1, 16),
        ),
        schedule=st.one_of(
            st.builds(
                Schedule,
                kind=st.sampled_from(["1f1b", "serial"]),
                num_model_chunks=st.integers(1, 3),
                dp_fire=st.sampled_from(["stage", "micro_batch"]),
            ),
            st.builds(
                Schedule,
                kind=st.sampled_from(["zb1", "auto"]),
                memory_cap_factor=st.sampled_from([1, 1.0, 2, 1.5]),
            ),
        ),
        dp=st.builds(
            CompressionSpec,
            codec=st.sampled_from(["none", "powersgd", "qsgd", "topk"]),
            rank=st.integers(1, 256), bits=st.integers(1, 8),
            fraction=st.sampled_from([1, 1.0, 0.01]), stage_fraction=st.sampled_from([0, 1, 0.75]),
            error_feedback=st.booleans(), min_elements=st.integers(0, 4096),
        ),
        pp=st.builds(
            CompressionSpec,
            codec=st.sampled_from(["none", "powersgd", "topk"]),
            rank=st.integers(1, 64), epilogue_only=st.booleans(),
        ),
        embedding=st.sampled_from(["none", "fused"]),
        resilience=st.one_of(
            st.none(),
            st.builds(
                ResilienceSpec,
                faults=st.sampled_from([(), ("crash@5",), ("nan@3:replica=1,stage=0", "crash@5")]),
                max_grad_norm=st.sampled_from([None, 1, 1.0]),
                worker_timeout=st.sampled_from([None, 5, 2.5]),
                seed=st.integers(0, 9),
            ),
        ),
        executor=st.sampled_from(["serial", "process"]),
    )
    def test_fuzzed_plan_dicts_match_the_asdict_spelling(
        self, topology, schedule, dp, pp, embedding, resilience, executor
    ):
        """Field-read serialisation is ``dataclasses.asdict`` without the deep copy."""
        plan = ParallelPlan(
            topology=topology,
            schedule=schedule,
            compression={
                Boundary.DP: dp, Boundary.PP: pp,
                Boundary.EMBEDDING: CompressionSpec(codec=embedding, rank=16),
            },
            resilience=resilience,
            executor=executor,
        )
        mine, reference = plan.to_dict(), reference_plan_dict(plan)
        assert mine == reference
        # ``==`` cannot tell 1 from 1.0 or a reordered dict from the original; bytes can.
        assert json.dumps(mine) == json.dumps(reference)
        assert plan.canonical_json() == json.dumps(
            reference, sort_keys=True, separators=(",", ":"), ensure_ascii=True
        )
        assert ParallelPlan.from_dict(mine) == plan


class TestSearchCli:
    def run_cli(self, capsys, *argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_search_json_smoke_and_warm_cache(self, capsys, tmp_path):
        argv = [
            "search", "--model", "GPT-2.5B", "--gpus", "8", "--max-candidates", "20",
            "--workers", "0", "--cache-dir", str(tmp_path / "cache"), "--json",
        ]
        code, cold_out, cold_err = self.run_cli(capsys, *argv)
        assert code == 0
        assert "20 candidates (0 over budget): 20 evaluated, 0 cached" in cold_err
        code, warm_out, warm_err = self.run_cli(capsys, *argv)
        assert code == 0
        assert "0 evaluated, 20 cached" in warm_err
        assert warm_out == cold_out  # byte-identical across cold/warm runs
        payload = json.loads(cold_out)
        assert payload["candidates"] == 20
        assert payload["frontier"][0]["rank"] == 1

    def test_search_table_output(self, capsys, tmp_path):
        code, out, _ = self.run_cli(
            capsys,
            "search", "--model", "GPT-2.5B", "--gpus", "8", "--max-candidates", "12",
            "--workers", "0", "--no-cache", "--top", "3",
        )
        assert code == 0
        assert "Pareto-optimal" in out and "Tokens/s" in out
        assert "(12 candidates, 0 over budget)" in out and "evaluated)" not in out

    def test_search_query_file_and_budget(self, capsys, tmp_path):
        query_file = tmp_path / "q.json"
        query_file.write_text(
            json.dumps(
                {"model": "GPT-2.5B", "gpus": 8, "max_candidates": 12, "max_memory_gb": 100.0}
            ),
            encoding="utf-8",
        )
        code, out, _ = self.run_cli(
            capsys,
            "search", "--query", str(query_file), "--workers", "0", "--no-cache", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["query"]["max_memory_gb"] == 100.0
        for entry in payload["frontier"]:
            assert entry["metrics"]["peak_memory_gb"] <= 100.0

    def test_search_batch_mode(self, capsys, tmp_path):
        batch = tmp_path / "batch.json"
        batch.write_text(
            json.dumps(
                {
                    "queries": [
                        {"model": "GPT-2.5B", "gpus": 8, "max_candidates": 10},
                        {"model": "GPT-2.5B", "gpus": 16, "max_candidates": 10},
                    ]
                }
            ),
            encoding="utf-8",
        )
        code, out, err = self.run_cli(
            capsys,
            "search", "--queries", str(batch), "--workers", "0",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 0
        assert out.count("Pareto-optimal") == 2
        assert err.count("[search]") == 2

    def test_query_and_queries_are_exclusive(self, capsys):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            cli.main(["search", "--query", "a.json", "--queries", "b.json"])

    def test_invalid_query_file_fails_loudly(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"modle": "GPT-2.5B"}), encoding="utf-8")
        with pytest.raises(SystemExit, match="invalid query file"):
            cli.main(["search", "--query", str(bad)])


class TestDocsCli:
    def test_reference_matches_checked_in_file(self, capsys):
        assert cli.main(["docs", "cli", "--check"]) == 0

    def test_output_writes_rendered_reference(self, capsys, tmp_path):
        target = tmp_path / "CLI.md"
        assert cli.main(["docs", "cli", "--output", str(target)]) == 0
        text = target.read_text(encoding="utf-8")
        assert text.startswith("# `repro` CLI reference")
        for subcommand in ("repro search", "repro docs cli", "repro train", "repro plan diff"):
            assert f"`{subcommand}`" in text

    def test_stale_reference_fails_check(self, capsys, tmp_path):
        target = tmp_path / "CLI.md"
        target.write_text("stale\n", encoding="utf-8")
        with pytest.raises(SystemExit, match="stale"):
            cli.main(["docs", "cli", "--check", "--output", str(target)])


class TestAcceptance:
    def test_gpt83b_query_thousand_candidates_deterministic(self, tmp_path):
        """PR-10 acceptance: >= 1000 candidates, deterministic frontier, warm skip."""
        query = SearchQuery()  # GPT-8.3B on 128 GPUs, default sweep
        cache = SearchCache(tmp_path / "cache")
        cold = run_search(query, workers=4, cache=cache)
        assert cold.candidates >= 1000
        assert cold.errors == 0
        assert cold.evaluated == cold.candidates
        assert cold.entries, "default query must produce a non-empty frontier"
        warm = run_search(query, workers=4, cache=cache)
        assert warm.evaluated == 0 and warm.cache_hits == warm.candidates
        assert warm.to_json() == cold.to_json()

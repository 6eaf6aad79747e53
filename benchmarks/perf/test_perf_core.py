"""Perf smoke benchmark: runs the BENCH_core harness and asserts its headline claims.

Lives in the ``benchmarks/`` tree so the shared conftest auto-marks it
``slow``/``benchmark`` and CI runs it in the non-blocking benchmark job, which
uploads the emitted ``.bench_build/BENCH_core.json`` as an artifact and diffs it
against the committed baseline ``benchmarks/results/BENCH_core.json``
(``check_regression.py``).  The committed file is never written here — moving
the baseline is ``bench_core.py --update-baseline``.
"""

from __future__ import annotations

import json

from bench_core import FRESH_PATH, RESULTS_PATH, run_all, write_results
from check_regression import compare


def test_bench_core_smoke():
    baseline_before = RESULTS_PATH.read_bytes()
    results = run_all(optimizer_repeats=3, engine_repeats=3, codec_repeats=3)
    path = write_results(results)

    # Headline claim of the flat-arena core: the fused optimizer step is at least
    # 2x the per-parameter loop (measured ~4-5x on CI-class CPUs).
    assert results["optimizer_step"]["speedup"] >= 2.0, results["optimizer_step"]

    # The bucketed, overlap-ordered DP path must never cost more than the frozen
    # per-parameter walk (measured ~1.2-1.4x faster; the bound is loose for CI noise).
    assert results["engine_iteration"]["speedup"] >= 0.9, results["engine_iteration"]

    # Codec round-trips complete and report sane throughput; the packed-QSGD
    # kernel rewrite is the headline (committed baseline was 159.8 MB/s before
    # the zero-allocation kernels — assert a conservative floor well above it).
    for codec in ("powersgd", "qsgd", "topk"):
        entry = results["codec_roundtrip"][codec]
        assert entry["roundtrip_ms"] > 0.0
        assert entry["mb_per_s"] > 0.0
        assert entry["into_mb_per_s"] > 0.0
    # Absolute MB/s depends on the runner's memory bandwidth; the floor is set
    # well below the dev-machine ~900 MB/s but far above the ~160 MB/s the
    # pre-kernel implementation measured anywhere.
    assert results["codec_roundtrip"]["qsgd"]["mb_per_s"] >= 300.0, (
        results["codec_roundtrip"]["qsgd"]
    )

    # The per-bucket codec path (one invocation per bucket, workspace kernels)
    # must never lose to the per-parameter walk; parity of the gradients is
    # asserted inside the benchmark itself.  (Bound loose for CI-runner noise:
    # measured 1.0-1.2x on the probe models.)
    for codec in ("powersgd", "qsgd", "topk"):
        entry = results["compressed_dp_iteration"][codec]
        assert entry["speedup"] >= 0.8, (codec, entry)

    # The zero-bubble schedule: the simulated speedup and bubble reduction are
    # deterministic model outputs — assert the claims exactly, not loosely.
    schedule = results["schedule_iteration"]
    assert schedule["sim_speedup"] > 1.0, schedule
    assert schedule["bubble_zb1"] < schedule["bubble_1f1b"], schedule
    assert schedule["bubble_ratio"] > 1.0, schedule
    # The functional replay does the same arithmetic with a dependency-ordered
    # loop; it must not collapse (bound loose — pure Python dispatch noise).
    assert schedule["functional_relative"] >= 0.5, schedule

    # The synthesized schedule: deterministic acceptance claims.  At cap 1x the
    # synthesizer degenerates to zb1 exactly; at cap 2x the extra in-flight
    # forwards buy a strictly lower bubble and a strictly faster iteration.
    auto = results["auto_schedule"]
    assert abs(auto["bubble_ratio_cap1"] - 1.0) < 0.01, auto
    assert auto["bubble_auto_cap2"] < auto["bubble_zb1"], auto
    assert auto["sim_speedup_vs_zb1_cap2"] > 1.0, auto
    # Monotone in the cap: more memory never hurts.
    assert auto["bubble_auto_cap15"] <= auto["bubble_auto_cap1"] + 1e-9, auto
    assert auto["bubble_auto_cap2"] <= auto["bubble_auto_cap15"] + 1e-9, auto
    # Weight parity across 1f1b/zb1/auto is exact, not approximate.
    assert auto["functional_parity_delta"] == 0.0, auto

    # The guarded loop's cost: pure reads on the fault-free path, so it must
    # stay within noise of the unguarded loop (weight parity is asserted inside
    # the benchmark).  Bound loose for CI noise; measured ~0.95-1.05x.
    resilience = results["resilience_overhead"]
    assert resilience["guarded_over_unguarded"] <= 1.5, resilience
    assert resilience["snapshot_ms"] > 0.0, resilience

    # Checkpoint v8 stores each member from its live buffer: even on a slow
    # runner it stays far above the ~25 MB/s the deflating v2 writer managed.
    checkpoint = results["checkpoint_io"]
    assert checkpoint["save_mb_per_s"] >= 100.0, checkpoint
    assert checkpoint["load_mb_per_s"] >= 100.0, checkpoint

    # The process executor: parity is the hard claim (asserted inside the
    # benchmark too); wall-clock speedup is machine-dependent — >1x needs spare
    # cores for the 4 workers, so the smoke only bounds the overhead, and the
    # recorded cpu_count lets the committed number be read in context.
    executor = results["process_executor"]
    assert executor["bit_parity"] is True, executor
    assert executor["workers"] >= 4, executor
    assert executor["speedup"] > 0.0, executor

    # Self-healing supervision: bit parity after externally injected kills is
    # the hard claim (asserted inside the benchmark); the fault-free overhead
    # is bounded loosely (per-iteration snapshot + CB fetch; measured
    # ~1.1-1.5x on the tiny probe, where fixed costs loom largest), and every
    # kill must have produced a ledgered respawn.
    recovery = results["worker_recovery"]
    assert recovery["bit_parity"] is True, recovery
    assert recovery["respawns"] >= recovery["kills"] >= 1, recovery
    assert recovery["supervised_over_unsupervised"] <= 3.0, recovery
    assert recovery["respawns_per_s"] > 0.0, recovery

    # The plan-search cache: the warm rerun answers entirely from disk (zero
    # simulator evaluations and byte-identical JSON are asserted inside the
    # benchmark); the wall-clock speedup must be real, not marginal — a cache
    # read is orders of magnitude cheaper than a simulator evaluation, so the
    # bound stays loose only for CI filesystem noise.
    search = results["plan_search"]
    assert search["warm_evaluated"] == 0, search
    assert search["warm_cache_hits"] == search["candidates"], search
    assert search["candidates"] >= 50, search
    assert search["warm_speedup"] >= 1.5, search
    assert search["frontier_size"] >= 1, search

    # The artifact is valid JSON on disk where CI picks it up — in scratch; the
    # committed baseline is untouched (a baseline tier-1 overwrites absorbs
    # regressions silently, ROADMAP item 1).
    assert path == FRESH_PATH
    reloaded = json.loads(path.read_text(encoding="utf-8"))
    assert reloaded["benchmark"] == "BENCH_core"
    assert RESULTS_PATH.read_bytes() == baseline_before


def test_regression_checker_flags_real_drops():
    """The CI gate: identical payloads pass; a >30% drop on a tracked metric fails."""
    baseline = {
        "optimizer_step": {"speedup": 4.0},
        "engine_iteration": {"speedup": 1.2},
        "codec_roundtrip": {
            "powersgd": {"mb_per_s": 2000.0, "into_mb_per_s": 2100.0},
            "qsgd": {"mb_per_s": 800.0, "into_mb_per_s": 900.0},
            "topk": {"mb_per_s": 1500.0, "into_mb_per_s": 1600.0},
        },
        "compressed_dp_iteration": {
            "powersgd": {"speedup": 1.1},
            "qsgd": {"speedup": 1.2},
            "topk": {"speedup": 1.3},
        },
        "schedule_iteration": {"sim_speedup": 1.13, "bubble_ratio": 1.5},
        "auto_schedule": {"sim_speedup_vs_zb1_cap2": 1.08, "bubble_ratio_cap1": 1.0},
        "resilience_overhead": {"unguarded_over_guarded": 0.97},
        "checkpoint_io": {"save_mb_per_s": 400.0, "load_mb_per_s": 600.0},
        "process_executor": {"speedup": 1.0},
        "worker_recovery": {"unsupervised_over_supervised": 0.95, "respawns_per_s": 2.0},
    }
    same, _ = compare(baseline, baseline, tolerance=0.30)
    assert same == []

    regressed = json.loads(json.dumps(baseline))
    regressed["codec_roundtrip"]["qsgd"]["mb_per_s"] = 300.0  # -62%
    failures, _ = compare(baseline, regressed, tolerance=0.30)
    assert len(failures) == 1 and "qsgd" in failures[0]

    # Wobble inside the tolerance band never fails.
    wobbly = json.loads(json.dumps(baseline))
    wobbly["optimizer_step"]["speedup"] = 3.0  # -25%
    failures, _ = compare(baseline, wobbly, tolerance=0.30)
    assert failures == []


def test_regression_checker_hard_fails_on_missing_fresh_metric():
    """A tracked metric absent from the fresh payload must fail, not skip.

    This used to slip through silently: ``_lookup`` returned ``None`` and the
    comparison skipped, so deleting (or renaming) a whole benchmark section
    passed the gate.  Missing from the *baseline* stays a skip (benchmarks
    newer than the committed file have nothing to compare against).
    """
    baseline = {
        "optimizer_step": {"speedup": 4.0},
        "engine_iteration": {"speedup": 1.2},
        "codec_roundtrip": {
            "powersgd": {"mb_per_s": 2000.0, "into_mb_per_s": 2100.0},
            "qsgd": {"mb_per_s": 800.0, "into_mb_per_s": 900.0},
            "topk": {"mb_per_s": 1500.0, "into_mb_per_s": 1600.0},
        },
        "compressed_dp_iteration": {
            "powersgd": {"speedup": 1.1},
            "qsgd": {"speedup": 1.2},
            "topk": {"speedup": 1.3},
        },
        "schedule_iteration": {"sim_speedup": 1.13, "bubble_ratio": 1.5},
        "auto_schedule": {"sim_speedup_vs_zb1_cap2": 1.08, "bubble_ratio_cap1": 1.0},
        "resilience_overhead": {"unguarded_over_guarded": 0.97},
        "checkpoint_io": {"save_mb_per_s": 400.0, "load_mb_per_s": 600.0},
        "process_executor": {"speedup": 1.0},
        "worker_recovery": {"unsupervised_over_supervised": 0.95, "respawns_per_s": 2.0},
    }

    # Whole tracked section gone from the fresh run: one hard failure per
    # tracked metric it contained, each naming the metric.
    fresh = json.loads(json.dumps(baseline))
    del fresh["compressed_dp_iteration"]
    failures, lines = compare(baseline, fresh, tolerance=0.30)
    assert len(failures) == 3
    assert all("missing from fresh" in failure for failure in failures)
    assert any("compressed_dp_iteration.qsgd.speedup" in failure for failure in failures)
    assert sum(line.startswith("FAIL") for line in lines) == 3

    # One leaf key gone (renamed metric): also a hard failure.
    fresh = json.loads(json.dumps(baseline))
    del fresh["schedule_iteration"]["bubble_ratio"]
    failures, _ = compare(baseline, fresh, tolerance=0.30)
    assert len(failures) == 1 and "schedule_iteration.bubble_ratio" in failures[0]

    # Missing only from the baseline (new benchmark): skipped, never failed.
    older_baseline = json.loads(json.dumps(baseline))
    del older_baseline["auto_schedule"]
    failures, lines = compare(older_baseline, baseline, tolerance=0.30)
    assert failures == []
    assert any(line.startswith("SKIP") for line in lines)

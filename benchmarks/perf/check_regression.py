"""Compare a fresh BENCH_core.json against the committed baseline.

CI runs the benchmark harness (which writes its fresh payload to the git-ignored
``.bench_build/BENCH_core.json`` and never touches the committed baseline),
then calls this script::

    python benchmarks/perf/check_regression.py \
        --baseline benchmarks/results/BENCH_core.json \
        --fresh .bench_build/BENCH_core.json

Every tracked metric is a higher-is-better ratio (speedups and MB/s).  A metric
that drops more than ``--tolerance`` (default 30 %) below the committed value
fails the check, so perf wins cannot silently erode.  A tracked metric missing
from the *fresh* payload is a hard failure — that means the benchmark stopped
emitting it (renamed, deleted, or crashed mid-run), exactly the silent erosion
the gate exists to catch.  A metric missing only from the *baseline* (a benchmark
newer than the committed file) is reported as a skip and never fails.

The speedup metrics are ratios of two runs on the same machine and compare
cleanly across hardware; the MB/s metrics are absolute and inherit the committed
baseline's memory bandwidth, so a much slower runner can trip them spuriously —
which is why the CI job that runs this check is non-blocking (the failure reads
as a loud warning, and the uploaded artifact shows which kind it was).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: ``(json-path, leaf)`` pairs of the tracked higher-is-better metrics.
TRACKED_METRICS = [
    ("optimizer_step", "speedup"),
    ("engine_iteration", "speedup"),
    ("codec_roundtrip.powersgd", "mb_per_s"),
    ("codec_roundtrip.qsgd", "mb_per_s"),
    ("codec_roundtrip.topk", "mb_per_s"),
    ("codec_roundtrip.powersgd", "into_mb_per_s"),
    ("codec_roundtrip.qsgd", "into_mb_per_s"),
    ("codec_roundtrip.topk", "into_mb_per_s"),
    ("compressed_dp_iteration.powersgd", "speedup"),
    ("compressed_dp_iteration.qsgd", "speedup"),
    ("compressed_dp_iteration.topk", "speedup"),
    # Deterministic simulator outputs (zb1 vs 1f1b): any drop is a real model
    # change, never runner noise.
    ("schedule_iteration", "sim_speedup"),
    ("schedule_iteration", "bubble_ratio"),
    # Synthesized schedule vs zb1 (deterministic too): cap 2x must keep beating
    # zb1 on iteration time, and the bubble ratio at cap 1x must stay pinned at
    # 1.0 (degeneration to zb1) — tracked as a higher-is-better inverse.
    ("auto_schedule", "sim_speedup_vs_zb1_cap2"),
    ("auto_schedule", "bubble_ratio_cap1"),
    # Guarded-loop cost relative to the unguarded loop (higher is better: the
    # ratio sits just below 1.0 and drops if guarding gets more expensive).
    ("resilience_overhead", "unguarded_over_guarded"),
    # Checkpoint format v8 write/read throughput: stored members written from
    # the live buffers, weights and moments once per DP group.  Absolute MB/s
    # (disk- and memory-bound), same-machine comparable like the codec numbers.
    ("checkpoint_io", "save_mb_per_s"),
    ("checkpoint_io", "load_mb_per_s"),
    # Serial replica loop vs the forked shared-memory executor.  The absolute
    # value is machine-dependent (>1x only with spare cores), but the fresh/
    # committed ratio compares same-machine runs like every other speedup here.
    ("process_executor", "speedup"),
    # Self-healing supervision: fault-free recovery-point overhead (ratio just
    # below 1.0, drops if snapshotting gets dearer) and the kill -> respawn ->
    # replay healing rate (machine-dependent, same-machine comparable).
    ("worker_recovery", "unsupervised_over_supervised"),
    ("worker_recovery", "respawns_per_s"),
    # ``plan_search.warm_speedup`` is not tracked: it is cold / warm, so a
    # faster cold pass reads as a regression.  BENCH_e2e's ``search_cold`` and
    # ``search_warm`` gate both latencies; ``bench_plan_search`` still asserts
    # zero warm evaluations and a byte-equal frontier.
]


def _lookup(payload: dict, dotted: str, leaf: str) -> float | None:
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    value = node.get(leaf) if isinstance(node, dict) else None
    return float(value) if isinstance(value, (int, float)) else None


def compare(baseline: dict, fresh: dict, tolerance: float) -> tuple[list[str], list[str]]:
    """Return ``(failures, report_lines)`` for the tracked metrics."""
    failures: list[str] = []
    lines: list[str] = []
    for dotted, leaf in TRACKED_METRICS:
        name = f"{dotted}.{leaf}"
        old = _lookup(baseline, dotted, leaf)
        new = _lookup(fresh, dotted, leaf)
        if new is None:
            # A tracked metric vanished from the fresh run: the benchmark was
            # renamed, deleted, or crashed before emitting it.  Silently
            # skipping here would let the whole section rot unnoticed.
            failures.append(
                f"{name}: missing from fresh results — the benchmark no longer "
                "emits this tracked metric (update TRACKED_METRICS if the "
                "rename/removal is intentional)"
            )
            lines.append(f"FAIL {name}: baseline={old} fresh=MISSING")
            continue
        if old is None:
            # Baseline predates this benchmark — nothing to compare against yet.
            lines.append(f"SKIP {name}: baseline=MISSING fresh={new:.3g}")
            continue
        ratio = new / old if old > 0 else float("inf")
        status = "OK  "
        if ratio < 1.0 - tolerance:
            status = "FAIL"
            failures.append(
                f"{name}: {old:.3g} -> {new:.3g} ({ratio - 1.0:+.1%}, "
                f"tolerance -{tolerance:.0%})"
            )
        lines.append(f"{status} {name}: {old:.3g} -> {new:.3g} ({ratio - 1.0:+.1%})")
    return failures, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, type=pathlib.Path,
                        help="committed BENCH_core.json")
    parser.add_argument("--fresh", required=True, type=pathlib.Path,
                        help="freshly measured BENCH_core.json")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional drop before failing (default 0.30)")
    arguments = parser.parse_args(argv)

    baseline = json.loads(arguments.baseline.read_text(encoding="utf-8"))
    fresh = json.loads(arguments.fresh.read_text(encoding="utf-8"))
    failures, lines = compare(baseline, fresh, arguments.tolerance)
    print(f"perf regression check (tolerance -{arguments.tolerance:.0%}):")
    for line in lines:
        print(f"  {line}")
    if failures:
        print(f"{len(failures)} metric(s) regressed beyond tolerance:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("no perf regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

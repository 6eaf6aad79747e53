"""Smoke test of BENCH_e2e: every workload at its real shape, two timed operations.

Asserts that the harness and ``BENCHMARK.json`` name exactly the same
workloads and metrics, that every correctness check passes, that the traced
phases account for the wall clock, and that a run leaves the working tree
untouched.  Timings are not asserted — two operations measure nothing.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _git_status() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=60
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout if completed.returncode == 0 else None


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--all --smoke --trace`` run shared by the assertions below."""
    out = tmp_path_factory.mktemp("bench-e2e") / "smoke.json"
    before = _git_status()
    completed = subprocess.run(
        [*RUN, "--all", "--smoke", "--trace", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(out.read_text(encoding="utf-8")), completed.stdout, before, _git_status()


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["better"] in ("higher", "lower")
        assert UNIT.fullmatch(metric["unit"]), metric
        names.append(metric["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_every_named_workload_and_metric_is_emitted_and_nothing_else(smoke):
    document, stdout, _, _ = smoke
    assert document["smoke"] is True
    assert list(document["runs"]) == [workload["name"] for workload in SPEC["workloads"]]
    end_to_end = {metric["name"] for metric in SPEC["end_to_end"]}
    per_layer = {metric["name"] for metric in SPEC["per_layer"]}
    for workload, (run,) in document["runs"].items():
        assert set(run["end_to_end"]) == end_to_end, workload
        assert set(run["per_layer"]) == per_layer, workload
        for name in end_to_end | per_layer:
            assert f"  {name} " in stdout, name
        for value in run["end_to_end"].values():
            assert value > 0, (workload, run["end_to_end"])


def test_every_correctness_check_passes(smoke):
    document, _, _, _ = smoke
    for workload, (run,) in document["runs"].items():
        assert run["correct"] and run["failed"] == 0, (workload, run["checks"])
        assert run["checks"]["traced_equals_untraced"], workload
        assert run["checks"]["no_orphans"], workload
    guarded = document["runs"]["train_process_guarded"][0]["checks"]
    assert guarded["process_matches_serial_oracle"] and guarded["checkpoint_roundtrip"]
    assert document["runs"]["search_warm"][0]["checks"]["warm_equals_cold_answer"]


def test_layer_predictions_hold(smoke):
    document, _, _, _ = smoke
    layers = {workload: runs[0]["per_layer"] for workload, runs in document["runs"].items()}
    for workload in ("train_dense", "train_optimus", "train_quant_auto"):
        assert layers[workload]["trace.coverage_share"] >= 0.95, workload
    assert layers["train_dense"]["compression.calls"] == 0
    assert layers["train_optimus"]["core.sc_reduce_ms"] > 0
    assert layers["train_quant_auto"]["scheduler.synthesize_ms"] > 0
    assert layers["search_warm"]["simulator.evaluations"] == 0
    assert layers["search_cold"]["simulator.evaluations"] == layers["search_cold"]["search.candidates"]
    for workload, values in layers.items():
        stalls = values["checkpoint.stall_share"] > 0
        assert stalls == (workload == "train_process_guarded"), workload
        assert (values["nn.forward_ms"] > 0) == workload.startswith("train_"), workload


def test_a_run_leaves_the_working_tree_untouched(smoke):
    _, _, before, after = smoke
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before


def test_compare_accepts_equal_results_and_refuses_another_seed(smoke, tmp_path):
    document, _, _, _ = smoke
    same = tmp_path / "a.json"
    same.write_text(json.dumps(document), encoding="utf-8")
    completed = subprocess.run([*RUN, "compare", str(same), str(same)], capture_output=True, text=True)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "regressed" not in completed.stdout and completed.stdout.count(" ok") == 36
    other = tmp_path / "b.json"
    other.write_text(json.dumps({**document, "seed": document["seed"] + 1}), encoding="utf-8")
    completed = subprocess.run([*RUN, "compare", str(same), str(other)], capture_output=True, text=True)
    assert completed.returncode != 0 and "refusing to compare" in completed.stderr

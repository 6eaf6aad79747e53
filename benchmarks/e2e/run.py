"""BENCH_e2e entry point: ``repro train`` and ``repro search`` end to end.

One workload (the form the benchmark driver uses; the last stdout line is the
result object, ``--trace 0`` carries the end-to-end metrics, ``--trace 1`` the
per-layer ones)::

    python3 benchmarks/e2e/run.py --workload train_dense --seed 7 --seconds 8 --trace 0

Every workload, each in its own child process so peak RSS is per workload::

    python3 benchmarks/e2e/run.py --all --seed 7 [--trace] [--repeats N] [--out FILE]

Compare two ``--all --out`` documents of the same machine pins, seed and mode::

    python3 benchmarks/e2e/run.py compare A.json B.json

BLAS threading is pinned to one thread *by this harness*, before NumPy loads:
un-pinned, the process executor oversubscribes the cores and its iteration time
is unrepeatable (``exec.unpinned_slowdown`` keeps that cliff visible until the
program pins itself).  Nothing is left in the working tree: results go to
stdout and ``--out``; checkpoints and search caches go to temporary directories
under ``.bench_build/`` (inside the checkout, as the benchmark contract asks, and
named in ``.gitignore``) that are removed before the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Where every ``tempfile`` directory of a run is made.
WORK = ROOT / ".bench_build" / "bench-e2e-tmp"
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pin_blas_threads() -> None:
    """Pin BLAS/OpenMP to one thread; re-exec if NumPy was loaded un-pinned."""
    if all(os.environ.get(key) == value for key, value in THREAD_PINS.items()):
        return
    os.environ.update(THREAD_PINS)
    if "numpy" in sys.modules:
        os.execv(sys.executable, [sys.executable, *sys.argv])


def machine_block() -> dict:
    """The state of the box every number is taken on."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    build = blas.get("openblas configuration", "")
    max_threads = next(
        (word.split("=")[1] for word in build.split() if word.startswith("MAX_THREADS=")), None
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "vendor": blas.get("name"),
            "version": blas.get("version"),
            "max_threads": max_threads,
        },
        "thread_pins": {key: os.environ.get(key) for key in THREAD_PINS},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(spec: dict) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}


# -- one workload --------------------------------------------------------------------


def import_workloads():
    """The workloads module, with the program under ``src/`` importable."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def run_one(args) -> int:
    workloads = import_workloads()

    report = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.trace_out
    )
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=2), encoding="utf-8")
    unit = units(load_spec())
    for check, passed in report["checks"].items():
        print(f"check {check}: {'ok' if passed else 'FAILED'}")
    if "note" in report["info"]:
        print(report["info"]["note"])
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def run_unpinned_probe(args) -> int:
    print(import_workloads().unpinned_probe(args.seed))
    return 0


# -- every workload ------------------------------------------------------------------


def run_all(args) -> int:
    spec = load_spec()
    seconds = args.seconds
    unit = units(spec)
    document = {
        "benchmark": "BENCH_e2e",
        "machine": machine_block(),
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": seconds,
        "runs": {},
    }
    failures = 0
    with tempfile.TemporaryDirectory(prefix="bench-e2e-") as scratch:
        for workload in (entry["name"] for entry in spec["workloads"]):
            runs = document["runs"][workload] = []
            for repeat in range(args.repeats):
                report_path = pathlib.Path(scratch) / f"{workload}-{repeat}.json"
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload,
                    "--seed", str(args.seed + repeat),
                    "--seconds", str(seconds),
                    "--trace", str(int(bool(args.trace))),
                    "--out", str(report_path),
                ]
                if args.smoke:
                    command.append("--smoke")
                if args.trace_out and repeat == 0:
                    trace_path = pathlib.Path(args.trace_out)
                    command += ["--trace-out", str(trace_path.with_name(f"{trace_path.stem}.{workload}{trace_path.suffix}"))]
                subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
                report = json.loads(report_path.read_text(encoding="utf-8"))
                runs.append(report)
                failures += not report["correct"]
                print(f"== {workload}  seed {report['seed']}  " + render_run(report, unit), flush=True)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(document, indent=2), encoding="utf-8")
    print("machine: " + json.dumps(document["machine"]))
    return 1 if failures else 0


def render_run(report: dict, unit: dict[str, str]) -> str:
    info = report["info"]
    share = report["failed"] / report["attempted"]
    lines = [
        f"{info['op_samples']} x {info['op']}; failed_share {share:g} "
        f"({report['failed']} of {report['attempted']}); work_per_s counts {info['work_unit']}"
    ]
    for check, passed in report["checks"].items():
        if not passed:
            lines.append(f"  CHECK FAILED: {check}")
    if "note" in info:
        lines.append(f"  note: {info['note']}")
    for section in ("end_to_end", "per_layer"):
        for name, value in report.get(section, {}).items():
            lines.append(f"  {name:34s} {value:>16.6g} {unit[name]}")
    if "per_layer" in report:
        layers = report["per_layer"]
        lines.append(
            f"  op_ms_tail is p{layers['op_tail_percentile']:.1f} of {int(layers['op_samples'])} samples"
        )
    for key in ("weights_sha256", "frontier_sha256"):
        if key in info:
            lines.append(f"  {key:34s} {info[key]}")
    return "\n".join(lines)


# -- compare -------------------------------------------------------------------------


def spread(values: list[float]) -> float | None:
    """Inter-quartile distance as a share of the median (needs four runs)."""
    if len(values) < 4:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def compare(args) -> int:
    base, other = (json.loads(pathlib.Path(path).read_text(encoding="utf-8")) for path in args.files)
    for key in ("seed", "smoke", "seconds"):
        if base[key] != other[key]:
            raise SystemExit(f"refusing to compare: {key} differs ({base[key]!r} vs {other[key]!r})")
    for key in ("thread_pins", "cpu_count", "affinity", "blas"):
        if base["machine"][key] != other["machine"][key]:
            raise SystemExit(
                f"refusing to compare: machine {key} differs "
                f"({base['machine'][key]!r} vs {other['machine'][key]!r})"
            )
    bounds = [
        (metric["name"], metric["better"], metric["bound"]) for metric in load_spec()["end_to_end"]
    ]
    regressed = 0
    print(f"{'workload':24s} {'metric':20s} {'A median':>14s} {'B median':>14s} {'B/A':>8s} {'bound':>7s}  verdict")
    for workload, runs in base["runs"].items():
        for metric, better, bound in bounds:
            ours = [run["end_to_end"][metric] for run in runs]
            theirs = [run["end_to_end"][metric] for run in other["runs"][workload]]
            a, b = statistics.median(ours), statistics.median(theirs)
            worse = (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)
            spreads = [s for s in (spread(ours), spread(theirs)) if s is not None]
            if worse > bound:
                verdict = "regressed"
                regressed += 1
            elif spreads and max(spreads) > bound:
                verdict = f"unresolved (spread {max(spreads):.1%} > bound)"
            else:
                verdict = "ok"
            print(f"{workload:24s} {metric:20s} {a:14.6g} {b:14.6g} {b / a:8.4f} {bound:7.3f}  {verdict}")
        for key in ("weights_sha256", "frontier_sha256"):
            ours = [run["info"].get(key) for run in runs]
            theirs = [run["info"].get(key) for run in other["runs"][workload]]
            if any(ours) and ours != theirs:
                print(f"{workload:24s} {key:20s} differs  regressed")
                regressed += 1
    return 1 if regressed else 0


def stop_resource_tracker() -> None:
    """Stop the tracker process ``multiprocessing.shared_memory`` started, and wait for it.

    Left alone it ends only when it sees this process's pipe close, that is
    *after* this process: a benchmark run would leave a process behind.  Every
    segment is unlinked by then (``no_orphans`` is checked), so it has nothing
    left to do.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# -- command line --------------------------------------------------------------------


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("files", nargs=2, metavar="RESULTS.json")
        return compare(parser.parse_args(sys.argv[2:]))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run one workload (driver form)")
    mode.add_argument("--all", action="store_true", help="run every workload of BENCHMARK.json")
    mode.add_argument("--unpinned-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, help="also make the traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true", help="1 warm-up + 2 timed operations, small search query")
    parser.add_argument("--repeats", type=int, default=1, help="--all: runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--trace-out", help="write the traced run's spans here as Chrome-trace JSON")
    args = parser.parse_args()
    if args.unpinned_probe:
        return run_unpinned_probe(args)
    pin_blas_threads()
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"BENCH_e2e measures the program under {ROOT / 'src'}; it is not there")
    WORK.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(WORK)
    if args.smoke:
        args.seconds = 0.0  # the fixed horizon alone ends a smoke run
    elif args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_resource_tracker()
        for directory in (WORK, WORK.parent):  # gone unless another run still uses them
            try:
                directory.rmdir()
            except OSError:
                pass
    raise SystemExit(status)

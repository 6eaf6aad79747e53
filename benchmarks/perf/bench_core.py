"""Microbenchmarks of the flat-arena execution core.

Four hot paths are measured, each against the implementation it replaced:

* **optimizer step** — :class:`repro.optim.FusedAdam` over a flat
  :class:`~repro.parallel.arena.ParameterArena` versus the per-parameter
  Adam loop it replaced, frozen in ``tests/per_parameter_oracle.py`` (same
  update, bit-for-bit — asserted here);
* **engine iteration** — one :class:`~repro.parallel.engine.ThreeDParallelEngine`
  iteration with the bucketed, cool-down-overlapped DP all-reduce versus the
  per-parameter walk it replaced, frozen in ``tests/per_parameter_oracle.py``
  (identical weights — asserted here);
* **codec round-trip** — compress + decompress throughput of the PowerSGD /
  packed-QSGD / top-k gradient codecs on a stage-sized matrix, for both the safe
  API and the zero-allocation workspace kernels
  (``compress_into``/``decompress_into``);
* **compressed-DP iteration** — a full engine iteration with every stage's DP
  gradients codec-compressed: the bucketed path (one codec invocation per
  bucket on flat arena views) versus the frozen per-parameter walk
  (identical gradients — asserted here);
* **schedule iteration** — the zero-bubble ``zb1`` schedule versus ``1f1b``:
  functional engine wall time (identical gradients — asserted here) plus the
  timing simulator's deterministic iteration-time speedup and bubble fractions
  on a paper-scale job (these are the regression-gated metrics: they are exact
  model outputs, immune to runner noise);
* **process executor** — the serial replica loop versus ``repro.exec``'s
  forked shared-memory workers on a PP2 x DP4 probe (bit-identical final
  weights — asserted here; the speedup is recorded with the runner's core
  count, since replica concurrency is real parallelism only on multi-core
  machines);
* **worker recovery** — the supervised process executor's two costs: the
  fault-free per-iteration recovery-point overhead (the arena snapshot)
  versus the raw executor, and the kill -> detect -> respawn -> replay
  latency of healing a SIGKILLed worker (bit-identical final weights versus
  the serial oracle — asserted here);
* **plan search** — cold versus warm latency of a ``repro search`` capacity
  query through the content-keyed on-disk result cache: the cold run pays the
  simulator for every candidate, the warm rerun must serve every candidate
  from the cache (zero evaluations — asserted here) and return byte-identical
  JSON (asserted here).

* **checkpoint I/O** — write and read throughput of checkpoint format v8
  (stored members, each written from its live buffer) on a hidden-64 probe.

A fresh run is written to ``.bench_build/BENCH_core.json`` (git-ignored
scratch), never over the committed baseline
``benchmarks/results/BENCH_core.json``: the perf smoke test
(``benchmarks/perf/test_perf_core.py``) runs the same harness with fewer repeats
and asserts the headline claims, and ``check_regression.py`` diffs the scratch
file against the committed baseline in CI.  Moving the baseline is an explicit
act::

    PYTHONPATH=src python benchmarks/perf/bench_core.py --update-baseline

Run without the flag to measure into the scratch file only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

import numpy as np

from repro.compression import PowerSGDCompressor, QSGDCompressor, TopKCompressor
from repro.models.gpt_configs import functional_config
from repro.nn.gpt_stage import build_gpt_stages
from repro.optim import FusedAdam
from repro.parallel.arena import ParameterArena
from repro.parallel.engine import ThreeDParallelEngine
from repro.plan import Boundary, ParallelPlan, ResilienceSpec, Topology

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
# The per-parameter DP walk the bucketed sync replaced, and the per-parameter
# Adam loop FusedAdam replaced, live on as test oracles.
sys.path.insert(0, str(_REPO_ROOT / "tests"))
from per_parameter_oracle import Adam, run_per_parameter  # noqa: E402

#: The committed baseline; only ``--update-baseline`` writes it.
RESULTS_PATH = _REPO_ROOT / "benchmarks" / "results" / "BENCH_core.json"
#: Where every fresh run lands (git-ignored scratch).
FRESH_PATH = _REPO_ROOT / ".bench_build" / "BENCH_core.json"

#: A deep, narrow GPT proxy — hundreds of small parameters, the regime where
#: per-parameter Python dispatch dominates, which is exactly what the arena
#: removes (the functional experiments all train proxies of this shape).
BENCH_MODEL = dict(
    vocab_size=128, sequence_length=32, num_layers=24, hidden_size=16, num_heads=2
)


def _time_calls(fn, repeats: int, inner: int = 1) -> float:
    """Best-of-``repeats`` wall time of ``inner`` calls to ``fn``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def bench_optimizer_step(repeats: int = 5, steps_per_repeat: int = 10) -> dict:
    """Fused arena Adam vs. the per-parameter loop on identical models."""
    config = functional_config(**BENCH_MODEL)
    baseline_params = []
    for stage in build_gpt_stages(config, num_stages=1, seed=7):
        baseline_params.extend(stage.parameters())
    fused_params = []
    for stage in build_gpt_stages(config, num_stages=1, seed=7):
        fused_params.extend(stage.parameters())
    arena = ParameterArena(fused_params)

    rng = np.random.default_rng(0)
    for baseline_param, fused_param in zip(baseline_params, fused_params):
        grad = rng.standard_normal(baseline_param.shape)
        baseline_param.grad[...] = grad
        fused_param.grad[...] = grad

    per_parameter = Adam(baseline_params, lr=1e-3, weight_decay=0.01)
    fused = FusedAdam(arena, lr=1e-3, weight_decay=0.01)

    def run_per_parameter():
        for _ in range(steps_per_repeat):
            per_parameter.step()

    def run_fused():
        for _ in range(steps_per_repeat):
            fused.step()

    per_parameter_s = _time_calls(run_per_parameter, repeats) / steps_per_repeat
    fused_s = _time_calls(run_fused, repeats) / steps_per_repeat

    # Identical step counts were executed on both sides; the updates must agree
    # bit-for-bit (the fused path is the same elementwise arithmetic).
    for baseline_param, fused_param in zip(baseline_params, fused_params):
        assert np.array_equal(baseline_param.data, fused_param.data), baseline_param.name

    return {
        "per_parameter_ms": per_parameter_s * 1e3,
        "fused_ms": fused_s * 1e3,
        "speedup": per_parameter_s / fused_s,
        "num_parameters": len(baseline_params),
        "num_elements": int(arena.num_elements),
    }


def bench_engine_iteration(repeats: int = 3, iterations_per_repeat: int = 2) -> dict:
    """Bucketed + overlapped DP all-reduce vs. the frozen per-parameter walk.

    The per-parameter side keeps the ``serial_ms`` key of the committed baseline.
    """
    config = functional_config(
        vocab_size=64, sequence_length=16, num_layers=8, hidden_size=16, num_heads=2
    )
    rng = np.random.default_rng(1)
    batches = [
        [
            (
                rng.integers(0, config.vocab_size, size=(2, 12)),
                rng.integers(0, config.vocab_size, size=(2, 12)),
            )
        ]
        for _ in range(2)
    ]

    def build(overlap: bool) -> ThreeDParallelEngine:
        engine = ThreeDParallelEngine(config, ParallelPlan.baseline(_PP2_DP2), seed=3)
        if not overlap:
            run_per_parameter(engine)
        return engine

    serial = build(overlap=False)
    overlapped = build(overlap=True)

    def run(engine):
        def _run():
            for _ in range(iterations_per_repeat):
                engine.zero_grad()
                engine.run_iteration(batches)

        return _run

    serial_s = _time_calls(run(serial), repeats) / iterations_per_repeat
    overlapped_s = _time_calls(run(overlapped), repeats) / iterations_per_repeat

    # Same data, same seed, compression off: the two DP paths must leave
    # bit-identical gradients behind.
    for serial_param, overlapped_param in zip(serial.parameters(), overlapped.parameters()):
        assert np.array_equal(serial_param.grad, overlapped_param.grad), serial_param.name

    return {
        "serial_ms": serial_s * 1e3,
        "overlapped_ms": overlapped_s * 1e3,
        "speedup": serial_s / overlapped_s,
        "layout": "PP2 x DP2",
    }


def bench_codec_roundtrip(repeats: int = 5, rows: int = 256, cols: int = 512) -> dict:
    """Compress + decompress throughput of the DP gradient codecs.

    ``mb_per_s`` is the safe API (payload owns its arrays); ``into_mb_per_s`` is
    the zero-allocation workspace kernel the bucketed DP path runs
    (``compress_into``/``decompress_into``, payload views workspace memory).
    """
    rng = np.random.default_rng(2)
    gradient = rng.standard_normal((rows, cols))
    out = np.empty_like(gradient)
    raw_mb = gradient.nbytes / 1e6
    codecs = {
        "powersgd": PowerSGDCompressor(rank=4, seed=0),
        "qsgd": QSGDCompressor(bits=4, seed=0),
        "topk": TopKCompressor(fraction=0.01),
    }
    results = {}
    for name, codec in codecs.items():
        def roundtrip():
            payload = codec.compress(gradient, key="bench")
            codec.decompress(payload)

        def roundtrip_into():
            payload = codec.compress_into(gradient, key="bench")
            codec.decompress_into(payload, out)

        seconds = _time_calls(roundtrip, repeats)
        into_seconds = _time_calls(roundtrip_into, repeats)
        results[name] = {
            "roundtrip_ms": seconds * 1e3,
            "mb_per_s": raw_mb / seconds,
            "into_roundtrip_ms": into_seconds * 1e3,
            "into_mb_per_s": raw_mb / into_seconds,
        }
    results["matrix"] = f"{rows}x{cols} float64"
    return results


#: Codec knobs for the compressed-DP iteration benchmark: aggressive enough that
#: every transformer matrix of the probe model is codec-routed.
_DP_CODEC_CONFIGS = {
    "powersgd": dict(codec="powersgd", rank=2),
    "qsgd": dict(codec="qsgd", bits=4),
    "topk": dict(codec="topk", fraction=0.05),
}

#: The one-micro-batch PP2 x DP2 layout of the DP-path benchmarks.
_PP2_DP2 = Topology(dp=2, pp=2, micro_batches=1)


def bench_compressed_dp_iteration(repeats: int = 3, iterations_per_repeat: int = 2) -> dict:
    """Bucketed per-bucket codec path vs. the frozen per-parameter codec walk."""
    config = functional_config(
        vocab_size=64, sequence_length=16, num_layers=8, hidden_size=16, num_heads=2
    )
    rng = np.random.default_rng(4)
    batches = [
        [
            (
                rng.integers(0, config.vocab_size, size=(2, 12)),
                rng.integers(0, config.vocab_size, size=(2, 12)),
            )
        ]
        for _ in range(2)
    ]
    results = {}
    for codec, knobs in _DP_CODEC_CONFIGS.items():
        def build(overlap: bool) -> ThreeDParallelEngine:
            plan = ParallelPlan.baseline(_PP2_DP2).with_boundary(
                Boundary.DP, stage_fraction=1.0, min_elements=64, **knobs
            )
            engine = ThreeDParallelEngine(config, plan, seed=3)
            if not overlap:
                run_per_parameter(engine)
            return engine

        serial = build(overlap=False)
        bucketed = build(overlap=True)

        def run(engine):
            def _run():
                for _ in range(iterations_per_repeat):
                    engine.zero_grad()
                    engine.run_iteration(batches)

            return _run

        serial_s = _time_calls(run(serial), repeats) / iterations_per_repeat
        bucketed_s = _time_calls(run(bucketed), repeats) / iterations_per_repeat

        # Same seed, same data: the per-bucket codec kernels must leave
        # bit-identical gradients behind (the PR's central parity claim).
        for serial_param, bucketed_param in zip(serial.parameters(), bucketed.parameters()):
            assert np.array_equal(serial_param.grad, bucketed_param.grad), serial_param.name

        results[codec] = {
            "per_parameter_ms": serial_s * 1e3,
            "bucketed_ms": bucketed_s * 1e3,
            "speedup": serial_s / bucketed_s,
        }
    results["layout"] = "PP2 x DP2, stage_fraction=1.0"
    return results


def bench_schedule_iteration(repeats: int = 3, iterations_per_repeat: int = 2) -> dict:
    """zb1 vs 1f1b: functional wall time (parity asserted) + simulated speedup.

    The functional numbers measure this machine's Python overhead of the
    split-backward replay (zb1 does the same arithmetic as 1f1b, so the ratio
    hovers around 1.0 and is informational).  The tracked metrics come from the
    timing simulator on a paper-scale job: ``sim_speedup`` (1f1b/zb1 iteration
    time) and ``bubble_ratio`` (1f1b/zb1 bubble fraction) are deterministic
    model outputs, so the regression gate on them can be tight without runner
    noise ever tripping it.
    """
    from repro.models.gpt_configs import GPT_8_3B
    from repro.parallel.process_groups import ParallelLayout
    from repro.simulator.cost_model import TrainingJob
    from repro.simulator.throughput import schedule_throughput

    config = functional_config(
        vocab_size=64, sequence_length=16, num_layers=8, hidden_size=16, num_heads=2
    )
    rng = np.random.default_rng(5)
    batches = [
        [
            (
                rng.integers(0, config.vocab_size, size=(2, 12)),
                rng.integers(0, config.vocab_size, size=(2, 12)),
            )
            for _ in range(4)
        ]
        for _ in range(2)
    ]

    def build(kind: str) -> ThreeDParallelEngine:
        plan = ParallelPlan(
            topology=Topology(dp=2, pp=2, tp=1, micro_batches=4)
        ).with_schedule(kind=kind)
        return ThreeDParallelEngine(config, plan=plan, seed=3)

    engines = {kind: build(kind) for kind in ("1f1b", "zb1")}
    times = {}
    for kind, engine in engines.items():
        def run():
            for _ in range(iterations_per_repeat):
                engine.zero_grad()
                engine.run_iteration(batches)

        times[kind] = _time_calls(run, repeats) / iterations_per_repeat

    # Same data, same seed: the zero-bubble replay must leave bit-identical
    # gradients behind (the tentpole's central parity claim).
    for base_param, zb1_param in zip(
        engines["1f1b"].parameters(), engines["zb1"].parameters()
    ):
        assert np.array_equal(base_param.grad, zb1_param.grad), base_param.name

    job = TrainingJob(
        model=GPT_8_3B,
        layout=ParallelLayout(tensor_parallel=8, pipeline_parallel=4, data_parallel=4),
        num_model_chunks=1,
    )
    simulated = {point.kind: point for point in schedule_throughput(job)}
    base, zb1 = simulated["1f1b"], simulated["zb1"]
    return {
        "functional_1f1b_ms": times["1f1b"] * 1e3,
        "functional_zb1_ms": times["zb1"] * 1e3,
        "functional_relative": times["1f1b"] / times["zb1"],
        "sim_iteration_1f1b_s": base.iteration_time_s,
        "sim_iteration_zb1_s": zb1.iteration_time_s,
        "sim_speedup": base.iteration_time_s / zb1.iteration_time_s,
        "bubble_1f1b": base.bubble_fraction,
        "bubble_zb1": zb1.bubble_fraction,
        "bubble_ratio": base.bubble_fraction / zb1.bubble_fraction,
        "sim_layout": "GPT-8.3B PP4 x DP4 x TP8",
        "functional_layout": "PP2 x DP2, 4 micro-batches",
    }


def bench_auto_schedule() -> dict:
    """Synthesized schedule vs zb1 on the paper-scale job, plus functional parity.

    All tracked numbers are deterministic simulator outputs on GPT-8.3B
    PP4 x DP4 x TP8 (the acceptance layout): at ``memory_cap_factor=1.0`` the
    synthesizer must degenerate to zb1 (``bubble_ratio_cap1 == 1.0``), and at
    ``2.0`` the extra in-flight forwards must buy a strictly lower bubble
    (``sim_speedup_vs_zb1_cap2 > 1``).  The functional delta retrains a tiny
    probe under 1f1b/zb1/auto and must be exactly 0.0.
    """
    from repro.experiments.schedule_compare import functional_schedule_parity
    from repro.models.gpt_configs import GPT_8_3B
    from repro.parallel.process_groups import ParallelLayout
    from repro.simulator.cost_model import TrainingJob
    from repro.simulator.throughput import schedule_cap_sweep, schedule_throughput

    job = TrainingJob(
        model=GPT_8_3B,
        layout=ParallelLayout(tensor_parallel=8, pipeline_parallel=4, data_parallel=4),
        num_model_chunks=1,
    )
    zb1 = {p.kind: p for p in schedule_throughput(job, kinds=("1f1b", "zb1"))}["zb1"]
    caps = {p.memory_cap_factor: p for p in schedule_cap_sweep(job, caps=(1.0, 1.5, 2.0))}
    return {
        "sim_iteration_zb1_s": zb1.iteration_time_s,
        "sim_iteration_auto_cap1_s": caps[1.0].iteration_time_s,
        "sim_iteration_auto_cap2_s": caps[2.0].iteration_time_s,
        "bubble_zb1": zb1.bubble_fraction,
        "bubble_auto_cap1": caps[1.0].bubble_fraction,
        "bubble_auto_cap15": caps[1.5].bubble_fraction,
        "bubble_auto_cap2": caps[2.0].bubble_fraction,
        # cap 1.0 must reproduce zb1 exactly; cap 2.0 must beat it strictly.
        "bubble_ratio_cap1": caps[1.0].bubble_fraction / zb1.bubble_fraction,
        "bubble_ratio_cap2": caps[2.0].bubble_fraction / zb1.bubble_fraction,
        "sim_speedup_vs_zb1_cap2": zb1.iteration_time_s / caps[2.0].iteration_time_s,
        "functional_parity_delta": functional_schedule_parity(pp=2, dp=2),
        "sim_layout": "GPT-8.3B PP4 x DP4 x TP8",
    }


def bench_resilience_overhead(repeats: int = 3, iterations_per_repeat: int = 2) -> dict:
    """Guarded vs unguarded training iteration, plus the snapshot cost.

    The guarded loop adds a whole-buffer ``isfinite`` sweep and one
    engine-state capture (the weights and moments need none) per iteration
    into the preallocated :class:`repro.resilience.RecoveryPoint`; the weights stay
    bit-identical to the unguarded loop (asserted here), so its only cost is
    time.  ``unguarded_over_guarded`` is the tracked higher-is-better ratio:
    it sits just below 1.0 and drops if guarding gets more expensive.
    ``snapshot_ms`` times that capture alone (buffers already allocated).
    """
    from repro.data import LanguageModelingDataLoader, SyntheticCorpus, SyntheticCorpusConfig
    from repro.training.trainer import Pretrainer

    config = functional_config(
        vocab_size=64, sequence_length=16, num_layers=2, hidden_size=16, num_heads=2
    )
    plan = (
        ParallelPlan.preset("cb_fe_sc")
        .with_topology(pp=2, dp=2, micro_batches=2)
        .proxy_scaled()
    )

    def build(guarded: bool) -> Pretrainer:
        corpus = SyntheticCorpus(SyntheticCorpusConfig(vocab_size=64, seed=321))
        loader = LanguageModelingDataLoader(
            corpus, sequence_length=12, micro_batch_size=2,
            num_micro_batches=2, data_parallel_degree=2,
        )
        built = plan.with_resilience(ResilienceSpec()) if guarded else plan
        return Pretrainer(config, loader, plan=built, seed=0)

    unguarded = build(guarded=False)
    guarded = build(guarded=True)

    def run(trainer):
        def _run():
            for _ in range(iterations_per_repeat):
                trainer.train_iteration()

        return _run

    unguarded_s = _time_calls(run(unguarded), repeats) / iterations_per_repeat
    guarded_s = _time_calls(run(guarded), repeats) / iterations_per_repeat

    # The guardrails are pure reads on a fault-free run: both trainers must
    # hold bit-identical weights after the same number of iterations.
    for unguarded_arena, guarded_arena in zip(
        unguarded.engine.arenas, guarded.engine.arenas
    ):
        assert np.array_equal(unguarded_arena.data, guarded_arena.data)

    snapshot_s = _time_calls(guarded.engine.recovery_point.capture, repeats, inner=10)
    return {
        "unguarded_ms": unguarded_s * 1e3,
        "guarded_ms": guarded_s * 1e3,
        "guarded_over_unguarded": guarded_s / unguarded_s,
        "unguarded_over_guarded": unguarded_s / guarded_s,
        "snapshot_ms": snapshot_s * 1e3,
        "layout": "PP2 x DP2, cb_fe_sc",
    }


def bench_checkpoint_io(repeats: int = 3) -> dict:
    """Checkpoint format v8 write and read throughput (MB of file per second).

    A hidden-64 PP2 x DP2 ``cb_fe_sc`` probe (a few MB of state, so the zip
    and JSON fixed costs do not dominate) is saved and loaded ``repeats``
    times; best-of is reported like every wall-clock number here.  The write
    stores each member straight from its live buffer (no staging copy) and
    the file holds weights and moments once per DP group — deflating again,
    copying the state first, or storing per replica all show as a drop in
    ``save_mb_per_s`` (tracked, higher is better, with ``load_mb_per_s``).
    The round trip is asserted bit-exact.
    """
    import tempfile

    from repro.data import LanguageModelingDataLoader, SyntheticCorpus, SyntheticCorpusConfig
    from repro.training.checkpoint import load_checkpoint, save_checkpoint
    from repro.training.trainer import Pretrainer

    config = functional_config(
        vocab_size=64, sequence_length=16, num_layers=2, hidden_size=64, num_heads=2
    )
    plan = (
        ParallelPlan.preset("cb_fe_sc")
        .with_topology(pp=2, dp=2, micro_batches=2)
        .proxy_scaled()
    )

    def build() -> Pretrainer:
        corpus = SyntheticCorpus(SyntheticCorpusConfig(vocab_size=64, seed=321))
        loader = LanguageModelingDataLoader(
            corpus, sequence_length=12, micro_batch_size=2,
            num_micro_batches=2, data_parallel_degree=2,
        )
        return Pretrainer(config, loader, plan=plan, seed=0)

    writer = build()
    writer.train(2)
    reader = build()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "ckpt.npz"
        save_s = _time_calls(lambda: save_checkpoint(writer, path), repeats)
        load_s = _time_calls(lambda: load_checkpoint(reader, path), repeats)
        file_mb = path.stat().st_size / 1e6
    for written, restored in zip(writer.engine.arenas, reader.engine.arenas):
        assert np.array_equal(written.data, restored.data)
    return {
        "file_mb": file_mb,
        "save_ms": save_s * 1e3,
        "load_ms": load_s * 1e3,
        "save_mb_per_s": file_mb / save_s,
        "load_mb_per_s": file_mb / load_s,
        "layout": "PP2 x DP2, cb_fe_sc, hidden 64",
    }


def bench_process_executor(repeats: int = 3, iterations_per_repeat: int = 2) -> dict:
    """Serial replica loop vs. the process-parallel executor (``repro.exec``).

    A >=4-worker probe (PP2 x DP4): each engine trains the identical workload
    through :class:`FusedAdam`, and the final weights must be bit-identical
    (asserted here — the executor's core guarantee).  The first iteration of
    each side is an untimed warmup, so fork + shared-memory adoption cost is
    excluded and the timed region is the steady state.  ``speedup`` is
    serial/process wall time: >1x on multi-core runners (the DP replicas run
    concurrently), ~1x or below on single-core machines, where the executor
    can only add IPC overhead — ``cpu_count`` is recorded alongside so the
    number can be read in context.
    """
    import os

    config = functional_config(
        vocab_size=64, sequence_length=16, num_layers=2, hidden_size=64, num_heads=4
    )
    plan = (
        ParallelPlan.preset("cb_fe_sc")
        .proxy_scaled()
        .with_topology(pp=2, dp=4, micro_batches=2)
    )
    rng = np.random.default_rng(5)
    batches = [
        [
            (
                rng.integers(0, config.vocab_size, size=(2, 12)),
                rng.integers(0, config.vocab_size, size=(2, 12)),
            )
            for _ in range(2)
        ]
        for _ in range(4)
    ]

    def build(executor: str):
        engine = ThreeDParallelEngine(config, plan=plan.with_executor(executor), seed=3)
        return engine, engine.build_optimizer(lr=1e-3)

    def step(engine, optimizer):
        optimizer.zero_grad()
        engine.run_iteration(batches)
        optimizer.step()

    serial, serial_optimizer = build("serial")
    process, process_optimizer = build("process")
    try:
        # Untimed warmup: the process side forks its workers here.
        step(serial, serial_optimizer)
        step(process, process_optimizer)

        def run(engine, optimizer):
            def _run():
                for _ in range(iterations_per_repeat):
                    step(engine, optimizer)

            return _run

        serial_s = _time_calls(run(serial, serial_optimizer), repeats) / iterations_per_repeat
        process_s = _time_calls(run(process, process_optimizer), repeats) / iterations_per_repeat

        # Both sides ran the identical iteration count on identical data: the
        # executor's contract is bit-for-bit equality, not closeness.
        bit_parity = all(
            np.array_equal(serial_arena.data, process_arena.data)
            for serial_arena, process_arena in zip(serial.arenas, process.arenas)
        )
        assert bit_parity, "process executor diverged from the serial oracle"
    finally:
        process.close()

    return {
        "serial_ms": serial_s * 1e3,
        "process_ms": process_s * 1e3,
        "speedup": serial_s / process_s,
        "workers": len(process.arenas),
        "cpu_count": os.cpu_count(),
        "bit_parity": bit_parity,
        "layout": "PP2 x DP4, cb_fe_sc",
    }


def bench_worker_recovery(repeats: int = 3, iterations_per_repeat: int = 2) -> dict:
    """Supervised process executor: steady-state overhead + respawn latency.

    Two costs of self-healing are measured on a PP2 x DP2 process-executor
    probe.  ``unsupervised_over_supervised`` (tracked, higher is better) is the
    fault-free cost of supervision: the per-iteration arena snapshot that
    makes every iteration replayable; the ratio sits just below 1.0
    and drops if the recovery point gets more expensive.  ``respawns_per_s``
    (tracked) is the inverse wall time of one kill -> detect -> re-fork ->
    rewind -> replay cycle, measured by SIGKILLing a live worker from outside
    and timing the supervised iteration that heals it; like the process
    executor's speedup it is machine-dependent but compares same-machine runs.
    Recovery must be invisible in the result: the killed-and-healed trainer's
    weights are asserted bit-identical to the serial oracle's.
    """
    import os
    import signal

    from repro.data import LanguageModelingDataLoader, SyntheticCorpus, SyntheticCorpusConfig
    from repro.training.trainer import Pretrainer

    config = functional_config(
        vocab_size=64, sequence_length=16, num_layers=2, hidden_size=16, num_heads=2
    )
    plan = (
        ParallelPlan.preset("cb_fe_sc")
        .with_topology(pp=2, dp=2, micro_batches=2)
        .proxy_scaled()
    )

    def build(executor: str, supervised: bool) -> Pretrainer:
        corpus = SyntheticCorpus(SyntheticCorpusConfig(vocab_size=64, seed=321))
        loader = LanguageModelingDataLoader(
            corpus, sequence_length=12, micro_batch_size=2,
            num_micro_batches=2, data_parallel_degree=2,
        )
        built = plan.with_executor(executor)
        if supervised:
            # A huge respawn budget: this benchmark keeps killing the same
            # worker and must never hit the escalation ladder.
            built = built.with_resilience(
                ResilienceSpec(max_respawns_per_worker=64, max_total_respawns=256)
            )
        return Pretrainer(config, loader, plan=built, seed=0)

    unsupervised = build("process", supervised=False)
    supervised = build("process", supervised=True)
    try:
        # Untimed warmup forks both sides' workers.
        unsupervised.train_iteration()
        supervised.train_iteration()

        def run(trainer):
            def _run():
                for _ in range(iterations_per_repeat):
                    trainer.train_iteration()

            return _run

        unsupervised_s = _time_calls(run(unsupervised), repeats) / iterations_per_repeat
        supervised_s = _time_calls(run(supervised), repeats) / iterations_per_repeat

        def kill_and_recover():
            executor = supervised.engine._process_executor
            os.kill(executor.workers[0].process.pid, signal.SIGKILL)
            supervised.train_iteration()

        recovered_s = _time_calls(kill_and_recover, repeats)
        kills = repeats

        # Recovery is bit-exact or it is not recovery: replay the same number
        # of iterations on the serial oracle and demand identical weights.
        oracle = build("serial", supervised=False)
        for _ in range(supervised._iteration):
            oracle.train_iteration()
        bit_parity = all(
            np.array_equal(oracle_arena.data, supervised_arena.data)
            for oracle_arena, supervised_arena in zip(
                oracle.engine.arenas, supervised.engine.arenas
            )
        )
        assert bit_parity, "supervised recovery diverged from the serial oracle"
        respawns = supervised.resilience_report.respawns
        assert respawns >= kills, f"expected >= {kills} respawns, ledger says {respawns}"
    finally:
        unsupervised.close()
        supervised.close()

    return {
        "unsupervised_ms": unsupervised_s * 1e3,
        "supervised_ms": supervised_s * 1e3,
        "supervised_over_unsupervised": supervised_s / unsupervised_s,
        "unsupervised_over_supervised": unsupervised_s / supervised_s,
        "recovered_iteration_ms": recovered_s * 1e3,
        "respawn_overhead_ms": (recovered_s - supervised_s) * 1e3,
        "respawns_per_s": 1.0 / recovered_s,
        "kills": kills,
        "respawns": respawns,
        "bit_parity": bit_parity,
        "layout": "PP2 x DP2, cb_fe_sc",
    }


def bench_plan_search(workers: int = 2) -> dict:
    """Cold vs warm ``repro search`` latency through the on-disk result cache.

    A moderate GPT-2.5B capacity query (~100 candidates) runs twice against a
    fresh cache directory: the cold pass evaluates every candidate through the
    timing simulator in a small worker pool; the warm pass must answer
    entirely from the content-keyed cache (``warm_evaluated`` asserted 0,
    byte-identical frontier JSON asserted too).  ``warm_speedup`` is cold/warm
    wall time, reported and not tracked: a faster cold pass lowers it, and
    BENCH_e2e's ``search_cold`` / ``search_warm`` gate the two latencies.
    """
    import tempfile

    from repro.search import SearchCache, SearchQuery, run_search

    query = SearchQuery(
        model="GPT-2.5B",
        gpus=32,
        micro_batches=(8,),
        schedules=("1f1b", "zb1"),
        dp_codecs=("none", "powersgd", "topk"),
        stage_fractions=(1.0,),
        pp_codecs=("none",),
        embedding=("none",),
    )
    with tempfile.TemporaryDirectory() as tmp:
        cache = SearchCache(pathlib.Path(tmp))
        start = time.perf_counter()
        cold = run_search(query, workers=workers, cache=cache)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_search(query, workers=0, cache=cache)
        warm_s = time.perf_counter() - start

    # The cache's whole contract: a warm rerun touches the simulator zero
    # times and reproduces the cold frontier byte for byte.
    assert cold.errors == 0, f"{cold.errors} candidates failed to evaluate"
    assert warm.evaluated == 0, "warm rerun re-ran the simulator"
    assert warm.to_json() == cold.to_json(), "warm frontier diverged from cold"

    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": cold_s / warm_s,
        "candidates": cold.candidates,
        "cold_evaluated": cold.evaluated,
        "warm_evaluated": warm.evaluated,
        "warm_cache_hits": warm.cache_hits,
        "frontier_size": len(cold.entries),
        "workers": workers,
        "query": "GPT-2.5B on 32 GPUs, 2 schedules x 3 DP codecs",
    }


def run_all(
    optimizer_repeats: int = 5, engine_repeats: int = 3, codec_repeats: int = 5
) -> dict:
    """Run every microbenchmark and return the BENCH_core.json payload."""
    return {
        "benchmark": "BENCH_core",
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "optimizer_step": bench_optimizer_step(repeats=optimizer_repeats),
        "engine_iteration": bench_engine_iteration(repeats=engine_repeats),
        "codec_roundtrip": bench_codec_roundtrip(repeats=codec_repeats),
        "compressed_dp_iteration": bench_compressed_dp_iteration(repeats=engine_repeats),
        "schedule_iteration": bench_schedule_iteration(repeats=engine_repeats),
        "auto_schedule": bench_auto_schedule(),
        "resilience_overhead": bench_resilience_overhead(repeats=engine_repeats),
        "checkpoint_io": bench_checkpoint_io(repeats=engine_repeats),
        "process_executor": bench_process_executor(repeats=engine_repeats),
        "worker_recovery": bench_worker_recovery(repeats=engine_repeats),
        "plan_search": bench_plan_search(),
    }


def write_results(results: dict, path: pathlib.Path = FRESH_PATH) -> pathlib.Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the BENCH_core microbenchmarks.")
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=f"also overwrite the committed baseline {RESULTS_PATH.relative_to(_REPO_ROOT)}",
    )
    arguments = parser.parse_args(argv)
    results = run_all()
    path = write_results(results)
    if arguments.update_baseline:
        path = write_results(results, RESULTS_PATH)
    optimizer = results["optimizer_step"]
    iteration = results["engine_iteration"]
    print(
        f"optimizer step: {optimizer['per_parameter_ms']:.2f} ms per-parameter -> "
        f"{optimizer['fused_ms']:.2f} ms fused ({optimizer['speedup']:.1f}x, "
        f"{optimizer['num_parameters']} parameters)"
    )
    print(
        f"engine iteration: {iteration['serial_ms']:.1f} ms serial -> "
        f"{iteration['overlapped_ms']:.1f} ms overlapped ({iteration['speedup']:.2f}x)"
    )
    for codec in ("powersgd", "qsgd", "topk"):
        entry = results["codec_roundtrip"][codec]
        print(
            f"codec {codec}: {entry['roundtrip_ms']:.2f} ms round-trip "
            f"({entry['mb_per_s']:.0f} MB/s; zero-alloc {entry['into_mb_per_s']:.0f} MB/s)"
        )
        dp = results["compressed_dp_iteration"][codec]
        print(
            f"compressed DP [{codec}]: {dp['per_parameter_ms']:.1f} ms per-parameter -> "
            f"{dp['bucketed_ms']:.1f} ms bucketed ({dp['speedup']:.2f}x)"
        )
    schedule = results["schedule_iteration"]
    print(
        f"schedule [{schedule['sim_layout']}]: simulated {schedule['sim_iteration_1f1b_s']:.2f} s "
        f"1f1b -> {schedule['sim_iteration_zb1_s']:.2f} s zb1 ({schedule['sim_speedup']:.2f}x); "
        f"bubble {schedule['bubble_1f1b']:.1%} -> {schedule['bubble_zb1']:.1%}; "
        f"functional {schedule['functional_1f1b_ms']:.1f} -> "
        f"{schedule['functional_zb1_ms']:.1f} ms ({schedule['functional_relative']:.2f}x)"
    )
    auto = results["auto_schedule"]
    print(
        f"auto schedule [{auto['sim_layout']}]: bubble zb1 {auto['bubble_zb1']:.1%} = "
        f"auto@1x {auto['bubble_auto_cap1']:.1%} -> auto@2x {auto['bubble_auto_cap2']:.1%} "
        f"({auto['sim_speedup_vs_zb1_cap2']:.2f}x over zb1; parity delta "
        f"{auto['functional_parity_delta']:.1e})"
    )
    resilience = results["resilience_overhead"]
    print(
        f"resilience [{resilience['layout']}]: {resilience['unguarded_ms']:.1f} ms unguarded -> "
        f"{resilience['guarded_ms']:.1f} ms guarded "
        f"({resilience['guarded_over_unguarded']:.2f}x; snapshot "
        f"{resilience['snapshot_ms']:.2f} ms)"
    )
    checkpoint = results["checkpoint_io"]
    print(
        f"checkpoint io [{checkpoint['layout']}]: {checkpoint['file_mb']:.2f} MB, save "
        f"{checkpoint['save_ms']:.1f} ms ({checkpoint['save_mb_per_s']:.0f} MB/s), load "
        f"{checkpoint['load_ms']:.1f} ms ({checkpoint['load_mb_per_s']:.0f} MB/s)"
    )
    executor = results["process_executor"]
    print(
        f"process executor [{executor['layout']}]: {executor['serial_ms']:.1f} ms serial -> "
        f"{executor['process_ms']:.1f} ms process ({executor['speedup']:.2f}x on "
        f"{executor['cpu_count']} cores, {executor['workers']} workers, "
        f"bit parity {executor['bit_parity']})"
    )
    recovery = results["worker_recovery"]
    print(
        f"worker recovery [{recovery['layout']}]: {recovery['unsupervised_ms']:.1f} ms raw -> "
        f"{recovery['supervised_ms']:.1f} ms supervised "
        f"({recovery['supervised_over_unsupervised']:.2f}x); kill->heal "
        f"{recovery['recovered_iteration_ms']:.1f} ms ({recovery['respawns_per_s']:.1f} "
        f"respawns/s, {recovery['respawns']} respawns, bit parity {recovery['bit_parity']})"
    )
    search = results["plan_search"]
    print(
        f"plan search [{search['query']}]: {search['cold_s']:.2f} s cold "
        f"({search['candidates']} candidates, {search['workers']} workers) -> "
        f"{search['warm_s']:.2f} s warm ({search['warm_speedup']:.1f}x, "
        f"{search['warm_evaluated']} warm evaluations)"
    )
    print(f"[written to {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

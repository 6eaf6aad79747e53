"""The six BENCH_e2e workloads: set-up, timed closed loop, correctness checks, metrics.

One caller drives the program and waits for each ``Pretrainer.train_iteration``
/ ``run_search`` to return (a closed loop with one client); the only other
processes are the ones the program itself forks.  Every workload is run the
same way: set up (several times, the median is ``setup_s``), run warm
operations until ``--seconds`` of wall clock have passed *and* the fixed
horizon has been reached, check the outputs, report.  The deterministic
read-outs (loss, weights hash) are taken at the horizon, not at the end, so
they do not depend on how many operations a faster or slower box fits in.

The metric names, units and directions live in ``BENCHMARK.json`` (repo root);
this module computes a value for every name listed there and refuses to
report anything else.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import multiprocessing
import os
import pathlib
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data import LanguageModelingDataLoader, SyntheticCorpus, SyntheticCorpusConfig
from repro.models.gpt_configs import functional_config
from repro.parallel.pipeline_schedule import build_1f1b_schedule
from repro.parallel.scheduler import StageCosts, SynthesisSpec, evaluate_schedule, synthesize_schedule
from repro.plan import Boundary, ParallelPlan, ResilienceSpec, Schedule
from repro.search import SearchCache, SearchQuery, run_search
from repro.search.pool import evaluate_task
from repro.training.checkpoint import latest_checkpoint, load_checkpoint, save_rotating_checkpoint
from repro.training.trainer import Pretrainer

import trace as tracing  # benchmarks/e2e/trace.py: run.py puts this directory first on sys.path

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: Forked workers the program may use: DP replicas and search-pool workers.
WORKERS = min(2, os.cpu_count() or 1)

#: float64 functional GPT shapes.  ``compute``: ~0.93 M elements per replica and
#: 128 tokens per micro-batch, so numerics (not Python dispatch) dominate.
#: ``comm``: ~3.4 M elements and 32 tokens per micro-batch, so gradient sync and
#: the optimizer are over half the iteration — the paper's communication-bound regime.
SHAPES = {
    "compute": dict(vocab_size=512, sequence_length=64, num_layers=4, hidden_size=128, num_heads=4),
    "comm": dict(vocab_size=512, sequence_length=16, num_layers=4, hidden_size=256, num_heads=4),
}
MICRO_BATCH_SIZE = 2


def _dense_plan() -> ParallelPlan:
    return ParallelPlan.preset("baseline").with_topology(pp=2, dp=2, micro_batches=4)


def _optimus_plan() -> ParallelPlan:
    return ParallelPlan.preset("cb_fe_sc").with_topology(pp=2, dp=4, micro_batches=2).proxy_scaled(4)


def _quant_auto_plan() -> ParallelPlan:
    plan = ParallelPlan(
        schedule=Schedule(kind="auto", memory_cap_factor=1.5, dp_fire="micro_batch")
    ).with_topology(pp=2, dp=2, micro_batches=4)
    plan = plan.with_boundary(
        Boundary.DP, codec="qsgd", bits=4, stage_fraction=1.0, error_feedback=True
    )
    return plan.with_boundary(Boundary.PP, codec="topk", fraction=0.1)


def _process_guarded_plan() -> ParallelPlan:
    plan = ParallelPlan.preset("cb_fe_sc").with_topology(pp=2, dp=2, micro_batches=4)
    return plan.proxy_scaled(4).with_executor("process").with_resilience(ResilienceSpec())


@dataclass(frozen=True)
class TrainWorkload:
    """One training workload: the count of operations, never the shape, is the knob."""

    shape: str
    plan: Callable[[], ParallelPlan]
    #: ``save_rotating_checkpoint`` after every this many timed iterations (0 = never).
    checkpoint_every: int = 0
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats: int = 3


TRAIN = {
    "train_dense": TrainWorkload("compute", _dense_plan),
    "train_optimus": TrainWorkload("comm", _optimus_plan, setup_repeats=2),
    "train_quant_auto": TrainWorkload("comm", _quant_auto_plan),
    "train_process_guarded": TrainWorkload("compute", _process_guarded_plan, checkpoint_every=10),
}

#: Untimed iterations of every training set-up (lazy fork, first-touch page faults).
WARMUP = 3
#: Timed iterations every training run completes; loss and weights hash are read here.
HORIZON = 10
#: Iterations (warm-up included) after which ``train_process_guarded`` must be
#: bit-identical to a serial run of the same plan and seed.
ORACLE_ITERATIONS = 5
#: External SIGKILL -> heal cycles after the timed region: two per worker, the
#: default ``ResilienceSpec`` respawn budget.
HEAL_CYCLES = 4
#: Every n-th candidate is evaluated inline for ``simulator.evaluate_ms_per_plan``.
EVALUATE_STRIDE = 10


# -- small measuring helpers ---------------------------------------------------------


class ReferenceKernel:
    """A fixed few milliseconds of the program's kind of work, timed beside every operation.

    This box is shared: for minutes at a time everything on it runs 1.5-2x
    slower, every layer alike.  The kernel's median time in a run says how
    fast *the box* was during that run, and every timing the run reports is
    scaled by ``nominal / measured`` — "at the speed of a quiet box".  The
    kernel shares no code with the program, so a change to the program cannot
    move it.  Neighbours slow arithmetic, memory streaming and the interpreter
    by different factors, so the kernel is of the workload's kind:
    ``compute`` (BLAS matmuls, an attention-shaped einsum, cache-resident
    elementwise passes), ``comm`` (the same plus one pass over buffers larger
    than L2 — on the ``comm`` shape a third of an iteration streams the
    arenas), ``interpreter`` (search: JSON, SHA-256 and dict churn in Python).
    """

    #: Median kernel time on this box when nothing else runs on it.
    NOMINAL_MS = {"compute": 3.2, "comm": 4.8, "interpreter": 2.0}

    def __init__(self, kind: str) -> None:
        self.kind = kind
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((192, 192))
        self.heads = rng.standard_normal((2, 4, 64, 32))
        self.vector = rng.standard_normal(200_000)
        self.moment = np.zeros_like(self.vector)
        self.stream = rng.standard_normal(1_500_000 if kind == "comm" else 0)
        self.stream_sum = np.zeros_like(self.stream)
        self.document = {
            "plan": {name: {"codec": "powersgd", "rank": 128, "bits": 4} for name in ("dp", "pp", "embedding")},
            "topology": {"dp": 4, "pp": 8, "tp": 4, "micro_batches": 8},
            "model": {"layers": 72, "hidden": 3072},
        }

    def __call__(self) -> float:
        started = time.perf_counter()
        if self.kind == "interpreter":
            for _ in range(150):
                text = json.dumps(self.document, sort_keys=True, separators=(",", ":"))
                hashlib.sha256(text.encode("ascii")).hexdigest()
                {key: dict(value) for key, value in json.loads(text).items()}
        else:
            for _ in range(8):
                self.matrix @ self.matrix
            for _ in range(2):
                np.einsum("bhqd,bhkd->bhqk", self.heads, self.heads)
            np.multiply(self.moment, 0.9, out=self.moment)
            np.add(self.moment, self.vector, out=self.moment)
            np.sqrt(np.abs(self.moment))
            np.add(self.stream_sum, self.stream, out=self.stream_sum)
        return time.perf_counter() - started


class TimedRegion:
    """Wall clock of the timed operations, minus what the harness itself spends."""

    def __init__(self, kind: str) -> None:
        self.samples: list[float] = []
        self.reference: list[float] = []
        self.kernel = ReferenceKernel(kind)
        self.excluded = 0.0
        self.start = time.perf_counter()

    def run(self, tracer, span_name: str, operation):
        """Time one operation under a span of its own, then sample the box."""
        with tracer.span(span_name):
            started = time.perf_counter()
            result = operation()
            duration = time.perf_counter() - started
        self.samples.append(duration)
        with self.exclude():
            # Sample the box for 2 % of the time the operation took (at least
            # three samples): a 5 s search pass gets ~50, an iteration three.
            probing, taken = 0.0, 0
            while taken < 3 or probing < 0.02 * duration:
                self.reference.append(self.kernel())
                probing += self.reference[-1]
                taken += 1
        return result

    def box_speed(self) -> float:
        """1.0 on a quiet box; 0.6 when the box ran everything 1/0.6 times slower."""
        nominal = ReferenceKernel.NOMINAL_MS[self.kernel.kind]
        return nominal / (statistics.median(self.reference) * 1e3)

    @contextmanager
    def exclude(self):
        """Harness bookkeeping (hashing, temp-dir clean-up) that no user waits for."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - started

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.excluded


def _tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and which one it is.

    With twenty samples or fewer that percentile is at or below the median, so
    the maximum is reported instead (percentile 100: the worst seen, not a
    repeatable tail).
    """
    ordered = sorted(samples)
    if len(ordered) > 20:
        return ordered[len(ordered) - 11], 100.0 * (len(ordered) - 10) / len(ordered)
    return ordered[-1], 100.0


def _peak_rss_mb() -> float:
    """Max RSS of this process plus that of its largest forked child, live or reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for process in multiprocessing.active_children():
        with open(f"/proc/{process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    child = max(child, int(line.split()[1]))
    return (own + child) / 1024.0


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6


def _weights_sha256(trainer: Pretrainer) -> str:
    digest = hashlib.sha256()
    for arena in trainer.engine.arenas:
        digest.update(arena.data)
    return digest.hexdigest()


def _directory_bytes(root: pathlib.Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def _report(name, seed, seconds, smoke, checks, attempted, failed, end_to_end, info) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "end_to_end": end_to_end,
        "info": info,
    }


# -- training workloads --------------------------------------------------------------


def build_trainer(workload: TrainWorkload, seed: int, plan: ParallelPlan) -> Pretrainer:
    """A fresh trainer; the program only ever sees the batches the corpus generates."""
    shape = SHAPES[workload.shape]
    corpus = SyntheticCorpus(
        SyntheticCorpusConfig(vocab_size=shape["vocab_size"], seed=seed + 1_000_003)
    )
    loader = LanguageModelingDataLoader(
        corpus,
        sequence_length=shape["sequence_length"],
        micro_batch_size=MICRO_BATCH_SIZE,
        num_micro_batches=plan.topology.micro_batches,
        data_parallel_degree=plan.topology.dp,
    )
    trainer = Pretrainer(functional_config(**shape), loader, plan=plan, seed=seed)
    # Pretrainer builds its engine through OptimusCC.build_engine, which does
    # not forward plan.schedule.kind / memory_cap_factor: the engine silently
    # replays "1f1b" whatever the plan says.  Until the program honours its
    # plan, set the public attributes the engine derives from it, so that
    # train_quant_auto runs the synthesized split-backward schedule it names.
    # For a 1f1b plan (and once the program is fixed) this changes nothing.
    engine = trainer.engine
    engine.schedule_kind = plan.schedule.kind
    engine.memory_cap_factor = plan.schedule.memory_cap_factor
    for pipeline in engine.pipeline_engines:
        pipeline.schedule_kind = plan.schedule.kind
        pipeline.memory_cap_factor = plan.schedule.memory_cap_factor
    if engine.bucketed_sync is not None:
        engine.bucketed_sync.schedule_kind = plan.schedule.kind
    return trainer


def _serial_oracle(workload: TrainWorkload, seed: int, iterations: int, tracer) -> tuple[str, list[float]]:
    """Weights hash and iteration times of a serial run of the same plan and seed."""
    trainer = build_trainer(workload, seed, workload.plan().with_executor("serial"))
    times = []
    for index in range(iterations):
        tracer.op_index = index
        started = time.perf_counter()
        with tracer.span("train.iteration"):
            trainer.train_iteration()
        times.append(time.perf_counter() - started)
    return _weights_sha256(trainer), times


def _heal_cycles(trainer: Pretrainer, cycles: int) -> list[float]:
    """SIGKILL a live worker from outside, then time the iteration that heals it."""
    times = []
    for cycle in range(cycles):
        prefix = f"repro-exec-dp{cycle % trainer.data_parallel_degree}"
        victim = next(
            process
            for process in multiprocessing.active_children()
            if process.name == prefix or process.name.startswith(prefix + "-")
        )
        os.kill(victim.pid, signal.SIGKILL)
        started = time.perf_counter()
        trainer.train_iteration()
        times.append(time.perf_counter() - started)
    return times


def unpinned_probe(seed: int, iterations: int = 3, deadline_s: float = 25.0) -> float:
    """Median ``train_process_guarded`` iteration seconds in *this* process.

    ``run.py --unpinned-probe`` calls it in a child whose BLAS thread pins were
    removed; the deadline is checked between iterations so the probe always
    shuts its workers down itself.
    """
    workload = TRAIN["train_process_guarded"]
    times = []
    with build_trainer(workload, seed, workload.plan()) as trainer:
        trainer.train_iteration()
        started = time.perf_counter()
        while len(times) < iterations and time.perf_counter() - started < deadline_s:
            before = time.perf_counter()
            trainer.train_iteration()
            times.append(time.perf_counter() - before)
    return statistics.median(times)


def _unpinned_slowdown(seed: int, pinned_s: float) -> float:
    environment = {
        key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")
    }
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--unpinned-probe", "--seed", str(seed)],
        env=environment,
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1]) / pinned_s


def _schedule_shape(plan: ParallelPlan) -> tuple[int, float]:
    """Ops per iteration and idle share of the op lists at unit costs (F=1, B=2, W=1)."""
    stages, micro_batches = plan.topology.pp, plan.topology.micro_batches
    spec = SynthesisSpec(
        num_stages=stages,
        num_micro_batches=micro_batches,
        costs=tuple(StageCosts(1.0, 2.0, 1.0) for _ in range(stages)),
        memory_cap_factor=plan.schedule.memory_cap_factor,
    )
    if plan.schedule.kind == "auto":
        synthesized = synthesize_schedule(spec)
        ops, bubble = synthesized.stage_ops(), synthesized.bubble_fraction
    else:
        ops = build_1f1b_schedule(stages, micro_batches)
        bubble = evaluate_schedule(ops, spec)[1]
    return sum(len(stage_ops) for stage_ops in ops) * plan.topology.dp, bubble


def run_train(name: str, seed: int, seconds: float, smoke: bool, tracer) -> dict:
    workload = TRAIN[name]
    warmup, horizon = (1, 2) if smoke else (WARMUP, HORIZON)
    checkpoint_every = min(workload.checkpoint_every, horizon)
    oracle_iterations = min(ORACLE_ITERATIONS, warmup + horizon)
    process = workload.plan().executor == "process"
    repeats = 1 if smoke or tracer.enabled else workload.setup_repeats
    layers: dict[str, float] = {}

    def set_up() -> tuple[ParallelPlan, Pretrainer, float]:
        with tracer.span("plan.build", leaf=True):
            plan = ParallelPlan.from_json(workload.plan().to_json())
        trainer = build_trainer(workload, seed, plan)
        try:
            first_loss = trainer.train_iteration()
            for _ in range(warmup - 1):
                trainer.train_iteration()
        except BaseException:
            trainer.close()
            raise
        return plan, trainer, first_loss

    setup_samples = []
    for repeat in range(repeats):
        started = time.perf_counter()
        plan, trainer, first_loss = set_up()
        setup_samples.append(time.perf_counter() - started)
        if repeat < repeats - 1:
            trainer.close()
            del trainer
            gc.collect()

    checks: dict[str, bool] = {}
    info: dict = {"setup_samples_s": setup_samples}
    losses: list[float] = []
    checkpoint_times: list[float] = []
    raised = 0
    with trainer, tempfile.TemporaryDirectory(prefix="bench-e2e-ckpt-") as checkpoint_dir:
        tokens_per_iteration = trainer.loader.mini_batch_size * trainer.loader.sequence_length
        records_before = len(trainer.engine.log.records)
        rss_before = _rss_mb()
        tracer.phase = "timed"
        region = TimedRegion(workload.shape)
        while True:
            index = tracer.op_index = len(region.samples)
            try:
                losses.append(region.run(tracer, "train.iteration", trainer.train_iteration))
            except Exception as error:  # noqa: BLE001 - a failed operation is a result
                if not region.samples:
                    raise
                info["error"] = repr(error)
                raised = 1
                break
            done = index + 1
            if process and warmup + done == oracle_iterations:
                with region.exclude():
                    info["oracle_sha256"] = _weights_sha256(trainer)
            if done == horizon:
                with region.exclude():
                    info["weights_sha256"] = _weights_sha256(trainer)
            if checkpoint_every and done % checkpoint_every == 0:
                started = time.perf_counter()
                with tracer.span("checkpoint.save", leaf=True):
                    checkpoint_path = save_rotating_checkpoint(trainer, checkpoint_dir, keep_last=2)
                checkpoint_times.append(time.perf_counter() - started)
            on_round = not checkpoint_every or done % checkpoint_every == 0
            if done >= horizon and on_round and region.elapsed() >= seconds:
                break
        wall = region.elapsed()
        tracer.phase, tracer.op_index = "post", -1
        rss_after = _rss_mb()
        peak_rss = _peak_rss_mb()
        result = trainer.last_iteration_result
        iteration_p50 = statistics.median(region.samples)
        records_per_iteration = (len(trainer.engine.log.records) - records_before) / len(region.samples)

        window = losses[max(0, horizon - 5) : horizon]
        loss_final = statistics.fmean(window)
        checks["losses_finite"] = all(math.isfinite(loss) for loss in losses)
        checks["loss_decreased"] = loss_final < first_loss
        checks["weights_in_sync"] = trainer.weights_in_sync()

        if checkpoint_times:
            # The timed region ends on a checkpoint boundary, so the live
            # weights are exactly what the last rotating checkpoint holds.
            started = time.perf_counter()
            with tracer.span("checkpoint.load", leaf=True):
                fresh = build_trainer(workload, seed, plan.with_executor("serial"))
                load_checkpoint(fresh, latest_checkpoint(checkpoint_dir))
            layers["checkpoint.load_ms"] = (time.perf_counter() - started) * 1e3
            checks["checkpoint_roundtrip"] = all(
                np.array_equal(live.data, restored.data)
                for live, restored in zip(trainer.engine.arenas, fresh.engine.arenas)
            )
            layers["checkpoint.mb"] = checkpoint_path.stat().st_size / 1e6
            del fresh

        if process and tracer.enabled:
            heal_times = _heal_cycles(trainer, 1 if smoke else HEAL_CYCLES)
            layers["exec.heal_ms"] = (statistics.median(heal_times) - iteration_p50) * 1e3
            layers["exec.respawns"] = float(trainer.resilience_report.respawns)
            checks["healed"] = trainer.resilience_report.respawns == len(heal_times)
        failed = raised + trainer.resilience_report.skipped_steps

    if process:
        if tracer.enabled:
            # The pipelines ran in forked workers whose spans are not shipped
            # back; their nn / compressed-backprop split is read off the
            # serial oracle of the same plan instead.
            tracer.install(tracing.PIPELINE_PATCHES)
        tracer.phase = "oracle"
        oracle_sha, oracle_times = _serial_oracle(workload, seed, oracle_iterations, tracer)
        tracer.phase, tracer.op_index = "post", -1
        checks["process_matches_serial_oracle"] = info.get("oracle_sha256") == oracle_sha
        if tracer.enabled:
            layers["exec.scaling_efficiency"] = (
                statistics.median(oracle_times[1:])
                / iteration_p50
                / min(plan.topology.dp, os.cpu_count() or 1)
            )
            if not smoke:
                layers["exec.unpinned_slowdown"] = _unpinned_slowdown(seed, iteration_p50)

    speed = region.box_speed()
    end_to_end = {
        "setup_s": statistics.median(setup_samples) * speed,
        "op_ms_p50": iteration_p50 * 1e3 * speed,
        "work_per_s": tokens_per_iteration * len(region.samples) / wall / speed,
        "traffic_mb_per_op": sum(result.axis_wire_bytes.values()) / 1e6,
        "cost_per_token": loss_final,
        "peak_rss_mb": peak_rss,
    }
    info.update(
        box_speed=speed,
        op_ms_p50_as_measured=iteration_p50 * 1e3,
        op_ms_as_measured=[sample * 1e3 for sample in region.samples],
        op="Pretrainer.train_iteration",
        op_samples=len(region.samples),
        timed_wall_s=wall,
        work_unit="tokens",
        first_loss=first_loss,
    )
    report = _report(
        name, seed, seconds, smoke, checks, len(region.samples) + raised, failed, end_to_end, info
    )
    if tracer.enabled:
        ops_per_iteration, bubble = _schedule_shape(plan)
        layers.update(
            {
                "scheduler.ops_per_iter": float(ops_per_iteration),
                "scheduler.bubble_share": bubble,
                "optim.elements": float(sum(arena.num_elements for arena in trainer.engine.arenas)),
                "comm.wire_mb.dp": result.axis_wire_bytes["data_parallel"] / 1e6,
                "comm.wire_mb.pp": (
                    result.axis_wire_bytes["pipeline_forward"]
                    + result.axis_wire_bytes["pipeline_backward"]
                )
                / 1e6,
                "comm.wire_mb.embedding": result.axis_wire_bytes["embedding"] / 1e6,
                "comm.dp_overlapped_share": result.dp_overlapped_fraction,
                "comm.records": records_per_iteration,
                "training.rss_growth_mb": rss_after - rss_before,
                "box.speed": speed,
                "box.reference_ms": statistics.median(region.reference) * 1e3,
                "checkpoint.save_ms": (
                    statistics.fmean(checkpoint_times) * 1e3 if checkpoint_times else 0.0
                ),
                "checkpoint.stall_share": sum(checkpoint_times) / wall,
            }
        )
        report["per_layer"] = _train_layers(
            tracer, layers, region.samples, "oracle" if process else "timed", oracle_iterations
        )
    return report


def _train_layers(tracer, layers, samples, pipeline_phase, oracle_iterations) -> dict[str, float]:
    """Mean ms per timed iteration of every traced layer boundary."""
    stats = tracer.stats()
    timed, setup, pipeline = stats["timed"], stats["setup"], stats[pipeline_phase]
    pipeline_ops = len(samples) if pipeline_phase == "timed" else oracle_iterations

    def ms(name, field="total_ns"):
        return getattr(timed[name], field) / 1e6 / len(samples)

    def pipeline_ms(name, field="total_ns"):
        return getattr(pipeline[name], field) / 1e6 / pipeline_ops

    compress, decompress = pipeline["compression.compress"], pipeline["compression.decompress"]
    codec_seconds = (compress.total_ns + decompress.total_ns) / 1e9
    operation = timed["train.iteration"]
    tail, tail_percentile = _tail(samples)
    layers.update(
        {
            "data.batches_ms": ms("data.batches"),
            "plan.build_ms": setup["plan.build"].total_ns / 1e6,
            "scheduler.synthesize_ms": pipeline_ms("scheduler.synthesize"),
            "engine.iteration_ms": ms("engine.iteration"),
            "engine.self_ms": ms("engine.iteration", "self_ns"),
            "pipeline.run_ms": pipeline_ms("pipeline.run"),
            "pipeline.self_ms": pipeline_ms("pipeline.run", "self_ns"),
            "nn.forward_ms": pipeline_ms("nn.forward"),
            "nn.backward_input_ms": pipeline_ms("nn.backward_input"),
            "nn.backward_weight_ms": pipeline_ms("nn.backward_weight"),
            "nn.backward_ms": pipeline_ms("nn.backward_input") + pipeline_ms("nn.backward_weight"),
            "nn.ops": sum(
                pipeline[name].calls
                for name in ("nn.forward", "nn.backward_input", "nn.backward_weight")
            )
            / pipeline_ops,
            "compression.compress_ms": pipeline_ms("compression.compress"),
            "compression.decompress_ms": pipeline_ms("compression.decompress"),
            "compression.calls": compress.calls / pipeline_ops,
            "compression.in_mb": compress.value / 1e6 / pipeline_ops,
            "compression.mb_per_s": compress.value / 1e6 / codec_seconds if codec_seconds else 0.0,
            "core.cb_ms": pipeline_ms("core.cb"),
            "core.cb_calls": pipeline["core.cb"].calls / pipeline_ops,
            "core.sc_reduce_ms": ms("core.sc_reduce"),
            "core.embedding_sync_ms": ms("core.embedding_sync"),
            "dp.sync_ms": ms("dp.sync"),
            "dp.self_ms": ms("dp.sync", "self_ns") + ms("dp.reduce", "self_ns"),
            "dp.buckets": timed["dp.reduce"].calls / len(samples),
            "optim.step_ms": ms("optim.step"),
            "optim.zero_grad_ms": ms("optim.zero_grad"),
            "exec.start_ms": setup["exec.start"].total_ns / 1e6,
            "exec.run_ms": ms("exec.run"),
            "exec.fetch_cb_ms": ms("exec.fetch_cb"),
            "resilience.snapshot_ms": ms("resilience.snapshot"),
            "training.loop_self_ms": ms("train.iteration", "self_ns"),
            "trace.coverage_share": 1.0 - operation.self_ns / operation.total_ns,
            "trace.spans": float(tracer.count),
            "op_ms_tail": tail * 1e3,
            "op_tail_percentile": tail_percentile,
            "op_samples": float(len(samples)),
        }
    )
    return layers


# -- search workloads ----------------------------------------------------------------


def run_search_workload(name: str, seed: int, seconds: float, smoke: bool, tracer) -> dict:
    """``search_cold`` (cache writes, pooled simulator) or ``search_warm`` (cache reads).

    Expansion is RNG-free, so the search workloads ignore ``--seed``.
    """
    cold = name == "search_cold"
    text = (HERE / "queries" / ("smoke.json" if smoke else "flagship.json")).read_text(encoding="utf-8")
    primer = (HERE / "queries" / "smoke.json").read_text(encoding="utf-8")
    warmup, horizon = (1, 2) if smoke else ((1, 2) if cold else (2, 10))
    repeats = 1 if smoke or tracer.enabled else (5 if cold else 2)
    layers: dict[str, float] = {}

    with tempfile.TemporaryDirectory(prefix="bench-e2e-search-") as scratch:
        scratch_path = pathlib.Path(scratch)

        def set_up(repeat: int):
            query = SearchQuery.from_json(text)
            if cold:
                # The fork, pool and cache-write paths are primed on the small
                # query: pool workers die with each pass, so nothing a full
                # pass would warm survives into the timed region anyway.
                for index in range(warmup):
                    run_search(
                        SearchQuery.from_json(primer),
                        workers=WORKERS,
                        cache=SearchCache(scratch_path / f"primer-{repeat}-{index}"),
                    )
                return query, None, None
            cache = SearchCache(scratch_path / f"warm-{repeat}")
            reference = run_search(query, workers=WORKERS, cache=cache).to_json()
            for _ in range(warmup):
                run_search(query, workers=0, cache=cache)
            return query, cache, reference

        setup_samples = []
        for repeat in range(repeats):
            started = time.perf_counter()
            query, warm_cache, reference = set_up(repeat)
            setup_samples.append(time.perf_counter() - started)

        outcomes = []
        answers = []
        serialise_times = []

        def one_pass(cache: SearchCache):
            outcome = run_search(query, workers=WORKERS if cold else 0, cache=cache)
            started = time.perf_counter()
            with tracer.span("search.serialise", leaf=True):
                answer = outcome.to_json()
            serialise_times.append(time.perf_counter() - started)
            return outcome, answer

        rss_before = _rss_mb()
        tracer.phase = "timed"
        region = TimedRegion("interpreter")
        while True:
            index = tracer.op_index = len(region.samples)
            cache = SearchCache(scratch_path / f"cold-{index}") if cold else warm_cache
            outcome, answer = region.run(tracer, "search.query", lambda: one_pass(cache))
            outcomes.append(outcome)
            answers.append(answer)
            with region.exclude():
                cache_bytes = _directory_bytes(cache.root)
                if cold:
                    shutil.rmtree(cache.root)
            if index + 1 >= horizon and region.elapsed() >= seconds:
                break
        wall = region.elapsed()
        tracer.phase, tracer.op_index = "post", -1
        rss_after = _rss_mb()

        last = outcomes[-1]
        candidates = last.candidates
        checks = {
            "no_errors": all(outcome.errors == 0 for outcome in outcomes),
            "answers_identical": all(answer == answers[0] for answer in answers),
            "frontier_not_empty": bool(last.entries),
        }
        if cold:
            checks["every_candidate_evaluated"] = all(
                outcome.evaluated == outcome.candidates for outcome in outcomes
            )
        else:
            checks["nothing_evaluated"] = all(outcome.evaluated == 0 for outcome in outcomes)
            checks["warm_equals_cold_answer"] = answers[0] == reference

        if tracer.enabled:
            sample = query.expand()[::EVALUATE_STRIDE]
            started = time.perf_counter()
            for candidate in sample:
                evaluate_task(candidate.task(query))
            layers["simulator.evaluate_ms_per_plan"] = (
                (time.perf_counter() - started) * 1e3 / len(sample)
            )

    best_tokens_per_s = last.entries[0]["metrics"]["tokens_per_second"] if last.entries else 0.0
    speed = region.box_speed()
    end_to_end = {
        "setup_s": statistics.median(setup_samples) * speed,
        "op_ms_p50": statistics.median(region.samples) * 1e3 * speed,
        "work_per_s": candidates * len(region.samples) / wall / speed,
        "traffic_mb_per_op": cache_bytes / 1e6,
        "cost_per_token": 1e6 / best_tokens_per_s if best_tokens_per_s else float("nan"),
        "peak_rss_mb": _peak_rss_mb(),
    }
    info = {
        "setup_samples_s": setup_samples,
        "box_speed": speed,
        "op_ms_p50_as_measured": statistics.median(region.samples) * 1e3,
        "op_ms_as_measured": [sample * 1e3 for sample in region.samples],
        "op": "run_search + SearchOutcome.to_json",
        "op_samples": len(region.samples),
        "timed_wall_s": wall,
        "work_unit": "candidates",
        "frontier_sha256": hashlib.sha256(answers[0].encode("utf-8")).hexdigest(),
        "note": "search workloads ignore --seed (candidate expansion is RNG-free)",
    }
    report = _report(
        name,
        seed,
        seconds,
        smoke,
        checks,
        candidates * len(outcomes),
        sum(outcome.errors for outcome in outcomes),
        end_to_end,
        info,
    )
    if tracer.enabled:
        timed = tracer.stats()["timed"]
        passes = len(region.samples)

        def ms(span_name, field="total_ns"):
            return getattr(timed[span_name], field) / 1e6 / passes

        operation = timed["search.query"]
        tail, tail_percentile = _tail(region.samples)
        pool_run_ms = ms("search.pool_run")
        layers.update(
            {
                "simulator.evaluations": float(last.evaluated),
                "simulator.best_tokens_per_s": best_tokens_per_s,
                "search.expand_ms": ms("search.expand"),
                "search.candidates": float(candidates),
                "search.key_ms": ms("search.key"),
                "search.cache_get_ms": ms("search.cache_get"),
                "search.cache_put_ms": ms("search.cache_put"),
                "search.cache_hit_share": last.cache_hits / candidates,
                "search.pool_start_ms": ms("search.pool_start"),
                "search.pool_run_ms": pool_run_ms,
                "search.pool_efficiency": (
                    layers["simulator.evaluate_ms_per_plan"] * last.evaluated / (WORKERS * pool_run_ms)
                    if cold and pool_run_ms
                    else 0.0
                ),
                "search.frontier_ms": ms("search.frontier"),
                "search.frontier_size": float(len(last.entries)),
                "search.serialise_ms": statistics.fmean(serialise_times) * 1e3,
                "training.rss_growth_mb": rss_after - rss_before,
                "box.speed": speed,
                "box.reference_ms": statistics.median(region.reference) * 1e3,
                "trace.coverage_share": 1.0 - operation.self_ns / operation.total_ns,
                "trace.spans": float(tracer.count),
                "op_ms_tail": tail * 1e3,
                "op_tail_percentile": tail_percentile,
                "op_samples": float(passes),
            }
        )
        report["per_layer"] = layers
    return report


# -- one workload, untraced then traced ----------------------------------------------


def _shared_memory_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, trace_out=None) -> dict:
    """Run one workload untraced; with ``trace``, run it again traced and merge.

    End-to-end metrics always come from the untraced run.  The traced run of
    the same workload and seed supplies the per-layer numbers; the gap between
    the two medians is ``trace.overhead_share`` and their weights hashes must
    be equal (the wrappers perturb nothing, the seed is honoured).
    """
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; BENCHMARK.json names {WORKLOADS}")
    driver = run_train if name in TRAIN else run_search_workload
    segments_before = _shared_memory_segments()
    report = driver(name, seed, seconds, smoke, tracing.Tracer(name, enabled=False))
    if trace:
        gc.collect()
        tracer = tracing.Tracer(name)
        if name in TRAIN:
            patches = tracing.TRAIN_PATCHES + tracing.CODEC_PATCHES
            if TRAIN[name].plan().executor != "process":
                patches = patches + tracing.PIPELINE_PATCHES
        else:
            patches = tracing.SEARCH_PATCHES
        tracer.install(patches)
        try:
            traced = driver(name, seed, seconds, smoke, tracer)
        finally:
            tracer.uninstall()
        untraced_p50 = report["end_to_end"]["op_ms_p50"]
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(traced["per_layer"])
        layers["trace.overhead_share"] = (traced["end_to_end"]["op_ms_p50"] - untraced_p50) / untraced_p50
        if set(layers) != set(PER_LAYER):
            raise RuntimeError(
                f"per-layer metrics drifted from BENCHMARK.json: {sorted(set(layers) ^ set(PER_LAYER))}"
            )
        report["per_layer"] = layers
        report["checks"].update({f"traced.{check}": ok for check, ok in traced["checks"].items()})
        identity = "weights_sha256" if name in TRAIN else "frontier_sha256"
        report["checks"]["traced_equals_untraced"] = (
            traced["info"].get(identity) == report["info"].get(identity)
        )
        report["info"]["traced"] = traced["info"]
        report["info"]["spans_dropped"] = tracer.dropped
        if trace_out is not None:
            pathlib.Path(trace_out).write_text(json.dumps(tracer.chrome_trace()), encoding="utf-8")
    report["checks"]["no_orphans"] = (
        not multiprocessing.active_children() and _shared_memory_segments() <= segments_before
    )
    report["correct"] = all(report["checks"].values())
    if not report["correct"]:
        # A failed correctness check fails every operation of the workload.
        report["failed"] = report["attempted"]
    if set(report["end_to_end"]) != set(END_TO_END):
        raise RuntimeError(
            f"end-to-end metrics drifted from BENCHMARK.json: {sorted(set(report['end_to_end']) ^ set(END_TO_END))}"
        )
    return report

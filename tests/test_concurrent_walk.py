"""The pipeline walk on several threads: what it may use, and that nothing observable moves.

``PipelineParallelEngine.run_iteration`` walks a replica's stages on
``walk_threads`` threads: ``min(pp, usable cores // (concurrent replica runs x
BLAS threads))``.  Asserted here:

* **the budget** — usable cores are the affinity mask's size (``repro search``'s
  pool default reads the same helper), BLAS threads are its pinned count (the
  machine when unpinned), a process worker gets its share of the cores, also
  after a replica is dropped, and ``repro train`` prints the budget;
* **thread-count independence** — every schedule kind at pp 2 and 4, under the
  uncompressed, the paper's (with Fig. 11 diagnostics) and the top-k PP +
  QSGD DP plans: final weights, traffic records and Fig. 11 diagnostics at
  T = 2 and T = pp equal T = 1's;
  the same with more threads than cores and the GIL switched every
  microsecond;
* **the rest of the iteration** — the DP sync and the ``FusedAdam`` step run
  on the walk's threads: the DP hook's and the CB hooks' state, in checkpoint
  order, is part of the matrix above; a split step is the one-range step's
  bits for any thread count; the parent of a ``process`` run whose workers
  fill the cores starts no thread;
* **failure** — a stage or a codec bucket that raises on a helper thread
  re-raises its own exception in the caller, leaves no thread behind and
  never hangs; a poisoned gradient rolls back without a warning on any thread;
* **the measurements** — per-stage busy and wait time, wait exactly 0.0 on one
  thread, and the iteration's phase seconds.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import test_pipeline_engine
from repro import cli
from repro.data import LanguageModelingDataLoader, SyntheticCorpus, SyntheticCorpusConfig
from repro.models.gpt_configs import functional_config
from repro.nn.gpt_stage import build_gpt_stages
from repro.optim import fused_adam
from repro.optim.fused_adam import FusedAdam
from repro.parallel.arena import ParameterArena, bitwise_equal
from repro.parallel.engine import ThreeDParallelEngine
from repro.parallel.pipeline_engine import (
    IterationResult,
    PipelineParallelEngine,
    walk_threads,
)
from repro.plan import Boundary, ParallelPlan, ResilienceSpec
from repro.tensor.parameter import Parameter
from repro.training.trainer import Pretrainer
from repro.utils.cores import BLAS_THREAD_VARIABLES, blas_threads, usable_cores

DEEP_CONFIG = test_pipeline_engine.TestOpListWalk.DEEP_CONFIG


def allow_threads(monkeypatch, cores: int) -> None:
    """``cores`` usable cores, and BLAS pinned to one thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def report_threads_as_loss(monkeypatch) -> None:
    """Each replica run reports the threads its walk ran on as its loss."""
    run = PipelineParallelEngine.run_iteration

    def reporting(self, micro_batches, replica_runs=1):
        result = run(self, micro_batches, replica_runs)
        result.mean_loss = float(result.threads)
        return result

    monkeypatch.setattr(PipelineParallelEngine, "run_iteration", reporting)


class TestBudget:
    def test_usable_cores_are_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert usable_cores() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert usable_cores() == 64

    def test_the_search_pool_default_fits_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert cli._default_search_workers() == 2

    def test_blas_threads_are_the_pin_openblas_reads(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        assert blas_threads() == 8
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert blas_threads() == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert blas_threads() == 3
        for unset in ("0", "many"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", unset)
            assert blas_threads() == 2

    @pytest.mark.parametrize(("value", "threads"), [
        ("1,1", 1), (" 2", 2), ("3 ", 3), ("+4", 4), ("2.5", 2), ("1_0", 1), ("5abc", 5),
        ("0", 8), ("-2", 8), ("many", 8), ("", 8),
    ])
    def test_blas_threads_read_each_variable_as_atoi_does(self, monkeypatch, value, threads):
        """OpenBLAS reads the leading integer: ``OMP_NUM_THREADS=1,1`` runs it on 1 thread."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", value)
        assert blas_threads() == threads

    def test_threads_are_stages_capped_by_each_replica_runs_core_share(self, monkeypatch):
        allow_threads(monkeypatch, 2)
        assert walk_threads(4) == 2
        assert walk_threads(4, replica_runs=2) == 1
        assert walk_threads(4, replica_runs=3) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
        assert walk_threads(4) == 4
        assert walk_threads(4, replica_runs=8) == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        assert walk_threads(4) == 4
        assert walk_threads(4, replica_runs=2) == 2

    def test_unpinned_blas_keeps_the_walk_on_one_thread(self, monkeypatch):
        allow_threads(monkeypatch, 16)
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        assert walk_threads(4) == 1

    @pytest.mark.parametrize(("executor", "cores", "expected"), [
        ("serial", 2, 2.0), ("process", 2, 1.0), ("process", 4, 2.0),
    ])
    def test_a_process_worker_walks_on_its_core_share(
        self, monkeypatch, executor, cores, expected
    ):
        report_threads_as_loss(monkeypatch)
        allow_threads(monkeypatch, cores)
        plan = (
            ParallelPlan.preset("baseline")
            .with_topology(pp=2, dp=2, micro_batches=2)
            .with_executor(executor)
        )
        engine, loader = build(plan)
        with engine:
            assert engine.run_iteration(loader.iteration_batches(0)).mean_loss == expected

    def test_a_dropped_replica_hands_its_core_share_to_the_survivor(self, monkeypatch):
        report_threads_as_loss(monkeypatch)
        allow_threads(monkeypatch, 4)
        plan = (
            ParallelPlan.preset("baseline")
            .with_topology(pp=4, dp=2, micro_batches=2)
            .with_executor("process")
        )
        engine, loader = build(plan)
        with engine:
            assert engine.run_iteration(loader.iteration_batches(0)).mean_loss == 2.0
            engine.drop_replica(1)
            batches = loader.iteration_batches(1)[:1]
            assert engine.run_iteration(batches).mean_loss == 4.0

    @pytest.mark.parametrize(("executor", "expected"), [
        ("serial", "Threads: 2 per replica run (usable cores 2, replica runs at once 1, "
         "BLAS threads per call 1)"),
        ("process", "Threads: 1 per replica run (usable cores 2, replica runs at once 2, "
         "BLAS threads per call 1)"),
    ])
    def test_repro_train_prints_the_budget(self, monkeypatch, capsys, executor, expected):
        allow_threads(monkeypatch, 2)
        plan = ParallelPlan.preset("baseline").with_topology(pp=2, dp=2).with_executor(executor)
        cli._print_walk_threads(plan, plan.topology.dp)
        assert capsys.readouterr().out.strip() == expected


PLANS = {
    "baseline": lambda: ParallelPlan.preset("baseline"),
    "cb_fe_sc": lambda: ParallelPlan.preset("cb_fe_sc").proxy_scaled(4),
    "topk_pp_qsgd_dp": lambda: ParallelPlan()
    .with_boundary(Boundary.DP, codec="qsgd", bits=4, stage_fraction=1.0, min_elements=0)
    .with_boundary(Boundary.PP, codec="topk", fraction=0.1),
}


MODEL = functional_config(
    vocab_size=64, sequence_length=16, num_layers=4, hidden_size=16, num_heads=2
)


def loader_for(plan: ParallelPlan) -> LanguageModelingDataLoader:
    corpus = SyntheticCorpus(SyntheticCorpusConfig(vocab_size=64, seed=321))
    return LanguageModelingDataLoader(
        corpus,
        sequence_length=12,
        micro_batch_size=2,
        num_micro_batches=plan.topology.micro_batches,
        data_parallel_degree=plan.topology.dp,
    )


def build(plan: ParallelPlan):
    engine = ThreeDParallelEngine(MODEL, plan, seed=5, collect_cb_diagnostics=True)
    return engine, loader_for(plan)


def flattened(tree, path: str = "") -> list:
    """``tree``'s leaves in its own order, arrays as bytes: equal iff a checkpoint's state is."""
    if isinstance(tree, np.ndarray):
        return [(path, tree.dtype.str, tree.shape, tree.tobytes())]
    if isinstance(tree, dict):
        return [leaf for key, value in tree.items() for leaf in flattened(value, f"{path}/{key}")]
    if isinstance(tree, (list, tuple)):
        return [leaf for index, value in enumerate(tree) for leaf in flattened(value, f"{path}/{index}")]
    return [(path, repr(tree))]


def observables(monkeypatch, cores: int, name: str, kind: str, pp: int):
    """Weights after two trained iterations, plus every record and state whose order is observable."""
    allow_threads(monkeypatch, cores)
    plan = PLANS[name]().with_topology(pp=pp, dp=2, micro_batches=4).with_schedule(kind=kind)
    engine, loader = build(plan)
    optimizer = engine.build_optimizer(lr=1e-3)
    for iteration in range(2):
        result = engine.run_iteration(loader.iteration_batches(iteration))
        optimizer.step(result.threads)
    assert result.threads == min(cores, pp)
    hook = engine.cb_hooks[0]
    return (
        engine.arenas[0].data.copy(),
        # repr: a diagnostics record may hold a NaN, which == would call unequal.
        repr(engine.log.records),
        repr(hook.diagnostics if hook is not None else None),
        # The DP hook's and the CB hooks' state (QSGD call counts, PowerSGD
        # queries, residual slabs) in the order a checkpoint writes it.
        flattened(engine.live_mutable_state()),
        flattened(optimizer.live_state()),
    )


class TestThreadCountIndependence:
    @pytest.mark.parametrize("name", sorted(PLANS))
    @pytest.mark.parametrize("pp", [2, 4])
    @pytest.mark.parametrize("kind", ["1f1b", "serial", "zb1", "auto"])
    def test_every_observable_equals_the_one_thread_walks(self, monkeypatch, kind, pp, name):
        weights, *logs = observables(monkeypatch, 1, name, kind, pp)
        if name == "cb_fe_sc":
            assert logs[0] != "[]" and logs[1] != "[]"
        for threads in sorted({2, pp}):
            threaded_weights, *threaded_logs = observables(monkeypatch, threads, name, kind, pp)
            assert np.array_equal(threaded_weights.view(np.uint64), weights.view(np.uint64))
            assert threaded_logs == logs

    def test_more_threads_than_cores_switching_every_microsecond(self, monkeypatch):
        """Four walk threads (more than a 2-core runner has), the GIL handed over at every chance."""
        weights, *logs = observables(monkeypatch, 1, "cb_fe_sc", "zb1", 4)
        threaded: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: threaded.append(
                    observables(monkeypatch, 4, "cb_fe_sc", "zb1", 4)
                ),
                daemon=True,
            )
            runner.start()
            runner.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        threaded_weights, *threaded_logs = threaded[0]
        assert np.array_equal(threaded_weights.view(np.uint64), weights.view(np.uint64))
        assert threaded_logs == logs


class TestSplitStep:
    SIZES = {"684 elements": [(37, 11), (250,), (3, 3, 3)], "5 elements": [(5,)]}

    @pytest.mark.parametrize("sizes", sorted(SIZES))
    @pytest.mark.parametrize(
        "weight_decay, decoupled", [(0.0, False), (0.01, False), (0.01, True)]
    )
    def test_a_split_step_is_the_one_range_steps_bits(
        self, monkeypatch, sizes, weight_decay, decoupled
    ):
        """684 is not a multiple of 7, and 5 elements are fewer than 7 threads."""
        monkeypatch.setattr(fused_adam, "_TILE_ELEMENTS", 64)  # several tiles per span
        stepped = {}
        for threads in (1, 2, 3, 7):
            rng = np.random.default_rng(3)
            arena = ParameterArena(
                [Parameter(rng.standard_normal(shape), name=f"p{index}")
                 for index, shape in enumerate(self.SIZES[sizes])]
            )
            optimizer = FusedAdam(
                arena, lr=3e-3, weight_decay=weight_decay, decoupled_weight_decay=decoupled
            )
            before = threading.active_count()
            for _ in range(3):
                arena.trainable_grad[...] = rng.standard_normal(arena.num_trainable_elements)
                optimizer.step(threads)
            assert threading.active_count() == before
            stepped[threads] = [
                arena.data.copy(), optimizer._exp_avg_flat.copy(), optimizer._exp_avg_sq_flat.copy()
            ]
        for threads in (2, 3, 7):
            assert all(map(bitwise_equal, stepped[threads], stepped[1]))


class StageFailure(RuntimeError):
    pass


class CodecFailure(RuntimeError):
    pass


class TestFailure:
    @pytest.mark.parametrize(("method", "kind"), [("forward", "1f1b"), ("backward_input", "zb1")])
    @pytest.mark.parametrize(("pp", "failing_stage"), [(2, 1), (4, 2)])
    def test_a_failing_stage_reraises_and_leaves_no_thread(
        self, monkeypatch, rng, method, kind, pp, failing_stage
    ):
        allow_threads(monkeypatch, pp)
        engine = PipelineParallelEngine(
            build_gpt_stages(DEEP_CONFIG, pp, seed=5), schedule_kind=kind
        )

        def fail(*args, **kwargs):
            raise StageFailure(f"stage {failing_stage} {method}")

        monkeypatch.setattr(engine.stages[failing_stage], method, fail)
        batches = [test_pipeline_engine.make_batch(DEEP_CONFIG, rng) for _ in range(4)]
        raised: list[Exception] = []

        def call() -> None:
            try:
                engine.run_iteration(batches)
            except Exception as error:  # its type is the assertion below
                raised.append(error)

        before = threading.active_count()
        caller = threading.Thread(target=call, daemon=True)
        started = time.monotonic()
        caller.start()
        caller.join(timeout=10.0)
        assert not caller.is_alive(), "the walk hung after a stage failed"
        assert time.monotonic() - started < 10.0
        assert [type(error) for error in raised] == [StageFailure]
        assert threading.active_count() == before


    def test_a_failing_codec_bucket_reraises_its_exception_and_leaves_no_thread(
        self, monkeypatch
    ):
        allow_threads(monkeypatch, 2)
        plan = PLANS["topk_pp_qsgd_dp"]().with_topology(pp=2, dp=2, micro_batches=2)
        engine, loader = build(plan)
        engine.run_iteration(loader.iteration_batches(0))  # the first sync runs on the caller
        reduce = engine.dp_reduce.reduce_codec_bucket
        raised: list[CodecFailure] = []

        def fail_on_stage_1(bucket, flat_gradients, group):
            if bucket.stage_index == 1:
                raised.append(CodecFailure(threading.current_thread().name))
                raise raised[-1]
            reduce(bucket, flat_gradients, group)

        monkeypatch.setattr(engine.dp_reduce, "reduce_codec_bucket", fail_on_stage_1)
        before = threading.active_count()
        with pytest.raises(CodecFailure) as failure:
            engine.run_iteration(loader.iteration_batches(1))
        assert failure.value is raised[0] and str(failure.value) == "dp-sync-1"
        assert threading.active_count() == before

    @pytest.mark.parametrize("codec", ["none", "powersgd", "qsgd", "topk"])
    def test_a_poisoned_gradient_rolls_back_without_a_warning_on_any_thread(
        self, monkeypatch, codec
    ):
        """NumPy's error state is per thread: a helper thread's codec runs under the hook's."""
        allow_threads(monkeypatch, 2)
        plan = (
            PLANS["cb_fe_sc"]()
            .with_topology(pp=2, dp=2, micro_batches=2)
            .with_boundary(Boundary.DP, codec=codec, min_elements=0, stage_fraction=1.0)
            .with_resilience(ResilienceSpec(faults=("nan@1:replica=1,stage=1",)))
        )
        trainer = Pretrainer(MODEL, loader_for(plan), plan, seed=5)
        trainer.train_iteration()
        weights = trainer.engine.arenas[0].data.copy()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trainer.train_iteration()
        assert [str(warning.message) for warning in caught] == []
        assert trainer.last_iteration_result.threads == 2
        assert trainer.resilience_report.rollbacks == 1
        assert bitwise_equal(trainer.engine.arenas[0].data, weights)


class TestProcessParent:
    def test_the_parent_of_workers_that_fill_the_cores_starts_no_thread(self, monkeypatch):
        allow_threads(monkeypatch, 2)
        plan = (
            PLANS["topk_pp_qsgd_dp"]()
            .with_topology(pp=2, dp=2, micro_batches=2)
            .with_executor("process")
        )
        started: list[str] = []
        start = threading.Thread.start

        def counted(thread) -> None:
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        with Pretrainer(MODEL, loader_for(plan), plan, seed=5) as trainer:
            trainer.train_iteration()
            assert trainer.last_iteration_result.threads == 1
        assert started == []


    def test_the_first_dp_sync_allocates_on_the_calling_thread(self, monkeypatch):
        """Its codec buffers stay in the main heap; the syncs after it split."""
        allow_threads(monkeypatch, 2)
        plan = PLANS["topk_pp_qsgd_dp"]().with_topology(pp=2, dp=2, micro_batches=2)
        engine, loader = build(plan)
        started: list[str] = []
        start = threading.Thread.start

        def counted(thread) -> None:
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        for iteration in range(2):
            engine.run_iteration(loader.iteration_batches(iteration))
            assert started.count("dp-sync-1") == iteration


class TestMeasurements:
    def test_phase_seconds_are_reported_and_left_out_of_equality(self, monkeypatch):
        allow_threads(monkeypatch, 2)
        plan = PLANS["topk_pp_qsgd_dp"]().with_topology(pp=2, dp=2, micro_batches=2)
        trainer = Pretrainer(MODEL, loader_for(plan), plan, seed=5)
        trainer.train_iteration()
        result = trainer.last_iteration_result
        assert result.threads == 2
        phases = ("walk_s", "dp_sync_s", "embedding_sync_s", "step_s")
        assert all(getattr(result, phase) > 0.0 for phase in phases)
        assert result == dataclasses.replace(
            result, threads=1, **dict.fromkeys(phases, 0.0)
        )

    @pytest.mark.parametrize("kind", ["1f1b", "zb1"])
    def test_one_thread_never_waits(self, monkeypatch, rng, kind):
        allow_threads(monkeypatch, 1)
        engine = PipelineParallelEngine(
            build_gpt_stages(DEEP_CONFIG, 4, seed=5), schedule_kind=kind
        )
        result = engine.run_iteration(
            [test_pipeline_engine.make_batch(DEEP_CONFIG, rng) for _ in range(4)]
        )
        assert result.threads == 1
        assert result.stage_wait_s == [0.0] * 4
        assert len(result.stage_busy_s) == 4 and all(busy > 0 for busy in result.stage_busy_s)

    def test_threads_and_times_are_reported_and_left_out_of_equality(
        self, monkeypatch, rng
    ):
        allow_threads(monkeypatch, 2)
        engine = PipelineParallelEngine(build_gpt_stages(DEEP_CONFIG, 4, seed=5))
        result = engine.run_iteration(
            [test_pipeline_engine.make_batch(DEEP_CONFIG, rng) for _ in range(4)]
        )
        assert result.threads == 2
        assert len(result.stage_wait_s) == 4 and min(result.stage_wait_s) >= 0.0
        assert result == IterationResult(result.mean_loss, 4)


class TestOpListWalkOnOneThreadPerStage:
    """The live-activation equality, unchanged, with every stage on its own thread."""

    DEEP_CONFIG = DEEP_CONFIG
    test_live_activations_per_stage_are_the_schedules = (
        test_pipeline_engine.TestOpListWalk.test_live_activations_per_stage_are_the_schedules
    )

    @pytest.fixture(autouse=True)
    def one_thread_per_stage(self, monkeypatch):
        allow_threads(monkeypatch, 4)

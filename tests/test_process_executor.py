"""Tests for the process-parallel execution core (``repro.exec``).

The contract under test is the one the executor is built on:

* **bit-for-bit parity** — ``--executor process`` produces *identical* final
  weights, losses, and traffic records to the serial oracle, for every plan
  preset and (fuzzed) for every DP codec x EF x schedule x topology combination;
* **lifecycle hygiene** — context-managed shutdown leaves no orphaned worker
  processes and no leaked ``/dev/shm`` segments, and the engine stays fully
  usable on the serial path afterwards;
* **failure surfacing** — a dead worker raises the resilience layer's
  :class:`~repro.resilience.WorkerCrash` with the replica attributed.
"""

from __future__ import annotations

import gc
import multiprocessing
import multiprocessing.shared_memory as shared_memory
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import LanguageModelingDataLoader, SyntheticCorpus, SyntheticCorpusConfig
from repro.exec import ProcessExecutor, SharedArenaSegment
from repro.exec.workers import JOIN_TIMEOUT_S
from repro.models.gpt_configs import functional_config
from repro.parallel.arena import ParameterArena
from repro.parallel.engine import ThreeDParallelEngine
from repro.plan import PLAN_PRESETS, Boundary, ParallelPlan
from repro.resilience import WorkerCrash
from repro.training.trainer import Pretrainer


def probe_plan(preset: str = "baseline", pp: int = 2, dp: int = 2, executor: str = "serial"):
    return (
        ParallelPlan.preset(preset)
        .proxy_scaled()
        .with_topology(pp=pp, dp=dp, micro_batches=2)
        .with_executor(executor)
    )


def probe_engine(plan, seed: int = 0):
    model = functional_config(
        vocab_size=64,
        sequence_length=16,
        num_layers=plan.topology.pp,
        hidden_size=16,
        num_heads=2,
    )
    return ThreeDParallelEngine(model, plan=plan, seed=seed)


def probe_loader(plan):
    corpus = SyntheticCorpus(SyntheticCorpusConfig(vocab_size=64, seed=321))
    return LanguageModelingDataLoader(
        corpus,
        sequence_length=12,
        micro_batch_size=2,
        num_micro_batches=plan.topology.micro_batches,
        data_parallel_degree=plan.topology.dp,
    )


def train_probe(plan, iterations: int = 2, seed: int = 0):
    """Train the tiny probe under ``plan``; returns (losses, weights, records)."""
    engine = probe_engine(plan, seed=seed)
    loader = probe_loader(plan)
    optimizer = engine.build_optimizer(lr=1e-3)
    losses = []
    with engine:
        for iteration in range(iterations):
            optimizer.zero_grad()
            result = engine.run_iteration(loader.iteration_batches(iteration))
            optimizer.step()
            losses.append(result.mean_loss)
        weights = [arena.data.copy() for arena in engine.arenas]
        records = [
            (record.operation, record.category, record.wire_bytes, record.compressed)
            for record in engine.log.records
        ]
    return losses, weights, records


class TestSerialProcessParity:
    """`--executor process` is bit-for-bit the serial oracle."""

    @pytest.mark.parametrize("preset", sorted(PLAN_PRESETS))
    def test_every_preset_bit_identical(self, preset):
        serial = train_probe(probe_plan(preset, executor="serial"))
        process = train_probe(probe_plan(preset, executor="process"))
        assert serial[0] == process[0], "losses diverged"
        for serial_weights, process_weights in zip(serial[1], process[1]):
            assert np.array_equal(serial_weights, process_weights)
        assert serial[2] == process[2], "traffic records diverged"

    @settings(max_examples=6, deadline=None)
    @given(
        dp=st.integers(min_value=1, max_value=3),
        pp=st.integers(min_value=1, max_value=3),
        schedule=st.sampled_from(["1f1b", "zb1", "auto"]),
        codec=st.sampled_from(["none", "powersgd", "qsgd", "topk"]),
        error_feedback=st.booleans(),
    )
    def test_fuzzed_layouts_bit_identical(self, dp, pp, schedule, codec, error_feedback):
        """DPxPP layouts x schedule kinds x every DP codec x EF on/off."""
        plan = (
            ParallelPlan.preset("baseline")
            .with_topology(pp=pp, dp=dp, micro_batches=2)
            .with_schedule(kind=schedule)
            .with_boundary(
                Boundary.DP,
                codec=codec,
                error_feedback=error_feedback,
                # The probe's parameters are tiny: force the codec to actually
                # engage instead of falling below the compression floor.
                min_elements=1,
                stage_fraction=1.0,
                **({"rank": 2} if codec == "powersgd" else {}),
            )
        )
        serial = train_probe(plan.with_executor("serial"))
        process = train_probe(plan.with_executor("process"))
        assert serial[0] == process[0]
        for serial_weights, process_weights in zip(serial[1], process[1]):
            assert np.array_equal(serial_weights, process_weights)
        assert serial[2] == process[2]

    def test_mutable_state_round_trip_through_workers(self):
        """mutable_state() reads the CB residuals the workers sent back to the
        parent's hooks, and a rollback (load_mutable_state) reaches the workers
        with the next ``run``: replaying an iteration after a rollback
        reproduces it bit-for-bit."""
        plan = probe_plan("cb_fe_sc", executor="process")
        engine = probe_engine(plan)
        loader = probe_loader(plan)
        optimizer = engine.build_optimizer(lr=1e-3)

        def step(iteration):
            optimizer.zero_grad()
            result = engine.run_iteration(loader.iteration_batches(iteration))
            optimizer.step()
            return result.mean_loss

        with engine:
            step(0)
            snapshot = {
                "weights": engine.arenas[0].data.copy(),
                "optimizer": optimizer.state_dict(),
                "engine": engine.mutable_state(),
                "iteration": engine._iteration_index,
            }
            assert any(state is not None for state in snapshot["engine"]["cb_hooks"])
            first = step(1)
            weights_first = [arena.data.copy() for arena in engine.arenas]
            engine.arenas[0].data[...] = snapshot["weights"]  # the group's one buffer
            optimizer.zero_grad()
            optimizer.load_state_dict(snapshot["optimizer"])
            engine.load_mutable_state(snapshot["engine"])
            engine._iteration_index = snapshot["iteration"]
            assert step(1) == first
            for arena, expected in zip(engine.arenas, weights_first):
                assert np.array_equal(arena.data, expected)


    def test_compression_statistics_match_serial(self):
        """Each reply carries its run's traffic records, Fig. 11 records and
        hook state back to the parent's log and hooks, so everything read
        from them — the log record for record, the trainer's compression
        summary, the residual memory and the error-independence records —
        equals the serial run's."""

        def statistics(executor):
            plan = probe_plan("cb_fe_sc", executor=executor)
            trainer = Pretrainer(
                functional_config(
                    vocab_size=64, sequence_length=16, num_layers=2, hidden_size=16, num_heads=2
                ),
                probe_loader(plan),
                plan=plan,
                seed=0,
                collect_cb_diagnostics=True,
            )
            with trainer:
                trainer.train_iteration()
                trainer.train_iteration()
                return (
                    trainer.compression_summary,
                    list(trainer.engine.log.records),
                    trainer.engine.residual_memory_bytes(),
                    trainer.engine.cb_hooks[0].diagnostics,
                )

        serial = statistics("serial")
        assert serial[0]["compressed_fraction"] > 0
        assert serial[3], "the serial run recorded no Fig. 11 entries"
        assert statistics("process") == serial

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_hook_state_is_copied_only_across_the_pipe(self, executor, tmp_path, monkeypatch):
        """An inline run copies no compressed-backprop state; a process run
        copies each hook's state once per run on each side of the pipe (the
        parent into the ``run`` message, the worker into its reply) and loads
        it once on each side."""
        from repro.core.compressed_backprop import CompressedBackpropagation

        calls = tmp_path / "calls"
        for name in ("state_dict", "load_state_dict"):
            original = getattr(CompressedBackpropagation, name)

            def counted(self, *args, _name=name, _original=original):
                with open(calls, "a") as handle:  # appended from parent and workers alike
                    handle.write(f"{os.getpid()} {_name}\n")
                return _original(self, *args)

            monkeypatch.setattr(CompressedBackpropagation, name, counted)
        plan = probe_plan("cb_fe_sc", executor=executor)
        engine = probe_engine(plan)
        with engine:
            engine.run_iteration(probe_loader(plan).iteration_batches(0))
        lines = calls.read_text().split("\n")[:-1] if calls.exists() else []
        counts: dict[tuple[bool, str], int] = {}
        for line in lines:
            pid, name = line.split()
            key = (int(pid) == os.getpid(), name)
            counts[key] = counts.get(key, 0) + 1
        hooks = plan.topology.dp  # one CB hook per replica, no forward hook
        if executor == "serial":
            assert counts == {}
        else:
            assert counts == {
                (True, "state_dict"): hooks,
                (True, "load_state_dict"): hooks,
                (False, "state_dict"): hooks,
                (False, "load_state_dict"): hooks,
            }


class TestLifecycle:
    """No orphaned processes, no leaked segments, engine usable after close."""

    def test_close_joins_workers_and_unlinks_segments(self):
        plan = probe_plan("cb_fe_sc", executor="process")
        engine = probe_engine(plan)
        loader = probe_loader(plan)
        engine.run_iteration(loader.iteration_batches(0))
        executor = engine._process_executor
        processes = [worker.process for worker in executor.workers]
        names = [segment.name for segment in executor.segments]
        assert executor.num_workers == plan.topology.dp
        engine.close()
        assert all(not process.is_alive() for process in processes)
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        # Idempotent, and the engine keeps working on the serial path.
        engine.close()
        result = engine.run_iteration(loader.iteration_batches(1))
        assert np.isfinite(result.mean_loss)

    def test_close_returns_serial_continuation_bit_identical(self):
        """Close after N process iterations, continue serially: the tail must
        match an all-serial run bit-for-bit (weights AND CB state, which the
        parent's hooks already hold)."""
        plan = probe_plan("cb_fe_sc", executor="process")
        engine = probe_engine(plan)
        loader = probe_loader(plan)
        optimizer = engine.build_optimizer(lr=1e-3)

        def step(iteration):
            optimizer.zero_grad()
            result = engine.run_iteration(loader.iteration_batches(iteration))
            optimizer.step()
            return result.mean_loss

        step(0)
        engine.close()
        engine.executor_kind = "serial"
        tail = [step(1), step(2)]
        reference = train_probe(probe_plan("cb_fe_sc", executor="serial"), iterations=3)
        assert tail == reference[0][1:]
        for arena, expected in zip(engine.arenas, reference[1]):
            assert np.array_equal(arena.data, expected)

    def test_context_manager_cleans_up_on_error(self):
        plan = probe_plan(executor="process")
        engine = probe_engine(plan)
        loader = probe_loader(plan)
        with pytest.raises(RuntimeError, match="boom"):
            with engine:
                engine.run_iteration(loader.iteration_batches(0))
                processes = [worker.process for worker in engine._process_executor.workers]
                names = [segment.name for segment in engine._process_executor.segments]
                raise RuntimeError("boom")
        assert all(not process.is_alive() for process in processes)
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_drop_worker_follows_drop_replica(self):
        plan = probe_plan(dp=3, executor="process")
        engine = probe_engine(plan)
        loader = probe_loader(plan)
        with engine:
            engine.run_iteration(loader.iteration_batches(0))
            executor = engine._process_executor
            dropped_process = executor.workers[1].process
            dropped_name = executor.segments[1].name
            engine.drop_replica(1)
            assert executor.num_workers == 2
            assert not dropped_process.is_alive()
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=dropped_name)
            batches = loader.iteration_batches(1)
            result = engine.run_iteration([batches[0], batches[2]])
            assert np.isfinite(result.mean_loss)

    def test_dropping_a_stopped_worker_is_bounded_and_leaves_no_process(self):
        """A SIGSTOPped worker reads no sentinel and acts on no SIGTERM: dropping
        its replica must still reap it within the teardown ladder's bound (two
        bounded joins), and close() must leave no child behind."""
        gc.collect()  # reap workers of earlier tests' abandoned engines
        assert multiprocessing.active_children() == []
        plan = probe_plan(dp=3, executor="process")
        engine = probe_engine(plan)
        loader = probe_loader(plan)
        engine.run_iteration(loader.iteration_batches(0))
        (victim,) = [
            process
            for process in multiprocessing.active_children()
            if process.name == "repro-exec-dp1"
        ]
        os.kill(victim.pid, signal.SIGSTOP)
        started = time.monotonic()
        engine.drop_replica(1)
        elapsed = time.monotonic() - started
        victim_survived = victim.is_alive()
        engine.close()
        leaked = multiprocessing.active_children()
        for process in leaked:  # a failing run must not leave a stopped process behind
            process.kill()
            process.join()
        assert elapsed < 2 * JOIN_TIMEOUT_S
        assert not victim_survived
        assert leaked == []

    def test_the_heap_is_trimmed_before_every_fork(self, monkeypatch):
        """A worker must not inherit the private buffers ``start`` just freed."""
        import repro.exec.executor as executor_module

        events = []
        fork = executor_module.Worker

        def forking(name, *args):
            events.append(name)
            return fork(name, *args)

        monkeypatch.setattr(executor_module, "trim_heap", lambda: events.append("trim"))
        monkeypatch.setattr(executor_module, "Worker", forking)
        plan = probe_plan(executor="process")
        engine = probe_engine(plan)
        with engine:
            engine.run_iteration(probe_loader(plan).iteration_batches(0))
            assert events == ["trim", "repro-exec-dp0", "trim", "repro-exec-dp1"]
            events.clear()
            engine._process_executor.respawn_worker(1, iteration=0)
            assert events == ["trim", "repro-exec-dp1-r0"]

    def test_worker_death_raises_worker_crash(self):
        plan = probe_plan(executor="process")
        engine = probe_engine(plan)
        loader = probe_loader(plan)
        with engine:
            engine.run_iteration(loader.iteration_batches(0))
            os.kill(engine._process_executor.workers[1].process.pid, signal.SIGKILL)
            with pytest.raises(WorkerCrash) as exc_info:
                engine.run_iteration(loader.iteration_batches(1))
            assert exc_info.value.replica == 1
            assert exc_info.value.iteration == 1


class TestSharedArenaSegment:
    def test_adopt_preserves_values_and_rebinds_views(self, rng):
        from repro.tensor.parameter import Parameter

        parameters = [Parameter(rng.standard_normal((4, 3))), Parameter(rng.standard_normal(5))]
        arena = ParameterArena(parameters)
        before_data = arena.data.copy()
        arena.grad[...] = rng.standard_normal(arena.num_elements)
        before_grad = arena.grad.copy()
        segment = SharedArenaSegment.adopt(arena, "data")
        grad_segment = SharedArenaSegment.adopt(arena, "grad")
        try:
            assert np.array_equal(arena.data, before_data)
            assert np.array_equal(arena.grad, before_grad)
            assert arena.data.base is not None  # views into the shared buffer
            # Writes through a parameter view land in the shared segment.
            parameters[0].data[0, 0] = 123.0
            assert segment.array[arena.span(parameters[0])[0]] == 123.0
            parameters[1].grad[2] = 321.0
            assert grad_segment.array[arena.span(parameters[1])[0] + 2] == 321.0
        finally:
            segment.release(arena)
            grad_segment.release(arena)
        assert arena.data[arena.span(parameters[0])[0]] == 123.0
        assert arena.grad[arena.span(parameters[1])[0] + 2] == 321.0

    def test_release_unlinks_and_restores_private_storage(self, rng):
        from repro.tensor.parameter import Parameter

        arena = ParameterArena([Parameter(rng.standard_normal(7))])
        segment = SharedArenaSegment.adopt(arena, "data")
        name = segment.name
        expected = arena.data.copy()
        segment.release(arena)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        assert np.array_equal(arena.data, expected)
        segment.destroy()  # idempotent

    def test_release_holds_the_arena_once(self):
        """Releasing a 64 MiB segment lifts the peak resident set by far less than 64 MiB.

        In a fresh interpreter, whose ``VmHWM`` no earlier test has raised:
        no gradient buffer is resident before adoption, so the high-water
        mark before the release is the weights plus the segment, and a
        release that copied the whole segment while it stayed mapped would
        add one more segment on top (64 MiB; sliced, about 2.4 MB).  The
        values must come back bit-identical.
        """
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.exec import SharedArenaSegment
            from repro.parallel.arena import ParameterArena
            from repro.tensor.parameter import Parameter

            def high_water_kib():
                with open("/proc/self/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            return int(line.split()[1])

            size, tile = (64 << 20) // 8, 1 << 16
            parameter = Parameter(np.zeros(size))
            parameter.grad = np.zeros(size)  # calloc'd pages stay off the resident set
            arena = ParameterArena([parameter])
            arena.rebind_storage(grad=np.zeros(size), filled=True)
            segment = SharedArenaSegment.adopt(arena, "grad")
            rng = np.random.default_rng(7)
            for start in range(0, size, tile):
                segment.array[start : start + tile] = rng.standard_normal(tile)
            before = high_water_kib()
            segment.release(arena)
            rise = high_water_kib() - before
            rng = np.random.default_rng(7)
            same = all(
                np.array_equal(arena.grad[start : start + tile], rng.standard_normal(tile))
                for start in range(0, size, tile)
            )
            print(rise, same)
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        rise_kib, same = done.stdout.split()
        assert same == "True"
        assert int(rise_kib) < (64 << 10) // 4

    def test_executor_requires_start(self):
        engine = probe_engine(probe_plan(executor="process"))
        executor = ProcessExecutor(engine)
        with pytest.raises(RuntimeError, match="not started"):
            executor.run_collect([[], []], 0)

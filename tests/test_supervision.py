"""Chaos suite for the self-healing process execution layer (``repro.exec.supervisor``).

The contract under test:

* **bit-exact healing** — a supervised run that loses workers to injected
  crashes, injected hangs, or *external* SIGKILL/SIGSTOP produces final
  weights, losses, and traffic records identical to an undisturbed serial
  run, for every plan preset and (fuzzed) for fault schedules x layouts x
  schedules x DP codecs;
* **watchdog** — a wedged worker is surfaced as :class:`WorkerTimeout` even
  without supervision (no unbounded ``Connection.recv`` wait anywhere);
* **loud escalation** — a spent respawn budget degrades the DP group (elastic
  shrink, run completes) or checkpoint-aborts (final checkpoint written,
  :class:`ResilienceExhausted` raised); never a silent wrong answer;
* **ledger** — every respawn/degrade lands in the :class:`ResilienceReport`
  with per-worker attribution and survives checkpoint round-trips;
* **hygiene** — no orphaned worker processes and no leaked ``/dev/shm``
  segments, including after chaos;
* **stateless workers** — a worker holds nothing between iterations outside
  the shared segments: each iteration is one message per worker each way, and
  a worker dead between iterations takes nothing a checkpoint needs.
"""

from __future__ import annotations

import json
import multiprocessing.shared_memory as shared_memory
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.data import LanguageModelingDataLoader, SyntheticCorpus, SyntheticCorpusConfig
from repro.exec.workers import Worker
from repro.models.gpt_configs import functional_config
from repro.plan import PLAN_PRESETS, Boundary, ParallelPlan, ResilienceSpec
from repro.resilience import (
    FaultInjector,
    RecoveryPoint,
    ResilienceExhausted,
    ResilienceReport,
    SupervisionPolicy,
    WorkerCrash,
    WorkerTimeout,
)
from repro.training.checkpoint import latest_checkpoint, load_checkpoint, save_checkpoint
from repro.training.trainer import Pretrainer
from repro.utils.state import capture_tree


def probe_plan(
    preset: str = "cb_fe_sc",
    dp: int = 2,
    pp: int = 2,
    executor: str = "process",
    schedule: str | None = None,
    codec: str | None = None,
) -> ParallelPlan:
    plan = (
        ParallelPlan.preset(preset)
        .with_topology(pp=pp, dp=dp, micro_batches=2)
        .proxy_scaled()
    )
    if schedule is not None:
        plan = plan.with_schedule(kind=schedule)
    if codec is not None:
        # Tiny probe parameters: force the codec to engage on every gradient.
        plan = plan.with_boundary(
            Boundary.DP,
            codec=codec,
            error_feedback=True,
            min_elements=1,
            stage_fraction=1.0,
            **({"rank": 2} if codec == "powersgd" else {}),
        )
    return plan.with_executor(executor)


def probe_trainer(plan: ParallelPlan, seed: int = 0) -> Pretrainer:
    model = functional_config(
        vocab_size=64,
        sequence_length=16,
        num_layers=plan.topology.pp,
        hidden_size=16,
        num_heads=2,
    )
    corpus = SyntheticCorpus(SyntheticCorpusConfig(vocab_size=64, seed=321))
    loader = LanguageModelingDataLoader(
        corpus,
        sequence_length=12,
        micro_batch_size=2,
        num_micro_batches=plan.topology.micro_batches,
        data_parallel_degree=plan.topology.dp,
    )
    return Pretrainer(model, loader, plan=plan, seed=seed)


def run_trainer(trainer: Pretrainer, iterations: int):
    """Train ``iterations`` steps; returns (losses, weights, records)."""
    losses = []
    with trainer:
        for _ in range(iterations):
            losses.append(trainer.train_iteration())
        weights = [arena.data.copy() for arena in trainer.engine.arenas]
        records = [
            (record.operation, record.category, record.wire_bytes, record.compressed)
            for record in trainer.engine.log.records
        ]
    return losses, weights, records


def serial_oracle(iterations: int, **plan_kwargs):
    """An undisturbed, unsupervised serial run of the same probe."""
    plan_kwargs["executor"] = "serial"
    return run_trainer(probe_trainer(probe_plan(**plan_kwargs)), iterations)


def assert_same_weights(actual, expected) -> None:
    assert len(actual) == len(expected)
    for left, right in zip(actual, expected):
        assert np.array_equal(left, right)  # bit-exact, no tolerance


def assert_no_orphans(processes, segment_names) -> None:
    assert all(not process.is_alive() for process in processes)
    for name in segment_names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------------------
# Respawn recovery: healed runs are bit-identical to undisturbed serial runs
# ----------------------------------------------------------------------------------


class TestRespawnRecovery:
    @pytest.mark.parametrize("preset", sorted(PLAN_PRESETS))
    def test_crash_recovery_bit_identical_every_preset(self, preset):
        """ISSUE acceptance: recovery is bit-for-bit for every plan preset."""
        spec = ResilienceSpec(faults=("crash@1:replica=1",))
        trainer = probe_trainer(probe_plan(preset).with_resilience(spec))
        losses, weights, records = run_trainer(trainer, 3)
        report = trainer.resilience_report
        assert report.respawns == 1
        assert report.faults_injected.get("crash") == 1
        assert report.worker_events[-1]["action"] == "respawn"
        assert report.worker_events[-1]["replica"] == 1
        oracle = serial_oracle(3, preset=preset)
        assert losses == oracle[0]
        assert_same_weights(weights, oracle[1])
        assert records == oracle[2]

    def test_hang_recovery_bit_identical(self):
        """An injected wedge trips the watchdog, gets respawned, and heals."""
        spec = ResilienceSpec(faults=("hang@1",), worker_timeout=1.0)
        trainer = probe_trainer(probe_plan().with_resilience(spec))
        losses, weights, _ = run_trainer(trainer, 3)
        report = trainer.resilience_report
        assert report.respawns == 1
        assert report.faults_injected.get("hang") == 1
        assert report.worker_events[-1]["kind"] == "hang"
        oracle = serial_oracle(3)
        assert losses == oracle[0]
        assert_same_weights(weights, oracle[1])

    def test_two_workers_fail_same_iteration(self):
        """One crash plus one hang in the same step: both respawn, still exact."""
        spec = ResilienceSpec(
            faults=("crash@1:replica=0", "hang@1:replica=1"), worker_timeout=1.0
        )
        trainer = probe_trainer(probe_plan().with_resilience(spec))
        losses, weights, _ = run_trainer(trainer, 3)
        report = trainer.resilience_report
        assert report.respawns == 2
        assert report.faults_injected.get("crash") == 1
        assert report.faults_injected.get("hang") == 1
        oracle = serial_oracle(3)
        assert losses == oracle[0]
        assert_same_weights(weights, oracle[1])

    def test_external_sigkill_between_iterations_recovers(self):
        """A worker killed while *idle* takes nothing with it — its hook state
        lives in the parent between iterations — so the next iteration finds
        the broken pipe, respawns it and replays: still bit-exact."""
        trainer = probe_trainer(probe_plan().with_resilience(ResilienceSpec()))
        with trainer:
            losses = [trainer.train_iteration()]
            executor = trainer.engine._process_executor
            os.kill(executor.workers[0].process.pid, signal.SIGKILL)
            losses.append(trainer.train_iteration())
            losses.append(trainer.train_iteration())
            weights = [arena.data.copy() for arena in trainer.engine.arenas]
        report = trainer.resilience_report
        assert report.respawns == 1
        # An external kill matches no injected spec: respawned, not tallied.
        assert report.faults_injected.get("crash") is None
        oracle = serial_oracle(3)
        assert losses == oracle[0]
        assert_same_weights(weights, oracle[1])

    def test_external_sigstop_wedge_recovers(self):
        """A genuinely stopped worker (not injected): watchdog + respawn heal it."""
        spec = ResilienceSpec(worker_timeout=1.0)
        trainer = probe_trainer(probe_plan().with_resilience(spec))
        with trainer:
            losses = [trainer.train_iteration()]
            executor = trainer.engine._process_executor
            os.kill(executor.workers[1].process.pid, signal.SIGSTOP)
            losses.append(trainer.train_iteration())
            losses.append(trainer.train_iteration())
            weights = [arena.data.copy() for arena in trainer.engine.arenas]
        report = trainer.resilience_report
        assert report.respawns == 1
        assert report.worker_events[-1]["kind"] == "hang"
        oracle = serial_oracle(3)
        assert losses == oracle[0]
        assert_same_weights(weights, oracle[1])


# ----------------------------------------------------------------------------------
# One recovery point: guard rollback and supervisor rewind share a single capture
# ----------------------------------------------------------------------------------


class TestOneRecoveryPoint:
    def test_one_capture_per_guarded_supervised_iteration(self, monkeypatch):
        """executor="process" + guard used to copy the state twice per iteration
        (trainer snapshot, then supervisor snapshot) into fresh arrays; now the
        engine captures once, into buffers whose identity never changes."""
        captures = []
        original = RecoveryPoint.capture

        def counting(self):
            captures.append(self)
            return original(self)

        monkeypatch.setattr(RecoveryPoint, "capture", counting)
        trainer = probe_trainer(probe_plan().with_resilience(ResilienceSpec()))
        with trainer:
            trainer.train_iteration()
            trainer.train_iteration()  # EF residuals exist from here on
            point = trainer.engine.recovery_point
            assert trainer.engine._supervisor is not None

            def buffer_ids():
                arenas = [id(buffer) for s in point.arenas for buffer in s.values()]
                moments = [id(point.optimizer_state[name]) for name in ("exp_avg", "exp_avg_sq")]
                return arenas + moments

            before = buffer_ids()
            captures.clear()
            for _ in range(5):
                trainer.train_iteration()
            after = buffer_ids()
        assert captures == [point] * 5
        assert after == before

    def test_supervised_engine_without_a_trainer_captures_for_itself(self):
        """No guarded trainer installed a recovery point: the engine makes the
        arena + CB-state one its supervisor rewinds to, and a crash still heals."""
        from repro.parallel.engine import ThreeDParallelEngine

        spec = ResilienceSpec(faults=("crash@1:replica=0",))
        model = functional_config(
            vocab_size=64, sequence_length=16, num_layers=2, hidden_size=16, num_heads=2
        )
        rng = np.random.default_rng(3)
        batches = [
            [(rng.integers(0, 64, size=(2, 12)), rng.integers(0, 64, size=(2, 12)))
             for _ in range(2)]
            for _ in range(2)
        ]

        def run(plan):
            engine = ThreeDParallelEngine(model, plan=plan, seed=0)
            optimizer = engine.build_optimizer(lr=1e-3)
            with engine:
                for _ in range(3):
                    optimizer.zero_grad()
                    engine.run_iteration(batches)
                    optimizer.step()
                return engine, [arena.data.copy() for arena in engine.arenas]

        healed, weights = run(probe_plan().with_resilience(spec))
        assert healed.resilience.respawns == 1
        assert healed.recovery_point is not None and healed.recovery_point.optimizer_state is None
        _, expected = run(probe_plan(executor="serial"))
        assert_same_weights(weights, expected)


# ----------------------------------------------------------------------------------
# Stateless workers: one message each way per iteration, nothing lost with a worker
# ----------------------------------------------------------------------------------


class TestStatelessWorkers:
    @pytest.mark.parametrize("supervised", [True, False], ids=["supervised", "guarded"])
    def test_one_message_per_worker_per_iteration(self, monkeypatch, supervised):
        """A steady-state iteration sends each worker its ``run`` and nothing
        else: no post-step state fetch, no fetch for the recovery capture."""
        sent = []
        send = Worker.send

        def counting(self, message):
            sent.append(None if message is None else message[0])  # None: the shutdown sentinel
            return send(self, message)

        monkeypatch.setattr(Worker, "send", counting)
        plan = probe_plan()
        if supervised:
            trainer = probe_trainer(plan.with_resilience(ResilienceSpec()))
        else:
            # Guarded without a supervisor: the engine captures a recovery point.
            trainer = probe_trainer(plan)
            trainer.engine.recovery_point = RecoveryPoint(trainer.engine, trainer.optimizer)
        with trainer:
            trainer.train_iteration()
            trainer.train_iteration()
            sent.clear()
            trainer.train_iteration()
            steady = list(sent)
        assert steady == ["run"] * plan.topology.dp

    @pytest.mark.parametrize("supervised", [False, True], ids=["unsupervised", "supervised"])
    def test_checkpoint_with_a_worker_dead_between_iterations(self, tmp_path, supervised):
        """SIGKILL an idle worker, then save: the checkpoint reads only the
        parent, and its members equal an undisturbed serial run's."""
        plan = probe_plan()
        if supervised:
            plan = plan.with_resilience(ResilienceSpec())
        trainer = probe_trainer(plan)
        with trainer:
            trainer.train_iteration()
            trainer.train_iteration()
            victim = trainer.engine._process_executor.workers[1].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            written = save_checkpoint(trainer, tmp_path / "process.npz")
        serial = probe_trainer(probe_plan(executor="serial"))
        with serial:
            serial.train_iteration()
            serial.train_iteration()
            expected = save_checkpoint(serial, tmp_path / "serial.npz")
        with np.load(written) as actual, np.load(expected) as oracle:
            assert sorted(actual.files) == sorted(oracle.files)
            for name in oracle.files:
                assert np.array_equal(actual[name], oracle[name]), name


# ----------------------------------------------------------------------------------
# The backward hook's state resumes and rolls back under every PP spec
# ----------------------------------------------------------------------------------

#: Presets whose PP spec differs from ``cb_fe_sc``'s PowerSGD with lazy error
#: propagation: no LEP, every transfer compressed, and the top-k codec.
PP_SPEC_PRESETS = ["cb_non_lep", "naive_cb", "optimus_topk"]


def backward_hook_states(trainer: Pretrainer) -> list:
    """A detached copy of every replica's backward-hook state."""
    return capture_tree([hook.state_dict() for hook in trainer.engine.cb_hooks])


def assert_same_tree(actual, expected) -> None:
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys()
        for key in expected:
            assert_same_tree(actual[key], expected[key])
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected)
        for left, right in zip(actual, expected):
            assert_same_tree(left, right)
    elif isinstance(expected, np.ndarray):
        assert np.array_equal(actual, expected)
    else:
        assert actual == expected


class TestBackwardHookState:
    @pytest.mark.parametrize("preset", PP_SPEC_PRESETS)
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_resume_is_bit_exact(self, executor, preset, tmp_path):
        """train 6 == train 3 + save + load into a fresh trainer + train 3."""
        plan = probe_plan(preset, executor=executor)
        continuous = run_trainer(probe_trainer(plan), 6)
        writer = probe_trainer(plan)
        with writer:
            for _ in range(3):
                writer.train_iteration()
            path = save_checkpoint(writer, tmp_path / "ckpt.npz")
        resumed = probe_trainer(plan)
        assert load_checkpoint(resumed, path) == 3
        losses, weights, _ = run_trainer(resumed, 3)
        assert losses == continuous[0][3:]
        assert_same_weights(weights, continuous[1])

    @pytest.mark.parametrize("preset", PP_SPEC_PRESETS)
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_guard_rollback_restores_the_backward_hooks(self, executor, preset):
        """A poisoned, rolled-back iteration leaves every backward hook where the
        previous iteration did (as it leaves the weights)."""
        spec = ResilienceSpec(faults=("nan@2:replica=1,stage=0",))
        trainer = probe_trainer(probe_plan(preset, executor=executor).with_resilience(spec))
        with trainer:
            trainer.train_iteration()
            trainer.train_iteration()
            before = backward_hook_states(trainer)
            trainer.train_iteration()
            assert trainer.resilience_report.rollbacks == 1
            assert_same_tree(backward_hook_states(trainer), before)


# ----------------------------------------------------------------------------------
# Hang watchdog without supervision (the unbounded-recv fix)
# ----------------------------------------------------------------------------------


class TestHangWatchdog:
    def test_unsupervised_wedge_raises_worker_timeout(self):
        """Even with no resilience spec armed, a silent worker surfaces as a
        loud WorkerTimeout after the deadline — never an unbounded wait."""
        trainer = probe_trainer(probe_plan())  # process executor, unsupervised
        with trainer:
            trainer.train_iteration()
            executor = trainer.engine._process_executor
            executor.worker_timeout = 0.5
            victim = executor.workers[1].process
            os.kill(victim.pid, signal.SIGSTOP)
            with pytest.raises(WorkerTimeout) as exc_info:
                trainer.train_iteration()
            assert exc_info.value.replica == 1
            # A stopped worker is unrecoverable without the supervisor: retire
            # it so teardown does not wait out the shutdown handshake.
            executor.kill_worker(1)

    def test_worker_timeout_is_a_worker_crash(self):
        assert issubclass(WorkerTimeout, WorkerCrash)

    def test_serial_crash_still_fires_parent_side(self):
        """Under the serial executor a scheduled crash stays the simulated
        parent-side death (restartable via --resume), exactly as before."""
        spec = ResilienceSpec(faults=("crash@1",))
        trainer = probe_trainer(probe_plan(executor="serial").with_resilience(spec))
        with trainer:
            trainer.train_iteration()
            with pytest.raises(WorkerCrash):
                trainer.train_iteration()


# ----------------------------------------------------------------------------------
# Escalation: degrade / checkpoint_abort when the budget is spent
# ----------------------------------------------------------------------------------


class TestEscalation:
    def test_budget_exhausted_degrades_and_completes(self):
        """Third crash on the same worker with a 2-respawn budget: the ladder
        drops the replica (elastic DP shrink) and the run completes."""
        spec = ResilienceSpec(
            faults=("crash@1:replica=1", "crash@2:replica=1", "crash@3:replica=1"),
            max_respawns_per_worker=2,
        )
        trainer = probe_trainer(probe_plan().with_resilience(spec))
        losses, weights, _ = run_trainer(trainer, 5)
        report = trainer.resilience_report
        assert len(losses) == 5
        assert len(weights) == 1  # dp 2 -> 1
        assert report.respawns == 2
        assert report.faults_injected.get("crash") == 3
        assert report.worker_events[-1]["action"] == "degrade"
        assert report.degraded[-1]["data_parallel_degree"] == 1
        # A budget-spent degrade is not an *injected* replica loss.
        assert report.faults_injected.get("replica_loss") is None
        assert all(np.isfinite(w).all() for w in weights)

    def test_total_budget_caps_across_workers(self):
        """max_total_respawns bounds the whole job, not just one worker."""
        spec = ResilienceSpec(
            faults=("crash@1:replica=0", "crash@2:replica=1"),
            max_respawns_per_worker=5,
            max_total_respawns=1,
        )
        trainer = probe_trainer(probe_plan().with_resilience(spec))
        losses, weights, _ = run_trainer(trainer, 4)
        report = trainer.resilience_report
        assert len(losses) == 4
        assert report.respawns == 1
        assert report.worker_events[-1]["action"] == "degrade"
        assert len(weights) == 1

    def test_injected_replica_loss_degrades_like_serial(self):
        """A scheduled permanent loss under the process executor (the worker
        really dies) matches the serial degrade path bit-for-bit."""
        spec = ResilienceSpec(faults=("replica_loss@2:replica=1",))
        process_trainer = probe_trainer(probe_plan().with_resilience(spec))
        process_run = run_trainer(process_trainer, 4)
        serial_trainer = probe_trainer(probe_plan(executor="serial").with_resilience(spec))
        serial_run = run_trainer(serial_trainer, 4)
        assert process_run[0] == serial_run[0]
        assert_same_weights(process_run[1], serial_run[1])
        assert process_trainer.resilience_report.faults_injected.get("replica_loss") == 1
        assert serial_trainer.resilience_report.faults_injected.get("replica_loss") == 1
        # No respawn was attempted: the loss is permanent by schedule.
        assert process_trainer.resilience_report.respawns == 0

    def test_losing_the_last_replica_raises(self):
        """Degrading past dp=1 is a loud terminal failure, not a hang."""
        spec = ResilienceSpec(faults=("crash@1",), max_respawns_per_worker=0)
        trainer = probe_trainer(probe_plan(dp=1).with_resilience(spec))
        with trainer:
            trainer.train_iteration()
            with pytest.raises(ResilienceExhausted, match="last data-parallel replica"):
                trainer.train_iteration()

    def test_checkpoint_abort_writes_final_checkpoint_and_resume_matches(self, tmp_path):
        """on_exhausted=checkpoint_abort: the pre-iteration state is written as
        a final checkpoint, the raise is loud, and --resume-style continuation
        from that checkpoint reproduces the undisturbed run bit-for-bit."""
        spec = ResilienceSpec(
            faults=("crash@2",),
            max_respawns_per_worker=0,
            on_exhausted="checkpoint_abort",
        )
        trainer = probe_trainer(probe_plan().with_resilience(spec))
        with trainer:
            with pytest.raises(ResilienceExhausted, match="checkpoint_abort"):
                trainer.train(5, checkpoint_every=1, checkpoint_dir=tmp_path)
        path = latest_checkpoint(tmp_path)
        assert path is not None and path.name == "ckpt-00000002.npz"

        resumed = probe_trainer(probe_plan(executor="serial"))
        assert load_checkpoint(resumed, path) == 2
        with resumed:
            while resumed._iteration < 5:
                resumed.train_iteration()
            weights = [arena.data.copy() for arena in resumed.engine.arenas]
        oracle = serial_oracle(5)
        assert_same_weights(weights, oracle[1])

    def test_checkpoint_abort_without_directory_still_raises(self):
        spec = ResilienceSpec(
            faults=("crash@1",),
            max_respawns_per_worker=0,
            on_exhausted="checkpoint_abort",
        )
        trainer = probe_trainer(probe_plan().with_resilience(spec))
        with trainer:
            trainer.train_iteration()
            with pytest.raises(ResilienceExhausted, match="no checkpoint directory"):
                trainer.train_iteration()


# ----------------------------------------------------------------------------------
# Ledger: per-worker attribution, checkpoint round-trip
# ----------------------------------------------------------------------------------


class TestLedger:
    def test_worker_events_survive_checkpoint_round_trip(self, tmp_path):
        spec = ResilienceSpec(faults=("crash@1:replica=1",))
        trainer = probe_trainer(probe_plan().with_resilience(spec))
        with trainer:
            for _ in range(3):
                trainer.train_iteration()
            path = save_checkpoint(trainer, tmp_path / "ckpt.npz")
            events = [dict(entry) for entry in trainer.resilience_report.worker_events]
            respawns = trainer.resilience_report.respawns
        assert respawns == 1 and events

        fresh = probe_trainer(probe_plan().with_resilience(spec))
        with fresh:
            assert load_checkpoint(fresh, path) == 3
            assert fresh.resilience_report.respawns == respawns
            assert fresh.resilience_report.worker_events == events

    def test_report_round_trip_and_describe(self):
        report = ResilienceReport()
        report.respawns = 2
        report.record_worker_event(
            kind="hang", replica=1, iteration=4, respawn_count=2, action="respawn"
        )
        restored = ResilienceReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert restored.respawns == 2
        assert restored.worker_events == report.worker_events
        assert "worker respawns: 2 (1 hangs)" in restored.describe()
        delta = restored.delta_since(ResilienceReport())
        assert delta.respawns == 2 and len(delta.worker_events) == 1


# ----------------------------------------------------------------------------------
# Plan / policy plumbing
# ----------------------------------------------------------------------------------


class TestSupervisionPlumbing:
    def test_hang_fault_requires_process_executor(self):
        spec = ResilienceSpec(faults=("hang@1",))
        with pytest.raises(ValueError, match="hang"):
            probe_plan(executor="serial").with_resilience(spec)
        plan = probe_plan(executor="process").with_resilience(spec)
        with pytest.raises(ValueError, match="hang"):
            plan.with_executor("serial")
        assert plan.resilience.requires_process_executor()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ResilienceSpec(worker_timeout=0.0)
        with pytest.raises(ValueError):
            ResilienceSpec(max_respawns_per_worker=-1)
        with pytest.raises(ValueError):
            ResilienceSpec(max_total_respawns=-1)
        with pytest.raises(ValueError):
            ResilienceSpec(on_exhausted="explode")
        with pytest.raises(ValueError):
            SupervisionPolicy(worker_timeout=-1.0)
        with pytest.raises(ValueError):
            SupervisionPolicy(on_exhausted="explode")

    def test_spec_maps_to_policy(self):
        spec = ResilienceSpec(
            worker_timeout=5.0,
            max_respawns_per_worker=1,
            max_total_respawns=3,
            on_exhausted="checkpoint_abort",
        )
        policy = spec.supervision_policy()
        assert policy == SupervisionPolicy(
            worker_timeout=5.0,
            max_respawns_per_worker=1,
            max_total_respawns=3,
            on_exhausted="checkpoint_abort",
        )
        # Unset timeout inherits the policy default (60s), not None.
        assert ResilienceSpec().supervision_policy().worker_timeout == 60.0

    def test_supervision_fields_round_trip_through_json(self):
        plan = probe_plan().with_resilience(
            ResilienceSpec(
                faults=("hang@2",),
                worker_timeout=5.0,
                max_respawns_per_worker=1,
                max_total_respawns=3,
                on_exhausted="checkpoint_abort",
            )
        )
        restored = ParallelPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.resilience.worker_timeout == 5.0
        assert restored.resilience.on_exhausted == "checkpoint_abort"

    def test_describe_mentions_the_budget(self):
        text = ResilienceSpec(
            max_respawns_per_worker=1, max_total_respawns=3
        ).describe()
        assert "respawns<=1/worker" in text and "<=3 total" in text and "degrade" in text

    def test_worker_faults_filtering(self):
        injector = FaultInjector(
            ["crash@1:replica=1", "hang@3:replica=1", "crash@2:replica=0", "nan@1:replica=1"]
        )
        faults = injector.worker_faults(1)
        assert [spec.kind for spec in faults] == ["crash", "hang"]
        # A respawned worker must not re-fire the fault that killed it.
        faults = injector.worker_faults(1, after_iteration=1)
        assert [(spec.kind, spec.iteration) for spec in faults] == [("hang", 3)]

    def test_cli_flags_fold_into_the_spec(self):
        arguments = cli.build_parser().parse_args(
            [
                "train", "--preset", "cb_fe_sc", "--executor", "process",
                "--inject-fault", "hang@2", "--worker-timeout", "1.5",
                "--max-respawns", "1", "--on-exhausted", "checkpoint_abort",
            ]
        )
        plan = cli.build_train_plan(arguments)
        assert plan.executor == "process"
        assert plan.resilience.worker_timeout == 1.5
        assert plan.resilience.max_respawns_per_worker == 1
        assert plan.resilience.on_exhausted == "checkpoint_abort"

    def test_cli_rejects_hang_under_serial_executor(self):
        arguments = cli.build_parser().parse_args(
            ["train", "--preset", "cb_fe_sc", "--inject-fault", "hang@2"]
        )
        with pytest.raises(SystemExit, match="hang"):
            cli.build_train_plan(arguments)


# ----------------------------------------------------------------------------------
# Chaos: fuzzed fault schedules, and the CI fast-tier smoke
# ----------------------------------------------------------------------------------


@st.composite
def fault_schedules(draw):
    """1-2 worker faults over iterations 0-2 and replicas 0-1 (dp=2 probe)."""
    count = draw(st.integers(min_value=1, max_value=2))
    faults = set()
    for _ in range(count):
        kind = draw(st.sampled_from(["crash", "crash", "hang"]))
        iteration = draw(st.integers(min_value=0, max_value=2))
        replica = draw(st.integers(min_value=0, max_value=1))
        faults.add(f"{kind}@{iteration}:replica={replica}")
    return tuple(sorted(faults))


class TestChaos:
    @settings(max_examples=5, deadline=None)
    @given(
        faults=fault_schedules(),
        schedule=st.sampled_from(["1f1b", "zb1", "auto"]),
        codec=st.sampled_from(["none", "qsgd", "powersgd"]),
    )
    def test_fuzzed_fault_schedules_heal_bit_exact(self, faults, schedule, codec):
        """Any crash/hang schedule within budget heals to the exact serial
        answer, and tears down without orphans or leaked segments."""
        spec = ResilienceSpec(faults=faults, worker_timeout=1.5)
        trainer = probe_trainer(
            probe_plan(schedule=schedule, codec=codec).with_resilience(spec)
        )
        with trainer:
            losses = [trainer.train_iteration() for _ in range(4)]
            executor = trainer.engine._process_executor
            processes = [worker.process for worker in executor.workers]
            segment_names = [segment.name for segment in executor.segments]
            weights = [arena.data.copy() for arena in trainer.engine.arenas]
        report = trainer.resilience_report
        assert report.respawns >= 1
        assert not report.degraded  # default budgets cover any 2-fault schedule
        oracle = serial_oracle(4, schedule=schedule, codec=codec)
        assert losses == oracle[0]
        assert_same_weights(weights, oracle[1])
        assert_no_orphans(processes, segment_names)

    def test_chaos_smoke_external_kill(self):
        """CI fast-tier smoke (engine level): SIGKILL a worker mid-run, the
        supervisor heals bit-exactly, shutdown leaves nothing behind."""
        trainer = probe_trainer(probe_plan().with_resilience(ResilienceSpec()))
        with trainer:
            losses = [trainer.train_iteration()]
            executor = trainer.engine._process_executor
            original = [worker.process for worker in executor.workers]
            os.kill(original[1].pid, signal.SIGKILL)
            losses.append(trainer.train_iteration())
            processes = original + [worker.process for worker in executor.workers]
            segment_names = [segment.name for segment in executor.segments]
            weights = [arena.data.copy() for arena in trainer.engine.arenas]
        assert trainer.resilience_report.respawns == 1
        oracle = serial_oracle(2)
        assert losses == oracle[0]
        assert_same_weights(weights, oracle[1])
        assert_no_orphans(processes, segment_names)

    def test_chaos_smoke_cli(self, capsys):
        """CI fast-tier smoke (CLI level): --inject-fault crash@2 under the
        process executor heals in-run and exits 0 with the respawn ledgered."""
        assert (
            cli.main(
                [
                    "train", "--preset", "cb_fe_sc", "--executor", "process",
                    "--inject-fault", "crash@2", "--iterations", "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "worker respawns: 1" in out

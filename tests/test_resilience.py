"""Tests for the resilience subsystem: deterministic fault injection, the
guarded training loop (detect / rollback / skip / retry / degrade), bit-exact
format-v7 checkpointing, and the plan/CLI/simulator seams they thread through.

The load-bearing invariants:

* a fault-free guarded run is bit-identical to the unguarded run;
* a poisoned iteration is skipped with post-rollback weights bit-identical to
  the previous iteration's;
* crash + ``--resume`` reproduces the continuous run's final weights
  bit-for-bit for every DP codec, with and without error feedback — and under
  another executor or schedule than the one that wrote the checkpoint;
* a checkpoint loads only into a trainer whose plan compresses exactly as the
  writer's did; any other reader is refused before a byte of it changes;
* under *any* fault schedule the guarded loop either finishes with finite
  weights or raises loudly (``ResilienceExhausted`` / ``WorkerCrash``) — it
  never silently corrupts the model (hypothesis-fuzzed).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import LanguageModelingDataLoader, SyntheticCorpus, SyntheticCorpusConfig
from repro.models.gpt_configs import functional_config
from repro.parallel.arena import distinct_buffers
from repro.plan import Boundary, ParallelPlan, ResilienceSpec
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    GuardrailPolicy,
    ResilienceExhausted,
    ResilienceReport,
    WorkerCrash,
    parse_fault_spec,
)
from repro.training.checkpoint import (
    checkpoint_name,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
    save_rotating_checkpoint,
)
from repro.training import trainer as trainer_module
from repro.training.trainer import Pretrainer
from repro.utils.state import tree_arrays

DP_CODECS = ("none", "powersgd", "qsgd", "topk")


def _loader(dp: int = 2, micro_batches: int = 2) -> LanguageModelingDataLoader:
    corpus = SyntheticCorpus(SyntheticCorpusConfig(vocab_size=64, seed=321))
    return LanguageModelingDataLoader(
        corpus,
        sequence_length=12,
        micro_batch_size=2,
        num_micro_batches=micro_batches,
        data_parallel_degree=dp,
    )


def _plan(codec: str = "powersgd", error_feedback: bool = True,
          dp: int = 2, pp: int = 2) -> ParallelPlan:
    plan = (
        ParallelPlan.preset("cb_fe_sc")
        .with_topology(pp=pp, dp=dp, micro_batches=2)
        .proxy_scaled()
    )
    # min_elements=0 + full stage fraction so the codec touches every gradient
    # on the tiny probe — otherwise the codec tests would be vacuous.
    return plan.with_boundary(
        Boundary.DP,
        codec=codec,
        error_feedback=error_feedback,
        min_elements=0,
        stage_fraction=1.0,
    )


def _trainer(plan: ParallelPlan) -> Pretrainer:
    model = functional_config(
        vocab_size=64, sequence_length=16, num_layers=plan.topology.pp,
        hidden_size=16, num_heads=2,
    )
    return Pretrainer(
        model, _loader(plan.topology.dp, plan.topology.micro_batches), plan=plan, seed=0
    )


def _weights(trainer: Pretrainer) -> list[np.ndarray]:
    return [arena.data.copy() for arena in trainer.engine.arenas]


def _assert_same_weights(a: list[np.ndarray], b: list[np.ndarray]) -> None:
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert np.array_equal(left, right)  # bit-exact, no tolerance


# ----------------------------------------------------------------------------------
# Fault-spec grammar
# ----------------------------------------------------------------------------------


class TestFaultSpecParsing:
    def test_parse_full_spec(self):
        spec = parse_fault_spec("nan@3:replica=1,stage=0")
        assert spec == FaultSpec(kind="nan", iteration=3, replica=1, stage=0)

    def test_parse_collective_count(self):
        spec = parse_fault_spec("collective@2:count=2")
        assert spec.kind == "collective"
        assert spec.iteration == 2
        assert spec.count == 2

    def test_parse_bare_crash(self):
        assert parse_fault_spec("crash@5") == FaultSpec(kind="crash", iteration=5)

    @pytest.mark.parametrize("text", [
        "nan",                      # missing @iteration
        "meteor@3",                 # unknown kind
        "nan@-1",                   # negative iteration
        "nan@2:wormhole=1",         # unknown knob
        "nan@2:replica=x",          # non-integer value
        "collective@1:count=0",     # count must be positive
        "nan@1:elements=0",         # elements must be positive
    ])
    def test_invalid_specs_rejected(self, text):
        with pytest.raises(ValueError):
            parse_fault_spec(text)

    def test_describe_mentions_kind_and_iteration(self):
        text = parse_fault_spec("inf@4:replica=1").describe()
        assert "inf" in text and "4" in text


class TestGuardrailPolicy:
    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            GuardrailPolicy(max_collective_retries=-1)
        with pytest.raises(ValueError):
            GuardrailPolicy(max_consecutive_skips=-1)
        with pytest.raises(ValueError):
            GuardrailPolicy(max_grad_norm=0.0)

    def test_report_delta_and_copy(self):
        report = ResilienceReport()
        before = report.copy()
        report.record_fault("nan")
        report.skipped_steps += 1
        delta = report.delta_since(before)
        assert delta.faults_injected == {"nan": 1}
        assert delta.skipped_steps == 1
        assert before.faults_injected == {}

    def test_report_dict_round_trip(self):
        report = ResilienceReport()
        report.record_fault("collective")
        report.collective_retries = 2
        report.backoff_seconds = 1.5
        restored = ResilienceReport.from_dict(report.to_dict())
        assert restored.to_dict() == report.to_dict()


class TestFaultInjectorDeterminism:
    def test_same_seed_same_corruption_positions(self):
        spec = ("nan@0:replica=0,stage=0,elements=3",)
        poisoned = []
        for _ in range(2):
            trainer = _trainer(_plan().with_resilience(ResilienceSpec(faults=spec)))
            injector = FaultInjector(spec, seed=7)
            trainer.engine.fault_injector = injector
            trainer.train_iteration()
            poisoned.append(_weights(trainer))
        _assert_same_weights(poisoned[0], poisoned[1])


# ----------------------------------------------------------------------------------
# Guarded loop: parity, rollback, retry, budgets
# ----------------------------------------------------------------------------------


class TestGuardedParity:
    def test_fault_free_guarded_matches_unguarded(self):
        guarded = _trainer(_plan().with_resilience(ResilienceSpec()))
        unguarded = _trainer(_plan())
        guarded_result = guarded.train(4)
        unguarded_result = unguarded.train(4)
        _assert_same_weights(_weights(guarded), _weights(unguarded))
        assert guarded_result.resilience is not None
        assert not guarded_result.resilience.any_events
        assert unguarded_result.resilience is None

    @pytest.mark.parametrize("kind", ["nan", "inf"])
    @pytest.mark.parametrize("codec", DP_CODECS)
    def test_poisoned_step_rolls_back_to_previous_weights(self, codec, kind):
        """The poison reaches the guard through every DP codec instead of raising in it."""
        spec = ResilienceSpec(faults=(f"{kind}@2:replica=1,stage=0",))
        trainer = _trainer(_plan(codec=codec).with_resilience(spec))
        trainer.train_iteration()
        trainer.train_iteration()
        before_fault = _weights(trainer)

        loss = trainer.train_iteration()  # iteration 2: poisoned, skipped
        report = trainer.resilience_report
        assert report.faults_injected == {kind: 1}
        assert report.skipped_steps == 1
        assert report.rollbacks == 1
        assert np.isfinite(loss)
        # The skipped iteration leaves the model exactly where iteration 1 did.
        _assert_same_weights(_weights(trainer), before_fault)
        # Skipped steps do not pollute the training history ...
        assert len(trainer.history.train_losses) == 2
        # ... but the iteration counter still advances, so the fault never re-fires.
        assert trainer._iteration == 3
        trainer.train_iteration()
        assert report.skipped_steps == 1
        assert len(trainer.history.train_losses) == 3

    @pytest.mark.parametrize("tile", [64, 1 << 14])
    def test_the_tiled_finiteness_check_decides_as_the_whole_buffer_one(self, monkeypatch, tile):
        """One non-finite element anywhere in any replica's arena, a tile edge included."""
        monkeypatch.setattr(trainer_module, "REDUCE_TILE", tile)
        trainer = _trainer(_plan())
        policy = GuardrailPolicy()
        arenas = trainer.engine.arenas
        size = arenas[0].grad.size
        rng = np.random.default_rng(0)
        for arena in arenas:
            arena.grad[...] = rng.standard_normal(size)
        arenas[-1].grad[size // 2] = np.finfo(np.float64).max  # finite, however large
        assert trainer._gradients_healthy(policy)
        for arena in arenas:
            for index in sorted({0, tile - 1, tile, size - 1} & set(range(size))):
                for value in (np.nan, np.inf, -np.inf):
                    kept = arena.grad[index]
                    arena.grad[index] = value
                    assert not trainer._gradients_healthy(policy), (index, value)
                    arena.grad[index] = kept
        assert trainer._gradients_healthy(policy)

    def test_grad_norm_cap_skips_every_step(self):
        spec = ResilienceSpec(max_grad_norm=1e-12)
        trainer = _trainer(_plan().with_resilience(spec))
        initial = _weights(trainer)
        for _ in range(3):
            trainer.train_iteration()
        assert trainer.resilience_report.skipped_steps == 3
        _assert_same_weights(_weights(trainer), initial)

    def test_consecutive_skip_budget_exhausts(self):
        spec = ResilienceSpec(
            faults=("nan@0:replica=0", "nan@1:replica=0"), max_consecutive_skips=1
        )
        trainer = _trainer(_plan().with_resilience(spec))
        trainer.train_iteration()  # first skip: within budget
        with pytest.raises(ResilienceExhausted):
            trainer.train_iteration()

    def test_collective_fault_retried_with_backoff(self):
        spec = ResilienceSpec(faults=("collective@1:count=2",))
        trainer = _trainer(_plan().with_resilience(spec))
        trainer.train(3)
        report = trainer.resilience_report
        assert report.collective_retries == 2
        assert report.faults_injected["collective"] == 2
        # Exponential backoff: 0.5 * 2**0 + 0.5 * 2**1.
        assert report.backoff_seconds == pytest.approx(1.5)
        assert report.skipped_steps == 0  # retries succeed; no rollback needed

    def test_collective_fault_exhausts_retry_budget(self):
        spec = ResilienceSpec(faults=("collective@0:count=5",), max_collective_retries=3)
        trainer = _trainer(_plan().with_resilience(spec))
        with pytest.raises(ResilienceExhausted):
            trainer.train_iteration()


class TestCrashAndDegrade:
    def test_crash_raises_worker_crash(self):
        trainer = _trainer(_plan().with_resilience(ResilienceSpec(faults=("crash@1",))))
        trainer.train_iteration()
        with pytest.raises(WorkerCrash) as excinfo:
            trainer.train_iteration()
        assert excinfo.value.iteration == 1
        assert trainer.resilience_report.faults_injected == {"crash": 1}

    def test_replica_loss_shrinks_dp_group(self):
        spec = ResilienceSpec(faults=("replica_loss@2:replica=1",))
        trainer = _trainer(_plan().with_resilience(spec))
        result = trainer.train(4)
        assert len(trainer.engine.arenas) == 1
        assert trainer.optimizer.arenas is trainer.engine.arenas
        assert trainer.engine.data_parallel_degree == 1
        assert result.resilience.degraded == [
            {"iteration": 2, "replica": 1, "data_parallel_degree": 1}
        ]
        for arena in trainer.engine.arenas:
            assert np.isfinite(arena.data).all()
        # The surviving replica keeps training on its original loader shard.
        assert trainer._replica_ids == [0]
        assert len(trainer.history.train_losses) == 4

    def test_losing_the_last_replica_exhausts(self):
        spec = ResilienceSpec(
            faults=("replica_loss@1:replica=1", "replica_loss@2:replica=0")
        )
        trainer = _trainer(_plan().with_resilience(spec))
        trainer.train_iteration()
        trainer.train_iteration()  # drops replica 1, dp -> 1
        with pytest.raises(ResilienceExhausted):
            trainer.train_iteration()


# ----------------------------------------------------------------------------------
# Checkpoint v7: bit-exact round trips
# ----------------------------------------------------------------------------------


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("error_feedback", [True, False])
    @pytest.mark.parametrize("codec", DP_CODECS)
    def test_resume_is_bit_exact(self, codec, error_feedback, tmp_path):
        """train(6) continuous == train(3) + save + fresh load + train(3)."""
        plan = _plan(codec=codec, error_feedback=error_feedback)
        continuous = _trainer(plan)
        continuous.train(6)

        first = _trainer(plan)
        first.train(3)
        path = save_checkpoint(first, tmp_path / "ckpt.npz")

        resumed = _trainer(plan)
        assert load_checkpoint(resumed, path) == 3
        resumed.train(3)
        _assert_same_weights(_weights(resumed), _weights(continuous))
        assert resumed.history.train_losses == continuous.history.train_losses

    @pytest.mark.parametrize("codec", DP_CODECS)
    def test_crash_then_resume_matches_continuous(self, codec, tmp_path):
        """The ISSUE acceptance path: crash at k + --resume == continuous run."""
        plan = _plan(codec=codec, error_feedback=True)
        continuous = _trainer(plan)
        continuous.train(4)

        crashing = _trainer(plan.with_resilience(ResilienceSpec(faults=("crash@2",))))
        with pytest.raises(WorkerCrash):
            crashing.train(4, checkpoint_every=1, checkpoint_dir=tmp_path)

        checkpoint = latest_checkpoint(tmp_path)
        assert checkpoint is not None and checkpoint.name == checkpoint_name(2)
        resumed = _trainer(plan)
        assert load_checkpoint(resumed, checkpoint) == 2
        resumed.train(2)
        _assert_same_weights(_weights(resumed), _weights(continuous))

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_rollback_on_a_checkpoint_boundary_resumes_bit_exact(self, executor, tmp_path):
        """The recovery point captures no gradients: a rollback at k zero-fills
        every replica's, so checkpoint k (whose writer refuses replicas whose
        gradients differ) is written, and resuming from it matches the run that
        went on.  Under the process executor a worker crash at k is healed by
        the supervisor's rewind-and-replay first."""
        faults = ("nan@1:replica=1",)
        if executor == "process":
            faults += ("crash@1:replica=0",)
        plan = _plan().with_executor(executor).with_resilience(ResilienceSpec(faults=faults))
        with _trainer(plan) as continuous:
            continuous.train(2, checkpoint_every=2, checkpoint_dir=tmp_path)
            assert not any(arena.grad.any() for arena in continuous.engine.arenas)
            continuous.train(2)
            expected = _weights(continuous)
            report = continuous.resilience_report
            assert report.rollbacks == 1
            assert report.respawns == (1 if executor == "process" else 0)
        checkpoint = tmp_path / checkpoint_name(2)
        assert checkpoint.exists()
        with _trainer(plan) as resumed:
            assert load_checkpoint(resumed, checkpoint) == 2
            resumed.train(2)
            _assert_same_weights(_weights(resumed), expected)
            assert resumed.history.train_losses == continuous.history.train_losses

    def test_state_survives_round_trip(self, tmp_path):
        """EF residuals, RNG call counts, and Q warm starts are all restored."""
        trainer = _trainer(_plan(codec="powersgd"))
        trainer.train(3)
        path = save_checkpoint(trainer, tmp_path / "ckpt")
        other = _trainer(_plan(codec="powersgd"))
        load_checkpoint(other, path)
        ours = trainer.engine.mutable_state()
        theirs = other.engine.mutable_state()

        def _equal(a, b):
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
            if isinstance(a, dict) and isinstance(b, dict):
                return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
            if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
                return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
            return a == b

        assert _equal(ours, theirs)


    @pytest.mark.parametrize(
        "writer_change, reader_change",
        [
            ({"executor": "process"}, {"executor": "serial"}),
            ({"executor": "serial"}, {"executor": "process"}),
            ({"schedule": "1f1b"}, {"schedule": "zb1"}),
            ({"schedule": "zb1"}, {"schedule": "1f1b"}),
            ({"schedule": "zb1"}, {"schedule": "auto"}),
            ({"schedule": "serial"}, {"schedule": "1f1b"}),
            ({"schedule": "zb1"}, {"schedule": "serial"}),
            ({"guarded": True}, {"guarded": False}),
        ],
        ids=lambda change: "-".join(f"{k}={v}" for k, v in change.items()),
    )
    def test_resume_under_another_executor_or_schedule_is_bit_exact(
        self, writer_change, reader_change, tmp_path
    ):
        """The header compares compression only: executor, schedule and
        resilience change how an iteration runs, never what it computes —
        every schedule, serial included, keeps its residuals in bucket slabs."""

        def variant(change):
            plan = _plan(codec="powersgd")
            if "executor" in change:
                plan = plan.with_executor(change["executor"])
            if "schedule" in change:
                plan = plan.with_schedule(kind=change["schedule"])
            if change.get("guarded"):
                plan = plan.with_resilience(ResilienceSpec())
            return plan

        with _trainer(variant(reader_change)) as continuous:
            continuous.train(4)
            expected = _weights(continuous)
        with _trainer(variant(writer_change)) as writer:
            writer.train(2)
            path = save_checkpoint(writer, tmp_path / "ckpt.npz")
        with _trainer(variant(reader_change)) as resumed:
            assert load_checkpoint(resumed, path) == 2
            resumed.train(2)
            _assert_same_weights(_weights(resumed), expected)


def _arena_sha(trainer: Pretrainer) -> str:
    digest = hashlib.sha256()
    for arena in trainer.engine.arenas:
        digest.update(arena.data.tobytes())
    return digest.hexdigest()


class TestCheckpointCompressionMatrix:
    """A checkpoint loads only into a trainer that compresses as its writer did.

    Format v3 compared a technique-stack label that could not see the DP codec
    kind, any rank, or the quantisation bits: a PowerSGD rank-2 checkpoint
    loaded into a rank-4 trainer (fresh ``(m, 4)`` Q factors beside restored
    residuals) and trained on to weights matching neither continuous run.
    """

    BASE = _plan(codec="none")  # CB rank 2 + fused embedding, exact DP all-reduce
    PLANS = {
        "dp-none/cb-r2/fused": BASE,
        "powersgd-r2": _plan(codec="powersgd"),
        "powersgd-r4": _plan(codec="powersgd").with_boundary(Boundary.DP, rank=4),
        "qsgd-b4": _plan(codec="qsgd"),
        "qsgd-b3": _plan(codec="qsgd").with_boundary(Boundary.DP, bits=3),
        "topk": _plan(codec="topk"),
        "cb-r4": BASE.with_boundary(Boundary.PP, rank=4),
        "cb-off": BASE.with_boundary(Boundary.PP, codec="none"),
        "unfused": BASE.with_boundary(Boundary.EMBEDDING, codec="none"),
    }

    @pytest.fixture(scope="class")
    def checkpoints(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("compression-matrix")
        paths = {}
        for name, plan in self.PLANS.items():
            writer = _trainer(plan)
            writer.train(2)
            paths[name] = save_checkpoint(writer, directory / name.replace("/", "_"))
        return paths

    @pytest.mark.parametrize("reader_name", PLANS)
    @pytest.mark.parametrize("writer_name", PLANS)
    def test_only_the_writers_compression_loads(self, checkpoints, writer_name, reader_name):
        reader = _trainer(self.PLANS[reader_name])
        before = _arena_sha(reader)
        if writer_name == reader_name:
            assert load_checkpoint(reader, checkpoints[writer_name]) == 2
            assert _arena_sha(reader) != before
            return
        with pytest.raises(ValueError, match=r"compression configuration: (dp|pp|embedding)\.\w+ is"):
            load_checkpoint(reader, checkpoints[writer_name])
        assert _arena_sha(reader) == before  # refused before a single byte changed
        assert reader._iteration == 0 and reader.history.train_losses == []

    @pytest.mark.parametrize(
        "writer_name, reader_name, message",
        [
            ("powersgd-r2", "powersgd-r4", "dp.rank is 2 in the checkpoint, 4 in this trainer"),
            ("qsgd-b4", "topk", "dp.codec is 'qsgd' in the checkpoint, 'topk' in this trainer"),
            ("qsgd-b4", "qsgd-b3", "dp.bits is 4 in the checkpoint, 3 in this trainer"),
            ("dp-none/cb-r2/fused", "cb-r4", "pp.rank is 2 in the checkpoint, 4 in this trainer"),
            ("dp-none/cb-r2/fused", "unfused", "embedding.codec is 'fused' in the checkpoint"),
        ],
    )
    def test_the_error_names_the_differing_knob(
        self, checkpoints, writer_name, reader_name, message
    ):
        with pytest.raises(ValueError) as raised:
            load_checkpoint(_trainer(self.PLANS[reader_name]), checkpoints[writer_name])
        assert message in str(raised.value)


class TestCheckpointValidation:
    def test_topology_mismatch_rejected(self, tmp_path):
        writer = _trainer(_plan(dp=2))
        writer.train_iteration()
        path = save_checkpoint(writer, tmp_path / "ckpt.npz")
        reader = _trainer(_plan(dp=1))
        with pytest.raises(ValueError, match="topology"):
            load_checkpoint(reader, path)

    @staticmethod
    def _tamper_header(path, mutate):
        with np.load(path, allow_pickle=False) as archive:
            data = {key: archive[key] for key in archive.files}
        header = json.loads(bytes(data["__header__"].tobytes()).decode("utf-8"))
        mutate(header)
        data["__header__"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        )
        np.savez(path, **data)

    def test_v1_checkpoint_rejected_loudly(self, tmp_path):
        trainer = _trainer(_plan())
        trainer.train_iteration()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")
        self._tamper_header(path, lambda h: h.update(format_version=1))
        with pytest.raises(ValueError, match="bit-exactly"):
            load_checkpoint(_trainer(_plan()), path)

    @pytest.mark.parametrize(
        "version, reason",
        [
            (2, "deflated per-parameter archives"),
            (3, "cannot see codec kinds, ranks or bits"),
            (4, "per-replica PowerSGD DP residuals"),
            (5, "serial-DP files keep per-parameter residuals"),
            (6, "no compressed-forward hook state"),
            (7, "record compress_forward"),
        ],
    )
    def test_retired_checkpoint_rejected_naming_the_read_format(self, tmp_path, version, reason):
        """There is one reader: a v2 - v7 header fails loudly and says what is read."""
        trainer = _trainer(_plan())
        trainer.train_iteration()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")
        self._tamper_header(path, lambda h: h.update(format_version=version))
        with pytest.raises(ValueError, match="format v8 only") as raised:
            load_checkpoint(_trainer(_plan()), path)
        assert reason in str(raised.value)

    def test_header_records_the_compression_section_and_nothing_about_how_it_ran(self, tmp_path):
        plan = _plan(codec="qsgd").with_schedule(kind="zb1")
        trainer = _trainer(plan)
        trainer.train_iteration()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")
        with np.load(path, allow_pickle=False) as archive:
            header = json.loads(bytes(archive["__header__"].tobytes()).decode("utf-8"))
        assert header["format_version"] == 8
        assert header["compression"] == plan.to_dict()["compression"]
        assert not {"config", "schedule", "executor", "dp_overlap"} & set(header)

    def test_parameter_layout_mismatch_rejected(self, tmp_path):
        """The name -> offset/shape table must match the reader's arena exactly."""
        trainer = _trainer(_plan())
        trainer.train_iteration()
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")

        def shift_first_offset(header):
            header["layout"]["parameters"][0][1] += 1

        self._tamper_header(path, shift_first_offset)
        reader = _trainer(_plan())
        before = _weights(reader)
        with pytest.raises(ValueError, match="layout"):
            load_checkpoint(reader, path)
        _assert_same_weights(_weights(reader), before)  # nothing half-restored

    @pytest.mark.parametrize("dp", [2, 3])
    def test_weights_and_moments_cannot_diverge(self, dp):
        """Replaces ``test_diverged_dp_group_refuses_to_save``'s premise: the DP
        group's weights and moments exist once, so there is nothing to compare."""
        trainer = _trainer(_plan(dp=dp))
        trainer.train(2)
        arenas = trainer.engine.arenas
        assert len(arenas) == dp
        assert all(arena.data is arenas[0].data for arena in arenas)
        for replica in trainer.engine.replicas:
            for stage in replica:
                for parameter in stage.parameters():
                    assert np.shares_memory(parameter.data, arenas[0].data)
        # Replica 0's gradients, and one buffer the serial walk's others share.
        assert len(distinct_buffers(arena.grad for arena in arenas)) == 2
        assert trainer.optimizer.arenas is arenas

    def test_diverged_gradients_refuse_to_save(self, tmp_path):
        """Replaces ``test_diverged_moments_refuse_to_save``: what replicas can
        still disagree on is the synchronised gradient the one step reads."""
        trainer = _trainer(_plan(dp=2))
        trainer.train(2)
        save_checkpoint(trainer, tmp_path / "agreeing.npz").unlink()
        grad = trainer.engine.arenas[1].grad
        grad[7] = np.nextafter(grad[7], np.inf)  # one ulp
        with pytest.raises(RuntimeError, match="replica 1's synchronised gradients"):
            save_checkpoint(trainer, tmp_path / "ckpt.npz")
        assert not list(tmp_path.iterdir())

    def test_a_diverged_process_segment_refuses_to_save(self, tmp_path):
        """Each worker's gradient segment is its own buffer, so each is read."""
        with _trainer(_plan(dp=3).with_executor("process")) as trainer:
            trainer.train(2)
            arenas = trainer.engine.arenas
            assert len(distinct_buffers(arena.grad for arena in arenas)) == 3
            save_checkpoint(trainer, tmp_path / "agreeing.npz").unlink()
            grad = arenas[2].grad
            grad[7] = np.nextafter(grad[7], np.inf)  # one ulp
            with pytest.raises(RuntimeError, match="replica 2's synchronised gradients"):
                save_checkpoint(trainer, tmp_path / "ckpt.npz")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("stage", [0, 1])
    def test_a_nan_in_a_replica_sharing_its_buffer_rolls_back(self, stage):
        """Replica 2 of 4 writes the buffer replicas 1 and 3 share: its poison
        is folded into the mean before replica 3 overwrites it, and the guard
        reads the shared buffer once."""
        plan = _plan(dp=4).with_resilience(
            ResilienceSpec(faults=(f"nan@1:replica=2,stage={stage}",))
        )
        trainer = _trainer(plan)
        arenas = trainer.engine.arenas
        assert np.shares_memory(arenas[2].grad, arenas[3].grad)
        trainer.train_iteration()
        weights = _weights(trainer)
        trainer.train_iteration()
        assert trainer.resilience_report.rollbacks == 1
        assert trainer.resilience_report.faults_injected == {"nan": 1}
        _assert_same_weights(_weights(trainer), weights)


class TestCheckpointLayout:
    """Format v7: stored members, straight from the live buffers, once per DP group."""

    @staticmethod
    def _trained(codec="powersgd", dp=2):
        trainer = _trainer(_plan(codec=codec, dp=dp))
        trainer.train(3)
        return trainer

    def test_every_member_is_stored_and_the_file_is_its_payload(self, tmp_path):
        path = save_checkpoint(self._trained(), tmp_path / "ckpt.npz")
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert members and all(m.compress_type == zipfile.ZIP_STORED for m in members)
        with np.load(path, allow_pickle=False) as archive:
            payload = sum(archive[name].nbytes for name in archive.files)
            names = set(archive.files)
        assert path.stat().st_size <= 1.02 * payload
        # Arena-granular: one flat array per buffer, not one member per parameter.
        assert {"__header__", "weights", "exp_avg", "exp_avg_sq"} <= names
        assert all(name.startswith("state/") for name in names - {
            "__header__", "weights", "exp_avg", "exp_avg_sq"
        })

    def test_weights_and_moments_are_stored_once_per_dp_group(self, tmp_path):
        trainer = self._trained(dp=2)
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")
        arena = trainer.engine.arenas[0]
        with np.load(path, allow_pickle=False) as archive:
            assert archive["weights"].shape == arena.data.shape
            assert archive["exp_avg"].shape == (arena.num_trainable_elements,)
            header = json.loads(bytes(archive["__header__"].tobytes()).decode("utf-8"))
        table = header["layout"]["parameters"]
        assert [entry[1] for entry in table] == sorted(entry[1] for entry in table)
        assert sum(int(np.prod(entry[2])) for entry in table) == arena.num_elements
        assert header["layout"]["trainable_elements"] == arena.num_trainable_elements

    @pytest.mark.parametrize("codec", ["powersgd", "qsgd"])
    def test_dp2_checkpoint_restores_both_replicas(self, codec, tmp_path):
        writer = self._trained(codec=codec, dp=2)
        path = save_checkpoint(writer, tmp_path / "ckpt.npz")
        reader = _trainer(_plan(codec=codec, dp=2))
        load_checkpoint(reader, path)
        assert len(reader.engine.arenas) == 2
        for ours, theirs in zip(reader.engine.arenas, writer.engine.arenas):
            assert np.array_equal(ours.data, theirs.data)
        ours, theirs = reader.optimizer, writer.optimizer
        assert np.array_equal(ours._exp_avg_flat, theirs._exp_avg_flat)
        assert np.array_equal(ours._exp_avg_sq_flat, theirs._exp_avg_sq_flat)
        assert (ours._step_count, ours.lr) == (theirs._step_count, theirs.lr)
        # The loaded replicas still are one weight buffer, written once.
        assert reader.engine.arenas[0].data is reader.engine.arenas[1].data

    def test_save_copies_no_whole_state(self, tmp_path):
        """The writer streams the live buffers: its peak allocation stays below
        half the bytes it writes (a `.copy()` of the moments or the residual
        slabs alone would exceed that)."""
        model = functional_config(
            vocab_size=64, sequence_length=16, num_layers=2, hidden_size=64, num_heads=2
        )
        trainer = Pretrainer(model, _loader(), plan=_plan(), seed=0)
        trainer.train(2)
        save_checkpoint(trainer, tmp_path / "warm.npz")  # import-time allocations
        tracemalloc.start()
        try:
            path = save_checkpoint(trainer, tmp_path / "ckpt.npz")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * path.stat().st_size, (peak, path.stat().st_size)


class TestRecoveryPoint:
    def test_buffers_are_allocated_once_and_reused(self):
        """Five guarded iterations refill the same capture buffers in place."""
        trainer = _trainer(_plan().with_resilience(ResilienceSpec()))
        trainer.train_iteration()
        point = trainer.engine.recovery_point

        def buffer_ids():
            return [id(array) for array in tree_arrays(point.engine_state)]

        # Error-feedback residuals appear on the first reduction, so the
        # inventory is complete from the second capture on.
        trainer.train_iteration()
        before = buffer_ids()
        assert before
        for _ in range(5):
            trainer.train_iteration()
        assert buffer_ids() == before

    def test_capture_is_detached_from_live_state(self):
        trainer = _trainer(_plan().with_resilience(ResilienceSpec()))
        trainer.train(2)
        point, engine = trainer.engine.recovery_point, trainer.engine
        # The engine state, and of the optimiser only its step count: the
        # weights and moments have one writer, the step, which comes after
        # every way back.  The capture was taken before this iteration's step.
        assert point.step_count == trainer.optimizer.live_state()["step_count"] - 1
        captured, live = tree_arrays(point.engine_state), tree_arrays(engine.live_mutable_state())
        assert captured and len(captured) == len(live)
        assert point.nbytes() == sum(array.nbytes for array in captured)
        for copy in captured:
            assert not any(np.shares_memory(copy, array) for array in live)
            assert not np.shares_memory(copy, engine.arenas[0].data)

    def test_restore_after_a_step_raises_and_names_the_step(self):
        trainer = _trainer(_plan().with_resilience(ResilienceSpec()))
        trainer.train(2)  # the second iteration captured at step 1, then stepped
        point = trainer.engine.recovery_point
        weights = trainer.engine.arenas[0].data.copy()
        with pytest.raises(RuntimeError, match="captured at optimizer step 1: .* at step 2"):
            point.restore()
        assert np.array_equal(trainer.engine.arenas[0].data, weights)

    def test_unguarded_trainer_captures_nothing(self):
        trainer = _trainer(_plan())
        trainer.train(2)
        assert trainer.engine.recovery_point is None


class TestCheckpointFiles:
    def test_write_is_atomic_no_tmp_leftover(self, tmp_path):
        trainer = _trainer(_plan())
        trainer.train_iteration()
        path = save_checkpoint(trainer, tmp_path / "ckpt")
        assert path.suffix == ".npz" and path.exists()
        assert not list(tmp_path.glob("*.tmp-*"))

    def test_rotation_keeps_last_k(self, tmp_path):
        trainer = _trainer(_plan())
        trainer.train(5, checkpoint_every=1, checkpoint_dir=tmp_path, keep_last=2)
        names = sorted(p.name for p in tmp_path.glob("ckpt-*.npz"))
        assert names == [checkpoint_name(4), checkpoint_name(5)]
        assert latest_checkpoint(tmp_path).name == checkpoint_name(5)

    def test_latest_checkpoint_empty_directory(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None

    def test_orphan_tmp_never_wins_resume_or_rotation(self, tmp_path):
        """A writer SIGKILLed mid-write leaves its temp file behind; whatever it
        is called, it is neither the latest checkpoint nor counted by rotation."""
        trainer = _trainer(_plan())
        trainer.train_iteration()
        good = save_rotating_checkpoint(trainer, tmp_path, keep_last=2)
        # The pre-v3 writer's temp name matched the rotation glob and sorted last.
        legacy = tmp_path / "ckpt-00000001.tmp-4242.npz"
        legacy.write_bytes(b"truncated")
        assert latest_checkpoint(tmp_path) == good
        trainer.train_iteration()
        newer = save_rotating_checkpoint(trainer, tmp_path, keep_last=2)
        assert latest_checkpoint(tmp_path) == newer
        assert good.exists()  # the orphan did not take a keep_last slot

    def test_orphan_tmp_of_a_dead_writer_is_swept_on_the_next_save(self, tmp_path):
        trainer = _trainer(_plan())
        trainer.train_iteration()
        finished = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                                  capture_output=True, text=True, check=True)
        dead = tmp_path / f"ckpt-00000007.npz.tmp-{int(finished.stdout)}"
        dead.write_bytes(b"truncated")
        alive = tmp_path / f"ckpt-00000007.npz.tmp-{os.getppid()}"
        alive.write_bytes(b"still being written")
        save_rotating_checkpoint(trainer, tmp_path)
        assert not dead.exists()
        assert alive.exists()  # another live writer's file is not ours to delete
        assert latest_checkpoint(tmp_path).name == checkpoint_name(1)


# ----------------------------------------------------------------------------------
# Plan / CLI / simulator seams
# ----------------------------------------------------------------------------------


class TestPlanResilienceSection:
    def test_json_round_trip(self):
        plan = _plan().with_resilience(
            ResilienceSpec(faults=("nan@3:replica=1",), max_grad_norm=10.0, seed=5)
        )
        assert ParallelPlan.from_json(plan.to_json()) == plan
        assert "resilience" in plan.to_dict()

    def test_plans_without_resilience_omit_the_section(self):
        plan = _plan()
        assert "resilience" not in plan.to_dict()
        assert ParallelPlan.from_json(plan.to_json()) == plan

    def test_resilience_participates_in_hash_and_eq(self):
        bare = _plan()
        armed = bare.with_resilience(ResilienceSpec(faults=("nan@1",)))
        assert bare != armed
        assert hash(bare) != hash(armed) or bare == armed  # hashable either way
        assert hash(armed) == hash(armed.with_resilience(ResilienceSpec(faults=("nan@1",))))

    def test_from_dict_rejects_unknown_resilience_keys(self):
        payload = _plan().to_dict()
        payload["resilience"] = {"faults": [], "wormhole": 1}
        with pytest.raises(ValueError):
            ParallelPlan.from_dict(payload)

    def test_invalid_fault_strings_rejected_eagerly(self):
        with pytest.raises(ValueError):
            ResilienceSpec(faults=("nan",))
        with pytest.raises(ValueError):
            ResilienceSpec(faults=("meteor@1",))

    def test_cli_flags_arm_the_plan(self):
        from repro.cli import build_parser, build_train_plan

        parser = build_parser()
        arguments = parser.parse_args(
            ["train", "--preset", "cb_fe_sc", "--guard",
             "--inject-fault", "nan@2:replica=1", "--max-grad-norm", "5.0",
             "--fault-seed", "9"]
        )
        plan = build_train_plan(arguments)
        assert plan.resilience is not None
        assert plan.resilience.faults == ("nan@2:replica=1",)
        assert plan.resilience.max_grad_norm == 5.0
        assert plan.resilience.seed == 9

    def test_cli_unarmed_by_default(self):
        from repro.cli import build_parser, build_train_plan

        arguments = build_parser().parse_args(["train", "--preset", "cb_fe_sc"])
        assert build_train_plan(arguments).resilience is None


class TestSimulatorRecoveryOverhead:
    def test_recovery_overhead_adds_to_iteration_time(self):
        from repro.models import GPT_2_5B
        from repro.simulator import TrainingJob
        from repro.simulator.executor import simulate_plan

        job = TrainingJob(model=GPT_2_5B)
        base = simulate_plan(job, ParallelPlan.cb_fe_sc())
        padded = simulate_plan(job, ParallelPlan.cb_fe_sc(), resilience_overhead_s=0.5)
        assert base.recovery_overhead == 0.0
        assert padded.recovery_overhead == 0.5
        assert padded.iteration_time == pytest.approx(base.iteration_time + 0.5)

    def test_negative_overhead_rejected(self):
        from repro.models import GPT_2_5B
        from repro.simulator import TrainingJob
        from repro.simulator.executor import simulate_plan

        with pytest.raises(ValueError):
            simulate_plan(
                TrainingJob(model=GPT_2_5B), ParallelPlan.cb_fe_sc(),
                resilience_overhead_s=-0.1,
            )


# ----------------------------------------------------------------------------------
# CI smoke + fuzz
# ----------------------------------------------------------------------------------


def test_fault_injection_smoke():
    """The CI fast-tier smoke: one NaN + one transient collective fault in a
    2x2 run must produce exactly one skip and one retry, then finish."""
    spec = ResilienceSpec(faults=("nan@1:replica=1,stage=0", "collective@2:count=1"))
    trainer = _trainer(_plan(dp=2, pp=2).with_resilience(spec))
    result = trainer.train(4)
    report = result.resilience
    assert report.skipped_steps == 1
    assert report.rollbacks == 1
    assert report.collective_retries == 1
    assert report.faults_injected == {"nan": 1, "collective": 1}
    assert len(trainer.history.train_losses) == 3  # the poisoned step is skipped
    for arena in trainer.engine.arenas:
        assert np.isfinite(arena.data).all()


@st.composite
def fault_schedules(draw):
    faults = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["nan", "inf", "collective", "crash", "replica_loss"]))
        iteration = draw(st.integers(0, 3))
        if kind in ("nan", "inf"):
            replica = draw(st.integers(0, 1))
            stage = draw(st.integers(0, 1))
            elements = draw(st.integers(1, 4))
            faults.append(f"{kind}@{iteration}:replica={replica},stage={stage},elements={elements}")
        elif kind == "collective":
            faults.append(f"collective@{iteration}:count={draw(st.integers(1, 5))}")
        elif kind == "replica_loss":
            faults.append(f"replica_loss@{iteration}:replica={draw(st.integers(0, 1))}")
        else:
            faults.append(f"crash@{iteration}")
    return tuple(faults)


class TestFuzzedFaultSchedules:
    @given(faults=fault_schedules(), seed=st.integers(0, 3))
    @settings(max_examples=12, deadline=None)
    # Two inf elements of opposite sign in one row make PowerSGD's P = G·Q
    # inf - inf: the NaN must reach the guard, not raise in the matmul.
    @example(
        faults=("inf@2:replica=1,stage=1,elements=3", "inf@2:replica=1,stage=1,elements=2"),
        seed=0,
    )
    def test_guarded_loop_never_silently_corrupts(self, faults, seed):
        """Under any schedule: finish with finite weights, or raise loudly."""
        spec = ResilienceSpec(faults=faults, seed=seed)
        trainer = _trainer(_plan().with_resilience(spec))
        try:
            trainer.train(4)
        except (ResilienceExhausted, WorkerCrash):
            pass  # loud failure is inside the contract
        for arena in trainer.engine.arenas:
            assert np.isfinite(arena.data).all()
        assert trainer.weights_in_sync()

"""One copy of the replicated state: shared weights, one optimiser, per-replica gradients.

Data-parallel replicas apply one gradient to one set of weights, so the engine
stores the weights (and the trainer the Adam moments) **once** per DP group and
only the gradients per replica.  Three things are asserted here:

* **structure** — one weight buffer and one moments pair for DP in {1, 2, 4}
  under both executors, ``/dev/shm`` holding exactly 1 + DP segments while a
  process engine runs, and the two constructions that would silently misbehave
  on shared weights (an optimiser per arena; an optimiser over one arena of a
  group) refused loudly;
* **bit-identity, pinned** — the digests below were computed on the commit
  *before* the state was shared (``1836b72``, every replica owning private
  weights and its own ``FusedAdam``): sharing moves where bytes live, never a
  bit of them, across plans x DP degrees x executors x guarded/unguarded,
  through a checkpoint, a replica loss, a worker respawn and a guard rollback
  (the PowerSGD-DP entries were re-pinned once since, see below);
* **divergence** — what can still differ between replicas is the synchronised
  gradient, and a group whose gradients disagree refuses to checkpoint.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import os
import zipfile

import numpy as np
import pytest

from repro.data import LanguageModelingDataLoader, SyntheticCorpus, SyntheticCorpusConfig
from repro.models.gpt_configs import functional_config
from repro.optim import FusedAdam
from repro.parallel.arena import ParameterArena, bitwise_equal, distinct_buffers
from repro.parallel.engine import ThreeDParallelEngine
from repro.plan import Boundary, ParallelPlan, ResilienceSpec, Schedule
from repro.tensor import init
from repro.tensor.parameter import Parameter
from repro.training.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from repro.training.trainer import Pretrainer
from repro.utils.state import tree_arrays

ITERATIONS = 6


def _quant_auto_plan() -> ParallelPlan:
    """The qsgd / top-k / synthesized-schedule plan of BENCH_e2e's ``train_quant_auto``."""
    plan = ParallelPlan(
        schedule=Schedule(kind="auto", memory_cap_factor=1.5, dp_fire="micro_batch")
    )
    plan = plan.with_boundary(
        Boundary.DP, codec="qsgd", bits=4, stage_fraction=1.0, error_feedback=True
    )
    return plan.with_boundary(Boundary.PP, codec="topk", fraction=0.1)


PLANS = {
    "baseline": lambda: ParallelPlan.preset("baseline"),
    "optimus": lambda: ParallelPlan.preset("cb_fe_sc").proxy_scaled(4),
    "quant_auto": _quant_auto_plan,
}


def probe_plan(
    name: str, dp: int, executor: str = "serial", guarded: bool = False, faults=()
) -> ParallelPlan:
    plan = PLANS[name]().with_topology(pp=2, dp=dp, micro_batches=2).with_executor(executor)
    if guarded or faults:
        plan = plan.with_resilience(ResilienceSpec(faults=tuple(faults)))
    return plan


def probe_trainer(plan: ParallelPlan, seed: int = 5) -> Pretrainer:
    model = functional_config(
        vocab_size=64, sequence_length=16, num_layers=2, hidden_size=32, num_heads=2
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


def weights_sha256(trainer: Pretrainer) -> str:
    """SHA-256 over every replica's weight arena, in replica order."""
    digest = hashlib.sha256()
    for arena in trainer.engine.arenas:
        digest.update(np.ascontiguousarray(arena.data))
    return digest.hexdigest()


def trained_digest(trainer: Pretrainer, iterations: int) -> list[str]:
    """``[weights SHA-256, SHA-256 of the loss list]`` after ``iterations`` more iterations."""
    losses = [trainer.train_iteration() for _ in range(iterations)]
    loss_text = ",".join(loss.hex() for loss in losses)
    return [weights_sha256(trainer), hashlib.sha256(loss_text.encode("ascii")).hexdigest()]


def run_digest(name: str, dp: int, executor: str, guarded: bool = False, faults=()) -> list[str]:
    with probe_trainer(probe_plan(name, dp, executor, guarded, faults)) as trainer:
        return trained_digest(trainer, ITERATIONS)


#: The checkpoint format the ``PINNED_CHECKPOINTS`` digests were written in.
PINNED_FORMAT_VERSION = 6


def checkpoint_members_sha256(path) -> str:
    """SHA-256 of a checkpoint's members: names, storage method and every payload byte.

    Everything in the file except the zip entries' modification times, which
    the writer takes from the wall clock — and the header's format version,
    read as ``PINNED_FORMAT_VERSION``: a format bump that changes nothing else
    leaves every digest where it was.
    """
    version = f'"format_version": {CHECKPOINT_FORMAT_VERSION}'.encode("ascii")
    pinned = f'"format_version": {PINNED_FORMAT_VERSION}'.encode("ascii")
    digest = hashlib.sha256()
    with zipfile.ZipFile(path) as archive:
        for member in archive.infolist():
            payload = archive.read(member)
            if member.filename == "__header__.npy":
                assert payload.count(version) == 1
                payload = payload.replace(version, pinned)
            digest.update(f"{member.filename}:{member.compress_type}:".encode("ascii"))
            digest.update(payload)
    return digest.hexdigest()


def checkpoint_digest(name: str, dp: int, path, executor: str = "serial") -> dict:
    """Save at iteration 3, finish the run; resume a fresh trainer from the file."""
    with probe_trainer(probe_plan(name, dp, executor)) as writer:
        for _ in range(3):
            writer.train_iteration()
        save_checkpoint(writer, path)
        for _ in range(ITERATIONS - 3):
            writer.train_iteration()
        continuous = weights_sha256(writer)
    with probe_trainer(probe_plan(name, dp, executor)) as reader:
        load_checkpoint(reader, path)
        for _ in range(ITERATIONS - 3):
            reader.train_iteration()
        resumed = weights_sha256(reader)
    return {"file": checkpoint_members_sha256(path), "continuous": continuous, "resumed": resumed}


def degraded_digest(replica: int, executor: str) -> list[str]:
    """DP3, lose ``replica`` at iteration 2, then three more iterations on the survivors."""
    plan = probe_plan("optimus", 3, executor, faults=(f"replica_loss@2:replica={replica}",))
    with probe_trainer(plan) as trainer:
        digest = trained_digest(trainer, 5)
        assert trainer.engine.data_parallel_degree == 2
        return digest


def shm_entries() -> set[str]:
    return set(os.listdir("/dev/shm"))


def arithmetic_canary() -> str:
    """Digest of the kinds of arithmetic a training run does, on fixed inputs.

    Float bits depend on the BLAS build and the CPU's vector units, so digests
    pinned on one machine are only *required* on machines that agree with it
    here; everywhere else the mode-against-mode equalities still are.
    """
    rng = np.random.default_rng(2024)
    a, b = rng.standard_normal((24, 32)), rng.standard_normal((32, 96))
    heads = rng.standard_normal((2, 2, 12, 16))
    digest = hashlib.sha256()
    for value in (
        a @ b,
        (a @ b).T @ a,
        np.einsum("bhqd,bhkd->bhqk", heads, heads),
        np.exp(a),
        np.tanh(b),
        np.sqrt(np.abs(a)) / (1.0 + np.abs(a)),
        a.sum(axis=1),
        np.linalg.qr(b)[0],
    ):
        digest.update(np.ascontiguousarray(value))
    return digest.hexdigest()


#: A poisoned gradient on replica 1 at iteration 2: the guard rolls the step back.
NAN_FAULT = "nan@2:replica=1,stage=0"

# ----------------------------------------------------------------------------------
# Pinned on 1836b72 — the last commit on which every replica owned private weights
# and its own FusedAdam — with the helpers above (`PYTHONPATH=<that tree>/src`).
# Re-pinned once since, all in one change: the ``optimus`` entries at DP >= 2
# (runs, checkpoint, degraded, rolled back), when the PowerSGD DP reduce began
# factorising the replica-mean corrected gradient against one group residual —
# a declared summation-order change, held to the frozen per-replica oracle in
# tests/test_core_selective_stage.py.  The ``baseline`` / ``quant_auto`` pins and
# ``("optimus", 1)`` (DP1 runs no DP reduce) did not move.  ``PINNED_CHECKPOINTS``
# alone was re-pinned once more, at format v6: the header lost ``dp_overlap`` and
# names the DP codec state ``queries`` / ``compressor``; every other member of the
# three files is byte-for-byte the v5 writer's.  And once more at format v8: the
# header's ``compression`` sections lost the forward-compression knob; every
# other member, and every other header key, is the v7 writer's.
# ----------------------------------------------------------------------------------

PINNED_CANARY = "2c6bc6438b4fb7dea9b44b028d343dc8a53961004ff805f9391a07589b4172ef"

#: ``[weights SHA-256, loss-list SHA-256]`` after six iterations; one value per
#: (plan, DP) because serial/process and guarded/unguarded already agreed there.
PINNED_RUNS = {
    ("baseline", 1): [
        "cc2b27517e3611b970bc54b2ba66c856406baa995c72f45fb72220386fb9ea0c",
        "32673f4b6e1773e4a59e3767a027a93fc1feefa037a6d6fe8de83fae5fa2ac67",
    ],
    ("baseline", 2): [
        "119b6b4b0588268d02ea5fcdad383e6d705b91301b6a7c2a031ca78e5487c0cb",
        "6992d38e3cdac2b841973b39596c826fa6dc55e4ebd13275c59154faec730641",
    ],
    ("baseline", 4): [
        "11cbb0a194ec7ec5ae2ed40ece9e377418eeae9a37b24b0a4a988e31bdba5577",
        "c388d15b812b3307970d1999b72e52a5f42d9edaf3728b5903f3c26f00f19899",
    ],
    ("optimus", 1): [
        "513c80445df190f3d5f1d44850661ebf9793b75552a22baf07f34f01beb48ca6",
        "fbdf6f99a6d86fed5984eb5dd72b07c9dfbc6e654d6ef82bd3e280aa790a02d2",
    ],
    ("optimus", 2): [
        "cc8f1a3b1d9153ebb3e16f598da518a8b29dda0c1b984c9e36fb53e4e7094f5d",
        "9525dccb7aef9c41eb7bea4af258b2639326ded67c1c0a656d0ccf50336ba000",
    ],
    ("optimus", 4): [
        "f11421e803f5a3ecd39a43c67192207c31221b9be09a9b4d7430d75cfbcc8701",
        "0cd1ab3a42adcb4a91aa8f77aca04f5076ac3be067100fffe424456e9e2efbc6",
    ],
    ("quant_auto", 1): [
        "69041125ea1fcf9039dd99258d77e4997a9a3556dc345dcb356aa3d10b4e2fae",
        "9c6118d0ce258825d13e8d63f61cc435628140f1434f2a383fe473b7812a5003",
    ],
    ("quant_auto", 2): [
        "b5ca609e7761c885b6b70e17836c72660ddf52f42eb2736ce8998929535910be",
        "93b59ed472e954b41031f4576ecc68f6e701e2f7857f7bda8d494bd001a30a4a",
    ],
    ("quant_auto", 4): [
        "bada8cad292b97471b7eb983aabb901c14ca9e5347d2950f69e0c2a4c1031436",
        "2e0aba6f88819e09b72bc1ca802d20874f09a62bb5a05636b74f9ba1d5affd3b",
    ],
}

#: Members digest of the DP2 checkpoint written at iteration 3 (the weights after six
#: iterations, continuous or resumed, are ``PINNED_RUNS[plan, 2][0]``).
PINNED_CHECKPOINTS = {
    "baseline": "6dd3b25b7e3cd68c27bbd06dde31d8aedfa13cd4290c606a510037f94a66f938",
    "optimus": "6fd949a84a1b56ce01e1c773a939dcfffb52510bf4bc228d4c7a78557c5fb50c",
    "quant_auto": "d1f288d58036a55f8553983e59cad1a20d2fde9095a0ece0bbda1a9144418e5f",
}

#: DP3 ``optimus`` losing replica 0 / replica 2 at iteration 2, five iterations in all.
PINNED_DEGRADED = {
    0: [
        "af83e47a0bfaae74d7fda913bb1968e4a943c4008ae4011ef48d9e374bfb8bc4",
        "51b6d33a734097904b4baf906bd49ba14d78f5a0449d5f3d57694c40dd886efb",
    ],
    2: [
        "0c42806bc8fc18ffd0276145306e331b2ae3b67d43ee7d4992592202724461d9",
        "f99b22559d85653048a762a6373b73237e7bf9c7bd6af9159dccada5f8adab1b",
    ],
}

#: DP2 ``optimus`` with ``NAN_FAULT``: iteration 2 is rolled back and skipped.
PINNED_ROLLED_BACK = [
    "9066b059b09d32ac591deafff30207072107964643a571e9f06ad0bafb28a5e6",
    "0da3d9186af35d9fb8a863cda858e8d58ff63791a9bab18aa3c89c1903cfacde",
]


@pytest.fixture(scope="module")
def require_pin():
    """``require_pin(actual, pinned)``: equal, on machines whose arithmetic is the pinning one's."""
    same_arithmetic = arithmetic_canary() == PINNED_CANARY

    def check(actual, pinned) -> None:
        if not same_arithmetic:
            pytest.skip("this machine's float arithmetic differs from where the digests were pinned")
        assert actual == pinned

    return check


# ----------------------------------------------------------------------------------
# Bit-identity against the commit before the state was shared
# ----------------------------------------------------------------------------------


class TestPinnedBitIdentity:
    @pytest.mark.parametrize("dp", [1, 2, 4])
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_every_mode_reproduces_the_parent(self, name, dp, require_pin):
        digests = {
            (executor, guarded): run_digest(name, dp, executor, guarded)
            for executor in ("serial", "process")
            for guarded in (False, True)
        }
        reference = digests["serial", False]
        assert all(digest == reference for digest in digests.values()), digests
        require_pin(reference, PINNED_RUNS[name, dp])

    @pytest.mark.parametrize("name, dp", sorted(PINNED_RUNS))
    def test_serial_dp_reproduces_the_overlapped_pin(self, name, dp, require_pin):
        """The overlap-off ablation moves when the DP all-reduce fires, not what it computes."""
        plan = probe_plan(name, dp).with_schedule(kind="serial")
        with probe_trainer(plan) as trainer:
            require_pin(trained_digest(trainer, ITERATIONS), PINNED_RUNS[name, dp])

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_checkpoint_is_the_parents_bytes_and_resumes_bit_exactly(
        self, name, executor, tmp_path, require_pin
    ):
        result = checkpoint_digest(name, 2, tmp_path / "ckpt.npz", executor)
        assert result["resumed"] == result["continuous"]
        require_pin(result["continuous"], PINNED_RUNS[name, 2][0])
        require_pin(result["file"], PINNED_CHECKPOINTS[name])

    @pytest.mark.parametrize("replica", [0, 2])
    def test_losing_the_first_or_the_last_replica(self, replica, require_pin):
        serial = degraded_digest(replica, "serial")
        assert degraded_digest(replica, "process") == serial
        require_pin(serial, PINNED_DEGRADED[replica])

    def test_killed_worker_0_is_respawned_over_the_same_weights(self, require_pin):
        """Worker 0 dies inside iteration 2 while worker 1 computes; its replacement
        maps the weights segment no worker ever owned, and the replay is exact."""
        plan = probe_plan("optimus", 2, "process", faults=("crash@2:replica=0",))
        with probe_trainer(plan) as trainer:
            healed = trained_digest(trainer, ITERATIONS)
            assert trainer.resilience_report.respawns == 1
            assert trainer.engine.weights_in_sync()
        assert healed == run_digest("optimus", 2, "serial")
        require_pin(healed, PINNED_RUNS["optimus", 2])

    def test_guard_rollback_reproduces_the_parent(self, require_pin):
        serial = run_digest("optimus", 2, "serial", faults=(NAN_FAULT,))
        assert run_digest("optimus", 2, "process", faults=(NAN_FAULT,)) == serial
        assert serial != PINNED_RUNS["optimus", 2]  # the skipped step shows
        require_pin(serial, PINNED_ROLLED_BACK)


# ----------------------------------------------------------------------------------
# Structure: one weight buffer, one moments pair, DP gradient buffers
# ----------------------------------------------------------------------------------


def assert_one_copy(trainer: Pretrainer, dp: int) -> None:
    arenas = trainer.engine.arenas
    assert len(arenas) == dp
    assert all(arena.data is arenas[0].data for arena in arenas)
    assert all(arena.group is arenas for arena in arenas)
    for replica, arena in zip(trainer.engine.replicas, arenas):
        for stage in replica:
            for parameter in stage.parameters():
                assert np.shares_memory(parameter.data, arenas[0].data)
                assert np.shares_memory(parameter.grad, arena.grad)
    # Replica 0's gradients, and the serial walk's replicas 1..dp-1 share one more.
    gradients = distinct_buffers(arena.grad for arena in arenas)
    assert len(gradients) == (dp if trainer.engine.executor_kind == "process" else min(dp, 2))
    optimizer = trainer.optimizer
    assert optimizer.arenas is arenas
    trainable = arenas[0].num_trainable_elements
    assert optimizer._exp_avg_flat.shape == optimizer._exp_avg_sq_flat.shape == (trainable,)


class TestGradientCensus:
    """Replica 0's gradient buffer, plus one the serial walk's other replicas share."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("dp", [1, 2, 3, 4])
    def test_distinct_gradient_buffers_by_memory_overlap(self, dp, executor):
        """Built, not run: a process engine forks on its first iteration."""
        arenas = probe_trainer(probe_plan("optimus", dp, executor)).engine.arenas
        buffers = [arena.grad for arena in arenas]
        overlapping = {
            frozenset(j for j, other in enumerate(buffers) if np.shares_memory(buffer, other))
            for buffer in buffers
        }
        expected = min(dp, 2) if executor == "serial" else dp
        assert len(overlapping) == expected
        assert sum(buffer.nbytes for buffer in distinct_buffers(buffers)) == (
            expected * buffers[0].nbytes
        )

    @pytest.mark.parametrize("name", ["optimus", "baseline"])
    def test_every_replica_reads_the_synchronised_gradient_after_every_iteration(self, name):
        trainer = probe_trainer(probe_plan(name, 3))
        for _ in range(3):
            trainer.train_iteration()
            arenas = trainer.engine.arenas
            assert all(bitwise_equal(arena.grad, arenas[0].grad) for arena in arenas[1:])

    @pytest.mark.parametrize("dp", [3, 4])
    def test_after_dropping_replica_0_the_new_first_owns_its_buffer(self, dp):
        trainer = probe_trainer(probe_plan("optimus", dp))
        trainer.train_iteration()
        engine = trainer.engine
        trainer._degrade(0, iteration=1)  # engine.drop_replica(0), and the loader's share
        first, *others = engine.arenas
        assert not any(np.shares_memory(first.grad, other.grad) for other in others)
        assert len(distinct_buffers(arena.grad for arena in engine.arenas)) == 2
        trainer.train_iteration()
        assert trainer.weights_in_sync()
        assert all(bitwise_equal(arena.grad, first.grad) for arena in others)


class TestOneCopyPerGroup:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("dp", [1, 2, 4])
    def test_one_weight_buffer_and_one_moments_pair(self, dp, executor):
        before = shm_entries()
        with probe_trainer(probe_plan("optimus", dp, executor, guarded=True)) as trainer:
            assert_one_copy(trainer, dp)
            trainer.train_iteration()
            trainer.train_iteration()
            assert_one_copy(trainer, dp)
            # The recovery point copies no weights and no moments (nothing
            # writes them before the step) and no gradients (the next pipeline
            # run overwrites them): no array it holds is that large.
            point, moment = trainer.engine.recovery_point, trainer.optimizer.live_state()["exp_avg"]
            assert point.step_count == trainer.optimizer.live_state()["step_count"] - 1
            captured = tree_arrays(point.engine_state)
            assert captured and point.nbytes() == sum(array.nbytes for array in captured)
            assert all(array.size < moment.size <= trainer.engine.arenas[0].data.size for array in captured)
            # One weights segment for the group and one gradient segment per replica.
            assert len(shm_entries() - before) == ((1 + dp) if executor == "process" else 0)
        assert shm_entries() <= before
        assert_one_copy(trainer, dp)  # back on private memory, still one buffer
        assert trainer.weights_in_sync()

    def test_abandoned_executor_leaves_no_segment(self):
        before = shm_entries()
        trainer = probe_trainer(probe_plan("baseline", 2, "process"))
        trainer.train_iteration()
        executor = trainer.engine._process_executor
        processes = [worker.process for worker in executor.workers]
        assert len(shm_entries() - before) == 3
        del trainer, executor
        gc.collect()
        assert shm_entries() <= before
        assert all(not process.is_alive() for process in processes)

    def test_dropping_replica_0_keeps_the_weights_mapped(self):
        """The weights segment belongs to the group: replica 0's worker and
        gradient segment go, every survivor still reads and writes the weights."""
        before = shm_entries()
        trainer = probe_trainer(probe_plan("baseline", 3, "process"))
        engine, loader = trainer.engine, trainer.loader
        optimizer = engine.build_optimizer(lr=1e-3)
        with engine:
            optimizer.zero_grad()
            engine.run_iteration(loader.iteration_batches(0))
            optimizer.step()
            executor = engine._process_executor
            weights_name = executor.weights_segment.name
            dropped = engine.arenas[0]
            engine.drop_replica(0)
            assert len(shm_entries() - before) == 3
            assert weights_name.lstrip("/") in shm_entries()
            assert engine.arenas[0].data is executor.weights_segment.array
            # The dropped arena left onto private memory: nothing pins the segments.
            assert dropped.group == [dropped] and dropped not in engine.arenas
            assert not np.shares_memory(dropped.data, engine.arenas[0].data)
            assert optimizer.arena is engine.arenas[0]
            batches = loader.iteration_batches(1)
            optimizer.zero_grad()
            result = engine.run_iteration(batches[1:])
            stepped = engine.arenas[0].data.copy()
            optimizer.step()
            assert np.isfinite(result.mean_loss)
            assert not np.array_equal(engine.arenas[0].data, stepped)
        assert shm_entries() <= before


# ----------------------------------------------------------------------------------
# The two silent hazards, made loud
# ----------------------------------------------------------------------------------


def probe_engine(dp: int) -> ThreeDParallelEngine:
    return probe_trainer(probe_plan("baseline", dp)).engine


class TestOptimizerConstruction:
    def test_an_optimiser_per_arena_is_refused(self):
        """Stepping each would apply the update DP times to the one weight buffer."""
        engine = probe_engine(2)
        with pytest.raises(ValueError, match=r"ThreeDParallelEngine\.build_optimizer"):
            [FusedAdam(arena, lr=1e-3) for arena in engine.arenas]

    @pytest.mark.parametrize("index", [0, 1])
    def test_an_optimiser_over_one_arena_of_a_group_is_refused(self, index):
        """Replica 0's alone would never zero the other replicas' gradients; any
        other's steps weights it shares from a gradient buffer nobody else clears."""
        engine = probe_engine(2)
        with pytest.raises(ValueError, match="1 of the 2 arenas that share one weight buffer"):
            FusedAdam(engine.arenas[index])

    def test_the_group_gets_one_optimiser(self):
        engine = probe_engine(4)
        optimizer = engine.build_optimizer(lr=2e-3, weight_decay=0.01)
        assert optimizer.arenas is engine.arenas
        assert (optimizer.lr, optimizer.weight_decay) == (2e-3, 0.01)
        assert FusedAdam(list(engine.arenas)).arenas is engine.arenas
        # A group of one is a standalone arena: nothing to refuse at DP1.
        alone = probe_engine(1).arenas[0]
        assert FusedAdam(alone).arena is alone

    def test_zero_grad_clears_every_live_replica_and_step_reads_the_first(self):
        engine = probe_engine(3)
        optimizer = engine.build_optimizer(lr=1e-3)
        for arena in engine.arenas:
            arena.grad[...] = 1.0
        optimizer.zero_grad()
        assert all(not arena.grad.any() for arena in engine.arenas)

        engine.drop_replica(0)
        first, second = engine.arenas
        assert optimizer.arena is first
        first.grad[...] = 0.5
        second.grad[...] = 7.0  # never read: the step takes the first replica's gradient
        before = first.data.copy()
        expected = ParameterArena([Parameter(before[: first.num_trainable_elements].copy())])
        expected.grad[...] = 0.5
        FusedAdam(expected, lr=1e-3).step()
        optimizer.step()
        trainable = first.num_trainable_elements
        assert np.array_equal(first.data[:trainable], expected.data)
        assert second.data is first.data
        optimizer.zero_grad()
        assert not first.grad.any() and not second.grad.any()


class TestOneDrawPerGroup:
    """Replica 0 draws the group's weights; every other replica is built onto them."""

    def test_building_an_engine_draws_the_weights_as_often_as_at_dp_1(self, monkeypatch):
        draws = collections.Counter()
        for name in ("normal_init", "scaled_output_init"):

            def counted(*args, _name=name, _draw=getattr(init, name), **kwargs):
                draws[_name] += 1
                return _draw(*args, **kwargs)

            monkeypatch.setattr(init, name, counted)
        counts = {}
        for dp in (1, 2, 4):
            draws.clear()
            probe_engine(dp)
            counts[dp] = dict(draws)
        assert counts[1]["normal_init"] and counts[1]["scaled_output_init"]
        assert counts[2] == counts[1] and counts[4] == counts[1]

    def test_replicas_are_distinct_objects_over_the_groups_weights(self):
        engine = probe_engine(4)
        arenas = engine.arenas
        replicas = [engine.parameters(index) for index in range(4)]
        first = replicas[0]
        for index, (parameters, arena) in enumerate(zip(replicas, arenas)):
            assert [parameter.name for parameter in parameters] == [p.name for p in first]
            for parameter, original in zip(parameters, first):
                assert (parameter is original) == (index == 0)
                assert arena.span(parameter) == arenas[0].span(original)
                assert np.shares_memory(parameter.data, arenas[0].data)
                assert np.shares_memory(parameter.grad, arena.grad)
            # Replica 0's gradient buffer is its own; the others share one.
            assert np.shares_memory(arena.grad, arenas[min(index, 1)].grad)
            assert index == 0 or not np.shares_memory(arena.grad, arenas[0].grad)
        modules = [id(stage) for replica in engine.replicas for stage in replica]
        assert len(set(modules)) == len(modules)

    def test_a_dropped_replica_leaves_with_a_private_copy(self):
        engine = probe_engine(3)
        leaver = engine.parameters(1)
        engine.drop_replica(1)
        for parameter, survivor in zip(leaver, engine.parameters(0)):
            assert not np.shares_memory(parameter.data, engine.arenas[0].data)
            assert np.array_equal(parameter.data, survivor.data)


class TestReplicatedArenas:
    @staticmethod
    def replica(rng_seed: int = 0) -> list[Parameter]:
        rng = np.random.default_rng(rng_seed)
        frozen = Parameter(rng.standard_normal(3))
        frozen.requires_grad = False
        return [Parameter(rng.standard_normal((4, 3))), frozen, Parameter(rng.standard_normal(5))]

    def test_replicas_bind_onto_the_first_replicas_weights(self):
        replicas = [self.replica() for _ in range(3)]
        arenas = ParameterArena.replicated(replicas)
        assert len(arenas) == 3 and all(arena.group is arenas for arena in arenas)
        replicas[0][0].data[1, 2] = 42.0
        assert replicas[2][0].data[1, 2] == 42.0
        replicas[1][2].grad[0] = 3.0
        assert replicas[0][2].grad[0] == 0.0 and arenas[1].grad.any()

    def test_a_replica_that_differs_by_one_bit_is_refused(self):
        first, other = self.replica(), self.replica()
        other[2].data[4] = np.nextafter(other[2].data[4], np.inf)
        original = other[2].data
        arena = ParameterArena(first)
        with pytest.raises(ValueError, match="bit-identical"):
            ParameterArena(other, weights_of=arena)
        assert arena.group == [arena]
        assert other[2].data is original  # nothing was rebound

    def test_a_replica_with_another_layout_is_refused(self):
        arena = ParameterArena(self.replica())
        with pytest.raises(ValueError, match="identical parameter layouts"):
            ParameterArena(self.replica()[:2], weights_of=arena)

    def test_rebinding_the_weights_moves_the_whole_group_once(self):
        replicas = [self.replica() for _ in range(2)]
        arenas = ParameterArena.replicated(replicas)
        values = arenas[0].data.copy()
        moved = np.full_like(values, np.nan)
        arenas[1].rebind_storage(data=moved)
        assert arenas[0].data is moved and arenas[1].data is moved
        assert np.array_equal(moved, values)
        assert all(np.shares_memory(parameter.data, moved) for parameter in replicas[0])
        own_grad = arenas[0].grad
        arenas[1].rebind_storage(grad=np.empty_like(values))
        assert arenas[0].grad is own_grad  # gradients are per arena

    def test_leaving_the_group_takes_a_private_copy(self):
        arenas = ParameterArena.replicated([self.replica() for _ in range(3)])
        leaver = arenas[0]
        leaver.leave_group()
        assert leaver not in arenas and len(arenas) == 2 and leaver.group == [leaver]
        assert np.array_equal(leaver.data, arenas[0].data)
        assert not np.shares_memory(leaver.data, arenas[0].data)
        leaver.data[0] += 1.0
        assert leaver.parameters[0].data.flat[0] != arenas[0].data[0]

    def test_snapshot_copies_the_weights_once_per_group(self):
        arenas = ParameterArena.replicated([self.replica() for _ in range(2)])
        snapshots = [arena.snapshot() for arena in arenas]
        assert [sorted(snapshot) for snapshot in snapshots] == [["data"], []]
        assert np.array_equal(snapshots[0]["data"], arenas[1].data)
        assert not np.shares_memory(snapshots[0]["data"], arenas[0].data)


class TestRollbackOnSharedStorage:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_restore_puts_back_the_engine_state_and_zeroes_every_replicas_gradients(
        self, executor
    ):
        """Gradients are not captured (the next pipeline run overwrites them):
        a restore leaves every replica with the same, zero, gradient.  Weights
        and moments are not captured either (only the step writes them), so a
        restore leaves them as they are."""
        with probe_trainer(probe_plan("optimus", 3, executor, guarded=True)) as trainer:
            trainer.train_iteration()
            trainer.train_iteration()
            engine, point, optimizer = trainer.engine, trainer.engine.recovery_point, trainer.optimizer
            point.capture()
            state = tree_arrays(engine.mutable_state())
            weights = engine.arenas[0].data.copy()
            moments = [optimizer.live_state()[name].copy() for name in ("exp_avg", "exp_avg_sq")]
            assert all(arena.grad.any() for arena in engine.arenas)

            live = tree_arrays(engine.live_mutable_state())
            assert len(live) == len(state) > 0
            for array in live:
                array[...] = np.nan
            for arena in engine.arenas:
                arena.grad[...] = np.inf
            point.restore()

            for array, expected in zip(tree_arrays(engine.live_mutable_state()), state):
                assert bitwise_equal(array, expected)
            for arena in engine.arenas:
                assert np.array_equal(arena.data, weights)
                assert not arena.grad.any()
            for name, expected in zip(("exp_avg", "exp_avg_sq"), moments):
                assert np.array_equal(optimizer.live_state()[name], expected)

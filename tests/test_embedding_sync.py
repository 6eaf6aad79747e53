"""The embedding sync reduces in place, folding each replica in on its stages' walk threads.

``EmbeddingSynchronizer.synchronize`` reduces the tied embedding copies in
replica 0's copies' gradient buffers, one replica at a time.  Asserted here:

* **the bits** — over fused and two-step x dp {1, 2, 3, 4} x pp {1, 2, 4},
  every gradient and ``repr(log.records)`` equal the frozen stack, sum and
  copy path's (``tests/embedding_sync_oracle.py``), with copies wider than
  one tile;
* **the memory** — its tracemalloc peak stays below one copy's bytes;
* **the thread** — under the serial executor each replica's copies on stage
  0 and stage pp - 1 are folded in on those stages' walk threads, the second
  of a replica's two steps adds it to the fused sum, and the last replica's
  second step finishes the sync, at T in {1, 2, pp}, in every iteration, the
  ``serial`` kind's and DP 1's too;
* **the result** — serial equals process for weights, records and every
  checkpoint member, at T in {1, 2, pp}.
"""

from __future__ import annotations

import threading
import time
import tracemalloc

import numpy as np
import pytest

import embedding_sync_oracle
from test_concurrent_walk import MODEL, PLANS, allow_threads, loader_for
from repro.core.fused_embedding import EmbeddingSynchronizer
from repro.nn.gpt_stage import build_gpt_stages
from repro.nn.transformer import GPTModelConfig
from repro.parallel.collectives import REDUCE_TILE, CommunicationLog
from repro.parallel.engine import ThreeDParallelEngine
from repro.training.checkpoint import save_checkpoint
from repro.training.trainer import Pretrainer

#: Four layers for pp 4; each embedding copy (300 x 64) spans two tiles.
WIDE = GPTModelConfig(
    vocab_size=300, max_sequence_length=12, num_layers=4, hidden_size=64, num_heads=2
)


def replicas_with_gradients(dp: int, pp: int, seed: int) -> list[list]:
    """``dp`` replicas of ``WIDE`` whose every gradient holds random values of mixed scale."""
    rng = np.random.default_rng(seed)
    replicas = [build_gpt_stages(WIDE, pp, seed=0) for _ in range(dp)]
    for replica in replicas:
        for stage in replica:
            for parameter in stage.parameters():
                scale = 10.0 ** rng.integers(-3, 3)
                parameter.grad[...] = rng.standard_normal(parameter.grad.shape) * scale
    return replicas


def gradient_bytes(replicas) -> bytes:
    return b"".join(
        parameter.grad.tobytes()
        for replica in replicas
        for stage in replica
        for parameter in stage.parameters()
    )


class TestInPlaceReduce:
    def test_a_copy_spans_more_than_one_tile(self):
        assert WIDE.vocab_size * WIDE.hidden_size > REDUCE_TILE

    @pytest.mark.parametrize("pp", [1, 2, 4])
    @pytest.mark.parametrize("dp", [1, 2, 3, 4])
    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "two_step"])
    def test_gradients_and_records_equal_the_stacked_path(self, fused, dp, pp):
        expected, actual = (replicas_with_gradients(dp, pp, seed=10 * dp + pp) for _ in range(2))
        expected_log, actual_log = CommunicationLog(), CommunicationLog()
        embedding_sync_oracle.synchronize(expected, expected_log, fused)
        EmbeddingSynchronizer(actual, log=actual_log, fused=fused).synchronize()
        assert gradient_bytes(actual) == gradient_bytes(expected)
        assert repr(actual_log.records) == repr(expected_log.records)

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "two_step"])
    def test_the_peak_stays_below_one_copy(self, fused):
        replicas = replicas_with_gradients(4, 2, seed=3)
        synchronizer = EmbeddingSynchronizer(replicas, fused=fused)
        copy_bytes = replicas[0][0].embedding_parameters()[0].grad.nbytes
        tracemalloc.start()
        try:
            synchronizer.synchronize()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < copy_bytes


def record_sync_steps(monkeypatch, engine: ThreeDParallelEngine, slow_stage: int | None):
    """Per iteration, each sync step's ``(replica, stage, thread)`` and the thread that finished it.

    ``slow_stage``'s thread sleeps after poisoning the last replica's faults
    there, so the other stage's last step comes first, deterministically.
    """
    steps: list[list[tuple]] = []
    finished: list[list[str]] = []
    synchronizer = engine.embedding_sync
    synchronize, finish = synchronizer.synchronize, synchronizer._finish
    corrupt = engine._corrupt_gradients
    last_replica = engine.data_parallel_degree - 1

    def recording(replica=None, stage=None) -> None:
        steps[-1].append((replica, stage, threading.current_thread().name))
        synchronize(replica, stage)

    def finishing() -> None:
        finished[-1].append(threading.current_thread().name)
        finish()

    def late(replica: int, stage: int):
        applied = corrupt(replica, stage)
        if (replica, stage) == (last_replica, slow_stage):
            time.sleep(0.1)
        return applied

    def iteration() -> None:
        steps.append([])
        finished.append([])

    monkeypatch.setattr(synchronizer, "synchronize", recording)
    monkeypatch.setattr(synchronizer, "_finish", finishing)
    monkeypatch.setattr(engine, "_corrupt_gradients", late)
    return steps, finished, iteration


def walk_thread(stage: int, threads: int, pp: int) -> str:
    block = stage * threads // pp
    return threading.current_thread().name if block == 0 else f"pipeline-walk-{block}"


class TestWhereTheSyncRuns:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("first", ["stage_0", "last_stage"])
    def test_the_second_owner_to_fold_the_last_replica_finishes_it(
        self, monkeypatch, threads, first
    ):
        allow_threads(monkeypatch, threads)
        plan = PLANS["cb_fe_sc"]().with_topology(pp=4, dp=3, micro_batches=2)
        engine = ThreeDParallelEngine(MODEL, plan, seed=5)
        slow = 3 if first == "stage_0" else 0
        steps, finished, iteration = record_sync_steps(monkeypatch, engine, slow)
        loader = loader_for(plan)
        for index in range(3):
            iteration()
            assert engine.run_iteration(loader.iteration_batches(index)).threads == threads
        # Every iteration alike: one step per replica and stage, each on its
        # stage's thread, in replica order on each.
        expected = [
            (replica, stage, walk_thread(stage, threads, 4))
            for replica in range(3)
            for stage in (0, 3)
        ]
        for iteration_steps in steps:
            assert sorted(iteration_steps) == expected
            for stage in (0, 3):
                assert [r for r, s, _ in iteration_steps if s == stage] == [0, 1, 2]
        # The slow stage's thread is second — unless stage pp - 1 shares its
        # thread with stage pp - 2: then its fold comes before the B pass
        # stage 0's last write waits for, whichever thread sleeps.
        later = walk_thread(slow if threads == 4 else 0, threads, 4)
        assert finished == [[later]] * 3

    @pytest.mark.parametrize(
        ("kind", "dp"), [("serial", 2), ("1f1b", 1)], ids=["serial_kind", "dp1"]
    )
    def test_the_serial_kind_and_dp1_fold_in_the_walk_too(self, monkeypatch, kind, dp):
        allow_threads(monkeypatch, 2)
        plan = (
            PLANS["cb_fe_sc"]()
            .with_topology(pp=2, dp=dp, micro_batches=2)
            .with_schedule(kind=kind)
        )
        engine = ThreeDParallelEngine(MODEL, plan, seed=5)
        steps, finished, iteration = record_sync_steps(monkeypatch, engine, slow_stage=0)
        loader = loader_for(plan)
        for index in range(2):
            iteration()
            assert engine.run_iteration(loader.iteration_batches(index)).threads == 2
        caller = threading.current_thread().name
        expected = [
            (replica, stage, caller if stage == 0 else "pipeline-walk-1")
            for replica in range(dp)
            for stage in (0, 1)
        ]
        assert [sorted(iteration_steps) for iteration_steps in steps] == [expected] * 2
        assert finished == [[caller]] * 2


def trained(monkeypatch, tmp_path, name: str, executor: str, threads: int):
    """Weights, records and checkpoint members after three iterations."""
    allow_threads(monkeypatch, threads)
    plan = (
        PLANS[name]().with_topology(pp=4, dp=2, micro_batches=2).with_executor(executor)
    )
    with Pretrainer(MODEL, loader_for(plan), plan, seed=5) as trainer:
        for _ in range(3):
            trainer.train_iteration()
        path = save_checkpoint(trainer, tmp_path / f"{name}-{executor}-{threads}.npz")
        weights = trainer.engine.arenas[0].data.tobytes()
        records = repr(trainer.engine.log.records)
    with np.load(path) as archive:
        members = {member: archive[member].tobytes() for member in archive.files}
    return weights, records, members


class TestSerialEqualsProcess:
    @pytest.mark.parametrize("name", ["baseline", "cb_fe_sc", "topk_pp_qsgd_dp"])
    def test_weights_records_and_checkpoint_members(self, monkeypatch, tmp_path, name):
        """Fused (``cb_fe_sc``) and two-step embedding syncs, in the walk at T = 2 and pp."""
        expected = trained(monkeypatch, tmp_path, name, "process", 1)
        for threads in (1, 2, 4):
            assert trained(monkeypatch, tmp_path, name, "serial", threads) == expected

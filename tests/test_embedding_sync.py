"""The embedding sync reduces in place, and runs on the walk thread that drains second.

``EmbeddingSynchronizer.synchronize`` reduces the tied embedding copies tile
by tile in their own gradient buffers.  Asserted here:

* **the bits** — over fused and two-step x dp {1, 2, 3, 4} x pp {1, 2, 4},
  every gradient and ``repr(log.records)`` equal the frozen stack, sum and
  copy path's (``tests/embedding_sync_oracle.py``), with copies wider than
  one tile;
* **the memory** — its tracemalloc peak stays below one copy's bytes;
* **the thread** — under the serial executor, where the DP reduce runs in
  the walk, the sync runs on the second of the threads owning stage 0 and
  stage pp - 1 to drain and poison its faults, at T in {1, 2, pp}; the first
  sync, the ``serial`` kind's and DP 1's run on the caller after the walk;
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


def record_sync_threads(monkeypatch, engine: ThreeDParallelEngine, slow_block: int | None):
    """Per iteration, the threads the embedding sync ran on; ``slow_block`` drains late.

    The walk thread of ``slow_block`` sleeps after poisoning its faults, so
    the other owner of the embedding copies is first, deterministically.
    """
    ran_on: list[list[str]] = []
    synchronize = engine.embedding_sync.synchronize
    corrupt = engine._corrupt_gradients

    def recording() -> None:
        ran_on[-1].append(threading.current_thread().name)
        synchronize()

    def late(block: int = 0, threads: int = 1):
        applied = corrupt(block, threads)
        if block == slow_block:
            time.sleep(0.1)
        return applied

    monkeypatch.setattr(engine.embedding_sync, "synchronize", recording)
    monkeypatch.setattr(engine, "_corrupt_gradients", late)
    return ran_on


class TestWhereTheSyncRuns:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("first", ["stage_0", "last_stage"])
    def test_the_second_owner_to_drain_runs_it(self, monkeypatch, threads, first):
        allow_threads(monkeypatch, threads)
        plan = PLANS["cb_fe_sc"]().with_topology(pp=4, dp=2, micro_batches=2)
        engine = ThreeDParallelEngine(MODEL, plan, seed=5)
        last = threads - 1  # the block of stage pp - 1
        slow = last if first == "stage_0" else 0
        ran_on = record_sync_threads(monkeypatch, engine, slow_block=slow if threads > 1 else None)
        loader = loader_for(plan)
        for iteration in range(3):
            ran_on.append([])
            assert engine.run_iteration(loader.iteration_batches(iteration)).threads == threads
        caller = threading.current_thread().name
        later = caller if slow == 0 or threads == 1 else f"pipeline-walk-{last}"
        # The first sync runs after the walk, on the caller.
        assert ran_on == [[caller], [later], [later]]

    @pytest.mark.parametrize(
        ("kind", "dp"), [("serial", 2), ("1f1b", 1)], ids=["serial_kind", "dp1"]
    )
    def test_after_the_walk_it_runs_on_the_caller(self, monkeypatch, kind, dp):
        """Where the DP reduce is not in the walk, neither is the embedding sync."""
        allow_threads(monkeypatch, 2)
        plan = (
            PLANS["cb_fe_sc"]()
            .with_topology(pp=2, dp=dp, micro_batches=2)
            .with_schedule(kind=kind)
        )
        engine = ThreeDParallelEngine(MODEL, plan, seed=5)
        ran_on = record_sync_threads(monkeypatch, engine, slow_block=0)
        loader = loader_for(plan)
        for iteration in range(2):
            ran_on.append([])
            assert engine.run_iteration(loader.iteration_batches(iteration)).threads == 2
        caller = threading.current_thread().name
        assert ran_on == [[caller], [caller]]


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

"""The gradient lifecycle: a pipeline run writes every gradient; nobody clears it first.

``PipelineParallelEngine.run_iteration`` opens a
:func:`~repro.tensor.parameter.gradient_epoch` over its stages' parameters:
each parameter's first gradient write in the run assigns into its buffer,
later writes add, and a parameter nothing wrote is zero-filled when the run
ends.  Asserted here:

* **prior-content independence** — gradient buffers filled with NaN before a
  run give the same synchronised gradients, and the same weights after several
  trainer iterations, as zeroed ones: serial and process executors, the
  fused-backward and split-backward schedules, uncompressed, the paper's stack
  and the qsgd + top-k codecs;
* **epoch edges** — an unwritten parameter reads exact zeros after a run,
  outside a run every ``accumulate_*`` adds, the first write inside one is
  bit-identical to adding into zeros, and back-to-back runs each produce one
  iteration's gradient.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data import LanguageModelingDataLoader, SyntheticCorpus, SyntheticCorpusConfig
from repro.models.gpt_configs import functional_config
from repro.nn.gpt_stage import build_gpt_stages
from repro.nn.transformer import GPTModelConfig
from repro.parallel.pipeline_engine import PipelineParallelEngine
from repro.plan import Boundary, ParallelPlan
from repro.tensor.parameter import Parameter, gradient_epoch
from repro.training.trainer import Pretrainer

PLANS = {
    "baseline": lambda: ParallelPlan.preset("baseline"),
    "cb_fe_sc": lambda: ParallelPlan.preset("cb_fe_sc").proxy_scaled(4),
    "qsgd_topk": lambda: ParallelPlan()
    .with_boundary(Boundary.DP, codec="qsgd", bits=4, stage_fraction=1.0, min_elements=0)
    .with_boundary(Boundary.PP, codec="topk", fraction=0.1),
}


def probe_trainer(name: str, kind: str, executor: str) -> Pretrainer:
    plan = (
        PLANS[name]()
        .with_topology(pp=2, dp=2, micro_batches=2)
        .with_schedule(kind=kind)
        .with_executor(executor)
    )
    model = functional_config(
        vocab_size=64, sequence_length=16, num_layers=2, hidden_size=16, num_heads=2
    )
    corpus = SyntheticCorpus(SyntheticCorpusConfig(vocab_size=64, seed=321))
    loader = LanguageModelingDataLoader(
        corpus, sequence_length=12, micro_batch_size=2, num_micro_batches=2,
        data_parallel_degree=2,
    )
    return Pretrainer(model, loader, plan=plan, seed=5)


def poison_gradients(trainer: Pretrainer) -> None:
    for arena in trainer.engine.arenas:
        arena.grad.fill(np.nan)


def synced_then_trained(name: str, kind: str, executor: str, poison: bool):
    """Each replica's synchronised gradients after one engine iteration, then the
    weights' SHA-256 after three trainer iterations — poisoned before every run
    when ``poison``."""
    with probe_trainer(name, kind, executor) as trainer:
        engine = trainer.engine
        engine.zero_grad()
        if poison:
            poison_gradients(trainer)
        engine.run_iteration(trainer.loader.iteration_batches(0))
        synced = [arena.grad.copy() for arena in engine.arenas]
        if poison:
            run = engine.run_iteration

            def poisoned_run(batches):
                poison_gradients(trainer)
                return run(batches)

            engine.run_iteration = poisoned_run
        for _ in range(3):
            trainer.train_iteration()
        return synced, hashlib.sha256(engine.arenas[0].data.tobytes()).hexdigest()


class TestPriorContentIndependence:
    @pytest.mark.parametrize("name", sorted(PLANS))
    @pytest.mark.parametrize("kind", ["1f1b", "zb1", "auto"])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_nan_filled_buffers_give_the_clean_runs_bits(self, executor, kind, name):
        clean_synced, clean_weights = synced_then_trained(name, kind, executor, poison=False)
        synced, weights = synced_then_trained(name, kind, executor, poison=True)
        for clean, poisoned in zip(clean_synced, synced, strict=True):
            assert np.array_equal(clean.view(np.uint64), poisoned.view(np.uint64))
        assert weights == clean_weights


TINY = GPTModelConfig(
    vocab_size=32, max_sequence_length=12, num_layers=2, hidden_size=16, num_heads=2
)


def tiny_batches(rng, count: int = 3):
    return [
        tuple(rng.integers(0, TINY.vocab_size, size=(2, 8)) for _ in range(2))
        for _ in range(count)
    ]


class TestEpochEdges:
    @pytest.mark.parametrize("kind", ["1f1b", "zb1"])
    def test_a_parameter_no_op_writes_reads_exact_zeros(self, rng, kind):
        stages = build_gpt_stages(TINY, 2, seed=0)
        unused = stages[1].register_parameter("unused", Parameter(np.ones((3, 4))))
        unused.grad.fill(np.nan)
        engine = PipelineParallelEngine(stages, schedule_kind=kind)
        engine.run_iteration(tiny_batches(rng))
        assert unused.grad.view(np.uint64).tolist() == np.zeros((3, 4)).view(np.uint64).tolist()
        assert not unused.grad_stale

    @pytest.mark.parametrize("kind", ["1f1b", "zb1"])
    def test_back_to_back_runs_each_produce_one_iterations_gradient(self, rng, kind):
        batches = tiny_batches(rng)
        engine = PipelineParallelEngine(build_gpt_stages(TINY, 2, seed=0), schedule_kind=kind)
        engine.run_iteration(batches)
        first = [parameter.grad.copy() for parameter in engine.parameters()]
        engine.run_iteration(batches)  # no zero_grad in between
        for parameter, expected in zip(engine.parameters(), first):
            assert np.array_equal(parameter.grad, expected), parameter.name

    def test_outside_a_run_every_write_adds(self, rng):
        parameter = Parameter(np.zeros((4, 3)))
        parameter.grad[...] = 1.0
        left, right = rng.standard_normal((4, 5)), rng.standard_normal((5, 3))
        rows, indices = rng.standard_normal((6, 3)), np.array([0, 2, 2, 3, 0, 1])
        expected = np.ones((4, 3))
        parameter.accumulate_grad(left @ right)
        expected += left @ right
        parameter.accumulate_matmul(left, right)
        expected += left @ right
        parameter.accumulate_sum(rows[:4].reshape(1, 4, 3).repeat(2, axis=0))
        expected += rows[:4] * 2
        scattered = np.zeros((4, 3))
        np.add.at(scattered, indices, rows)
        parameter.accumulate_rows(indices, rows)
        expected += scattered
        assert np.array_equal(parameter.grad, expected)

    @pytest.mark.parametrize("write", ["grad", "matmul", "sum", "rows"])
    def test_inside_an_epoch_the_first_write_is_adding_into_zeros(self, rng, write):
        """Bit for bit what the zero-then-add path produced, poisoned buffer or not."""
        left, right = rng.standard_normal((7, 4)), rng.standard_normal((7, 3))
        indices = np.array([1, 3, 3, 0, 1, 2, 3])

        def contribution(parameter, scale):
            if write == "grad":
                parameter.accumulate_grad((left.T @ right) * scale)
            elif write == "matmul":
                parameter.accumulate_matmul(left.T * scale, right)
            elif write == "sum":
                parameter.accumulate_sum(right[:, None, :].repeat(4, axis=1) * scale)
            else:
                parameter.accumulate_rows(indices, right * scale)

        reference, written = Parameter(np.zeros((4, 3))), Parameter(np.zeros((4, 3)))
        for scale in (1.0, 0.5):
            contribution(reference, scale)
        written.grad.fill(np.nan)
        with gradient_epoch([written]):
            for scale in (1.0, 0.5):
                contribution(written, scale)
        assert written.grad.view(np.uint64).tolist() == reference.grad.view(np.uint64).tolist()

    def test_an_interrupted_epoch_still_closes(self):
        written, unwritten = Parameter(np.zeros(2)), Parameter(np.zeros(2))
        unwritten.grad.fill(np.nan)
        with pytest.raises(RuntimeError), gradient_epoch([written, unwritten]):
            written.accumulate_grad(np.ones(2))
            raise RuntimeError("a stage failed mid-run")
        assert not written.grad_stale and not unwritten.grad_stale
        assert np.array_equal(written.grad, np.ones(2))
        assert np.array_equal(unwritten.grad, np.zeros(2))
        written.accumulate_grad(np.ones(2))  # outside the epoch again: adds
        assert np.array_equal(written.grad, np.full(2, 2.0))

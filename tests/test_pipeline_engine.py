"""Tests for the functional pipeline engine and the inter-stage channel."""

from __future__ import annotations

import numpy as np
import pytest

from phase_loop_oracle import run_phase_loop

from repro.core.compressed_backprop import CompressedBackpropagation
from repro.nn.gpt_stage import build_gpt_stages
from repro.parallel import pipeline_engine
from repro.parallel.collectives import CommunicationLog
from repro.parallel.engine import axis_report
from repro.parallel.pipeline_engine import InterStageChannel, PipelineParallelEngine
from repro.parallel.pipeline_schedule import count_in_flight_micro_batches, replay_ops
from repro.parallel.scheduler import stage_memory_profile
from repro.plan import SCHEDULE_KINDS


def make_engine(config, num_stages=2, seed=0, backward_hook=None, log=None):
    stages = build_gpt_stages(config, num_stages, seed=seed)
    channel = InterStageChannel(log=log, backward_hook=backward_hook)
    return PipelineParallelEngine(stages, channel)


def make_batch(config, rng, batch=2, seq=8):
    tokens = rng.integers(0, config.vocab_size, size=(batch, seq))
    targets = rng.integers(0, config.vocab_size, size=(batch, seq))
    return tokens, targets


class TestEngineBasics:
    def test_requires_at_least_one_micro_batch(self, tiny_config):
        engine = make_engine(tiny_config)
        with pytest.raises(ValueError):
            engine.run_iteration([])

    def test_stage_order_validated(self, tiny_config):
        stages = build_gpt_stages(tiny_config, 2, seed=0)
        with pytest.raises(ValueError):
            PipelineParallelEngine(list(reversed(stages)))

    def test_parameters_cover_all_stages(self, tiny_config):
        engine = make_engine(tiny_config, num_stages=2)
        stage_param_count = sum(
            len(stage.parameters()) for stage in build_gpt_stages(tiny_config, 2, seed=0)
        )
        assert len(engine.parameters()) == stage_param_count

    def test_zero_grad_clears_everything(self, tiny_config, rng):
        engine = make_engine(tiny_config)
        tokens, targets = make_batch(tiny_config, rng)
        engine.run_iteration([(tokens, targets)])
        assert any(np.any(p.grad != 0) for p in engine.parameters())
        engine.zero_grad()
        assert all(np.all(p.grad == 0) for p in engine.parameters())

    def test_evaluate_loss_does_not_touch_gradients(self, tiny_config, rng):
        engine = make_engine(tiny_config)
        tokens, targets = make_batch(tiny_config, rng)
        loss = engine.evaluate_loss(tokens, targets)
        assert loss > 0
        assert all(np.all(p.grad == 0) for p in engine.parameters())


class TestTrafficAccounting:
    def test_forward_and_backward_bytes_counted(self, tiny_config, rng):
        log = CommunicationLog()
        engine = make_engine(tiny_config, num_stages=2, log=log)
        tokens, targets = make_batch(tiny_config, rng, batch=2, seq=8)
        engine.run_iteration([(tokens, targets), (tokens, targets)])
        # 2 micro-batches x 1 boundary x (batch*seq*hidden) elements x 2 bytes.
        expected = 2 * 1 * 2 * 8 * tiny_config.hidden_size * 2
        wire = axis_report(log.records)[0]
        assert wire["pipeline_forward"] == expected
        assert wire["pipeline_backward"] == expected
        assert log.count(category="inter_stage_forward") == 2
        assert log.count(category="inter_stage_backward") == 2

    def test_single_stage_has_no_interstage_traffic(self, tiny_config, rng):
        log = CommunicationLog()
        engine = make_engine(tiny_config, num_stages=1, log=log)
        tokens, targets = make_batch(tiny_config, rng)
        engine.run_iteration([(tokens, targets)])
        assert log.count() == 0

    @pytest.mark.parametrize("schedule_kind", ["1f1b", "zb1"])
    def test_each_iteration_appends_its_records_to_the_run_long_log(
        self, tiny_config, rng, schedule_kind
    ):
        """The log is run-long and shared: an iteration appends its 4 records
        and drops nothing, and its slice reports exactly its bytes."""
        log = CommunicationLog()
        engine = PipelineParallelEngine(
            build_gpt_stages(tiny_config, 2, seed=0),
            InterStageChannel(log=log),
            schedule_kind=schedule_kind,
        )
        batches = [make_batch(tiny_config, rng, batch=2, seq=8) for _ in range(2)]
        expected = 2 * 1 * 2 * 8 * tiny_config.hidden_size * 2
        for iteration in range(4):
            engine.run_iteration(batches)
            assert len(log.records) == 4 * (iteration + 1)
            wire = axis_report(log.records[4 * iteration :])[0]
            assert wire["pipeline_forward"] == wire["pipeline_backward"] == expected


class TestOpListWalk:
    """Every schedule kind walks its op lists; the frozen phase loop is the oracle."""

    # Four layers so pipelines up to four stages are expressible.
    from repro.nn.transformer import GPTModelConfig as _Config

    DEEP_CONFIG = _Config(
        vocab_size=32, max_sequence_length=12, num_layers=4, hidden_size=16, num_heads=2
    )

    @classmethod
    def _walk_and_oracle(cls, kind, num_stages, backward_hooks=(None, None)):
        """Two engines with equal weights: the walk under test and the oracle's."""
        return [
            PipelineParallelEngine(
                build_gpt_stages(cls.DEEP_CONFIG, num_stages, seed=5),
                InterStageChannel(backward_hook=hook),
                schedule_kind=kind,
            )
            for hook in backward_hooks
        ]

    @staticmethod
    def _assert_bit_identical(walk, walk_result, oracle, oracle_result):
        assert walk_result == oracle_result  # loss and micro-batch count
        # The same transfers, each with the same bytes: the walk logs them in
        # its own order, the phase loop every forward first.
        walk_records, oracle_records = (
            sorted(engine.channel.log.records, key=repr) for engine in (walk, oracle)
        )
        assert walk_records == oracle_records
        for walk_param, oracle_param in zip(walk.parameters(), oracle.parameters()):
            assert np.array_equal(walk_param.grad, oracle_param.grad), walk_param.name

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    @pytest.mark.parametrize("num_stages", [1, 2, 3, 4])
    @pytest.mark.parametrize("num_micro", [1, 2, 5])
    def test_walk_is_bit_identical_to_the_phase_loop(self, rng, kind, num_stages, num_micro):
        """Covers micro_batches < pp and the pp == 1 degenerate case."""
        batches = [make_batch(self.DEEP_CONFIG, rng) for _ in range(num_micro)]
        walk, oracle = self._walk_and_oracle(kind, num_stages)
        self._assert_bit_identical(
            walk, walk.run_iteration(batches), oracle, run_phase_loop(oracle, batches)
        )

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    @pytest.mark.parametrize("num_stages", [3, 4])
    def test_compressed_backprop_in_flight_is_bit_identical_to_the_phase_loop(
        self, rng, kind, num_stages
    ):
        """Every transfer compressed with LEP on: under 1F1B a stage sends
        B(mb+1) before its upstream consumes B(mb), so each compressed transfer
        is held in flight — and the residual still rides micro-batch order."""
        hooks = [
            CompressedBackpropagation(
                num_stages, rank=2, lazy_error_propagation=True, epilogue_only=False
            )
            for _ in range(2)
        ]
        walk, oracle = self._walk_and_oracle(kind, num_stages, hooks)
        for _ in range(2):  # the second iteration starts from carried residuals
            batches = [make_batch(self.DEEP_CONFIG, rng) for _ in range(5)]
            # The frozen loop adds into the buffers; the walk writes them afresh.
            oracle.zero_grad()
            self._assert_bit_identical(
                walk, walk.run_iteration(batches), oracle, run_phase_loop(oracle, batches)
            )
        records = [
            record
            for record in walk.channel.log.records
            if record.category == "inter_stage_backward"
        ]
        assert records and all(record.compressed for record in records)
        assert all(record.payload_bytes < record.original_bytes for record in records)

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    @pytest.mark.parametrize("num_stages", [1, 2, 3, 4])
    @pytest.mark.parametrize("num_micro", [1, 2, 5])
    def test_live_activations_per_stage_are_the_schedules(
        self, rng, monkeypatch, kind, num_stages, num_micro
    ):
        """A stage holds a forward's activations until its B (or fused backward)
        pass: the peak per stage is the walked op list's in-flight count."""
        walked = []

        def recording_replay(schedule, durations, handoff):
            walked.append(schedule)
            return replay_ops(schedule, durations, handoff)

        monkeypatch.setattr(pipeline_engine, "replay_ops", recording_replay)
        engine = PipelineParallelEngine(
            build_gpt_stages(self.DEEP_CONFIG, num_stages, seed=5), schedule_kind=kind
        )
        live = [0] * num_stages
        peak = [0] * num_stages
        for index, stage in enumerate(engine.stages):
            # Instance attributes: the fused ``backward`` reaches its B pass
            # through ``self.backward_input``, so both spellings are counted.
            def forward(*args, _forward=stage.forward, _index=index, **kwargs):
                live[_index] += 1
                peak[_index] = max(peak[_index], live[_index])
                return _forward(*args, **kwargs)

            def backward_input(*args, _backward_input=stage.backward_input, _index=index, **kwargs):
                live[_index] -= 1
                return _backward_input(*args, **kwargs)

            stage.forward = forward
            stage.backward_input = backward_input
        engine.run_iteration([make_batch(self.DEEP_CONFIG, rng) for _ in range(num_micro)])
        assert live == [0] * num_stages
        if kind in ("1f1b", "serial"):
            assert peak == [
                count_in_flight_micro_batches(stage, num_stages, num_micro)
                for stage in range(num_stages)
            ]
        (schedule,) = walked
        assert peak == [stage_memory_profile(ops)[0] for ops in schedule]

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_backward_transfers_stay_in_micro_batch_order_per_boundary(self, rng, kind):
        """LEP residuals ride micro-batch order per boundary — every kind must keep it."""
        order: dict[int, list[int]] = {}

        def hook(grad, boundary, micro_batch, num_micro_batches):
            order.setdefault(boundary, []).append(micro_batch)
            return grad, int(grad.size * 2), False

        engine = PipelineParallelEngine(
            build_gpt_stages(self.DEEP_CONFIG, 4, seed=0),
            InterStageChannel(backward_hook=hook),
            schedule_kind=kind,
        )
        batches = [make_batch(self.DEEP_CONFIG, rng) for _ in range(5)]
        engine.run_iteration(batches)
        assert order == {boundary: [0, 1, 2, 3, 4] for boundary in range(3)}

    def test_zb1_caches_are_released(self, tiny_config, rng):
        engine = PipelineParallelEngine(
            build_gpt_stages(tiny_config, 2, seed=0),
            InterStageChannel(),
            schedule_kind="zb1",
        )
        engine.run_iteration([make_batch(tiny_config, rng) for _ in range(3)])
        # The replay frees every per-micro-batch cache after its W pass; the
        # second iteration must therefore start from a clean slate.
        result = engine.run_iteration([make_batch(tiny_config, rng) for _ in range(3)])
        assert result.num_micro_batches == 3

    def test_unknown_schedule_kind_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="schedule kind"):
            PipelineParallelEngine(
                build_gpt_stages(tiny_config, 2, seed=0), schedule_kind="gpipe"
            )


class TestBackwardHook:
    def test_hook_sees_every_backward_transfer(self, rng):
        from repro.nn.transformer import GPTModelConfig

        config = GPTModelConfig(
            vocab_size=32, max_sequence_length=12, num_layers=3, hidden_size=16, num_heads=2
        )
        calls = []

        def hook(grad, boundary, micro_batch, num_micro_batches):
            calls.append((boundary, micro_batch, num_micro_batches))
            return grad, int(grad.size * 2), False

        engine = make_engine(config, num_stages=3, backward_hook=hook)
        tokens, targets = make_batch(config, rng)
        engine.run_iteration([(tokens, targets), (tokens, targets)])
        # 2 boundaries x 2 micro-batches.
        assert len(calls) == 4
        assert {call[0] for call in calls} == {0, 1}
        assert all(call[2] == 2 for call in calls)

    def test_hook_payload_bytes_reflected_in_log(self, tiny_config, rng):
        log = CommunicationLog()

        def hook(grad, boundary, micro_batch, num_micro_batches):
            return grad, 42, True

        engine = make_engine(tiny_config, num_stages=2, backward_hook=hook, log=log)
        tokens, targets = make_batch(tiny_config, rng)
        engine.run_iteration([(tokens, targets)])
        backward_records = [r for r in log.records if r.category == "inter_stage_backward"]
        assert all(record.payload_bytes == 42 and record.compressed for record in backward_records)

    def test_identity_hook_preserves_gradients(self, tiny_config, rng):
        """A pass-through hook must not change the training math."""
        tokens, targets = make_batch(tiny_config, rng)

        reference = make_engine(tiny_config, num_stages=2, seed=5)
        reference.run_iteration([(tokens, targets)])

        def identity_hook(grad, boundary, micro_batch, num_micro_batches):
            return grad, int(grad.size * 2), False

        hooked = make_engine(tiny_config, num_stages=2, seed=5, backward_hook=identity_hook)
        hooked.run_iteration([(tokens, targets)])

        for ref_param, hook_param in zip(reference.parameters(), hooked.parameters()):
            assert np.allclose(ref_param.grad, hook_param.grad, atol=1e-12)

    def test_lossy_hook_changes_gradients_of_early_stages_only_at_boundary(self, tiny_config, rng):
        """Zeroing the boundary gradient must zero the upstream stage's gradients."""

        def zero_hook(grad, boundary, micro_batch, num_micro_batches):
            return np.zeros_like(grad), 0, True

        engine = make_engine(tiny_config, num_stages=2, backward_hook=zero_hook)
        tokens, targets = make_batch(tiny_config, rng)
        engine.run_iteration([(tokens, targets)])
        stage0, stage1 = engine.stages
        assert all(np.allclose(p.grad, 0) for p in stage0.layers[0].parameters())
        assert any(np.any(p.grad != 0) for p in stage1.parameters())

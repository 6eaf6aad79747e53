"""Tests for compressed backpropagation: policy, lazy error propagation, diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import PowerSGDCompressor
from repro.core.compressed_backprop import CompressedBackpropagation
from repro.nn.gpt_stage import build_gpt_stages
from repro.parallel.engine import axis_report
from repro.parallel.pipeline_engine import InterStageChannel, PipelineParallelEngine


class TestPolicy:
    def test_epilogue_only_policy(self):
        cb = CompressedBackpropagation(num_stages=4, epilogue_only=True)
        # Receiving stage 0, 8 micro-batches: only the last 3 are compressed.
        assert not cb.should_compress(boundary=0, micro_batch=0, num_micro_batches=8)
        assert cb.should_compress(boundary=0, micro_batch=7, num_micro_batches=8)
        assert cb.should_compress(boundary=0, micro_batch=5, num_micro_batches=8)
        assert not cb.should_compress(boundary=2, micro_batch=5, num_micro_batches=8)

    def test_naive_policy_compresses_everything(self):
        cb = CompressedBackpropagation(num_stages=4, epilogue_only=False)
        assert all(
            cb.should_compress(boundary=b, micro_batch=m, num_micro_batches=8)
            for b in range(3)
            for m in range(8)
        )

    def test_invalid_configuration_raises(self):
        with pytest.raises(ValueError):
            CompressedBackpropagation(num_stages=0)
        with pytest.raises(ValueError):
            CompressedBackpropagation(num_stages=2, compressor="unknown")


class TestHookBehaviour:
    def test_uncompressed_transfer_passes_through(self, rng):
        cb = CompressedBackpropagation(num_stages=4, epilogue_only=True)
        gradient = rng.normal(size=(2, 4, 8))
        delivered, payload_bytes, compressed = cb(gradient, 0, 0, 8)
        assert np.array_equal(delivered, gradient)
        assert not compressed
        assert payload_bytes == gradient.size * 2

    def test_compressed_transfer_shrinks_payload(self, rng):
        cb = CompressedBackpropagation(num_stages=2, rank=2, epilogue_only=False)
        gradient = rng.normal(size=(4, 16, 32))
        delivered, payload_bytes, compressed = cb(gradient, 0, 0, 4)
        assert compressed
        assert payload_bytes < gradient.size * 2
        assert delivered.shape == gradient.shape

    def test_channel_records_and_summary(self, rng):
        """Every transfer is one channel record: its payload and its original bytes."""
        channel = InterStageChannel(
            backward_hook=CompressedBackpropagation(num_stages=4, rank=2, epilogue_only=True)
        )
        for micro_batch in range(8):
            channel.send_backward(rng.normal(size=(2, 8, 16)), 0, micro_batch, 8)
        records = channel.log.records
        assert len(records) == 8
        assert [record.compressed for record in records] == [False] * 5 + [True] * 3
        assert all(record.original_bytes == 2 * 8 * 16 * 2 for record in records)
        _, fractions, saved, _, _ = axis_report(records)
        assert fractions["pipeline_backward"] == 3 / 8
        assert 0 < saved["pipeline_backward"] < 1

    def test_empty_summary(self):
        _, fractions, saved, _, _ = axis_report(InterStageChannel().log.records)
        assert fractions["pipeline_backward"] == saved["pipeline_backward"] == 0.0

    def test_topk_variant(self, rng):
        cb = CompressedBackpropagation(
            num_stages=2, epilogue_only=False, compressor="topk", topk_fraction=0.05
        )
        gradient = rng.normal(size=(2, 8, 16))
        delivered, payload_bytes, compressed = cb(gradient, 0, 0, 2)
        assert compressed
        assert np.count_nonzero(delivered) <= int(0.05 * gradient.size) + 1

    def test_custom_compressor_instance(self, rng):
        cb = CompressedBackpropagation(
            num_stages=2,
            epilogue_only=False,
            compressor=PowerSGDCompressor(rank=1, min_compression_elements=0),
        )
        _, _, compressed = cb(rng.normal(size=(2, 8, 16)), 0, 0, 2)
        assert compressed

    def test_reset_clears_state(self, rng):
        cb = CompressedBackpropagation(num_stages=2, epilogue_only=False, collect_diagnostics=True)
        cb(rng.normal(size=(2, 8, 16)), 0, 0, 2)
        cb(rng.normal(size=(2, 8, 16)), 0, 1, 2)
        assert cb.diagnostics and cb.residual_memory_bytes() > 0
        cb.reset()
        assert not cb.diagnostics and cb.residual_memory_bytes() == 0


class TestLazyErrorPropagation:
    def test_residual_carried_to_next_micro_batch(self, rng):
        """The running sum of delivered gradients tracks the true sum (per boundary)."""
        cb = CompressedBackpropagation(num_stages=2, rank=1, epilogue_only=False)
        true_sum = np.zeros((4, 8, 16))
        delivered_sum = np.zeros((4, 8, 16))
        for micro_batch in range(12):
            gradient = rng.normal(size=(4, 8, 16))
            true_sum += gradient
            delivered, _, _ = cb(gradient, 0, micro_batch, 12)
            delivered_sum += delivered
        residual = cb.feedback.residual("boundary0").reshape(true_sum.shape[0] * true_sum.shape[1], -1)
        assert np.allclose(
            delivered_sum.reshape(residual.shape[0], -1) + residual,
            true_sum.reshape(residual.shape[0], -1),
            atol=1e-8,
        )

    def test_non_lep_keeps_no_residual(self, rng):
        cb = CompressedBackpropagation(
            num_stages=2, rank=1, epilogue_only=False, lazy_error_propagation=False
        )
        cb(rng.normal(size=(2, 8, 16)), 0, 0, 4)
        assert cb.residual_memory_bytes() == 0

    def test_lep_reduces_accumulated_gradient_error(self, rng):
        """Over a mini-batch, LEP yields a more accurate gradient sum than non-LEP."""
        shape = (4, 8, 16)
        gradients = [rng.normal(size=shape) for _ in range(16)]
        true_sum = np.sum(gradients, axis=0)

        def accumulated(lep: bool) -> np.ndarray:
            cb = CompressedBackpropagation(
                num_stages=2, rank=1, epilogue_only=False, lazy_error_propagation=lep
            )
            return np.sum(
                [cb(gradient, 0, index, 16)[0] for index, gradient in enumerate(gradients)], axis=0
            )

        error_lep = np.linalg.norm(accumulated(True) - true_sum)
        error_non_lep = np.linalg.norm(accumulated(False) - true_sum)
        assert error_lep < error_non_lep


class TestDiagnostics:
    def test_fig11_statistics_are_near_zero(self, rng):
        """Errors and activation differences are small-mean and near-orthogonal."""
        cb = CompressedBackpropagation(
            num_stages=2, rank=4, epilogue_only=False, collect_diagnostics=True
        )
        for micro_batch in range(10):
            cb(rng.normal(size=(4, 8, 32)), 0, micro_batch, 10)
        assert len(cb.diagnostics) == 9  # needs a previous tensor
        cosines = [abs(record.cosine) for record in cb.diagnostics]
        # On synthetic Gaussian tensors the statistic is noisier than on real
        # training gradients (Fig. 11), but it must stay far from +/-1.
        assert np.mean(cosines) < 0.6
        assert abs(np.mean([record.error_mean for record in cb.diagnostics])) < 0.05
        assert abs(np.mean([record.activation_diff_mean for record in cb.diagnostics])) < 0.05


class TestEndToEndQualityEffect:
    def test_lossless_when_rank_covers_tensor(self, tiny_config, rng):
        """With a rank at least the hidden size, CB is exact and gradients match."""
        tokens = rng.integers(0, tiny_config.vocab_size, size=(2, 8))
        targets = rng.integers(0, tiny_config.vocab_size, size=(2, 8))

        reference = PipelineParallelEngine(build_gpt_stages(tiny_config, 2, seed=1))
        reference.run_iteration([(tokens, targets)])

        cb = CompressedBackpropagation(
            num_stages=2, rank=tiny_config.hidden_size, epilogue_only=False
        )
        compressed_engine = PipelineParallelEngine(
            build_gpt_stages(tiny_config, 2, seed=1),
            InterStageChannel(backward_hook=cb),
        )
        compressed_engine.run_iteration([(tokens, targets)])

        for ref_param, cmp_param in zip(reference.parameters(), compressed_engine.parameters()):
            assert np.allclose(ref_param.grad, cmp_param.grad, atol=1e-6)

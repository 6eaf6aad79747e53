"""Tests for the gradient/activation compressors and error feedback."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.compression
import repro.optim
from repro.compression import (
    Compressor,
    ErrorFeedback,
    PowerSGDCompressor,
    QSGDCompressor,
    TopKCompressor,
)
from repro.compression.powersgd import factor_wire_bytes, matrix_view, orthogonalise
from repro.compression.topk import num_kept
from repro.core.compressed_backprop import CompressedBackpropagation, cosine_similarity
from repro.core.selective_stage import SelectiveStageCompression
from repro.parallel.collectives import WIRE_BYTES_PER_ELEMENT
from repro.parallel.engine import CompressedGradientAllReduce
from repro.plan import DP_CODECS, PP_CODECS, CompressionSpec

from compression_metrics import compression_error, compression_ratio, relative_error


def low_rank_matrix(rng, rows=64, cols=32, rank=3, noise=0.0):
    """A matrix of known low rank plus optional noise."""
    matrix = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
    if noise:
        matrix = matrix + noise * rng.normal(size=(rows, cols))
    return matrix


class TestOrthogonalise:
    def test_columns_are_orthonormal(self, rng):
        matrix = orthogonalise(rng.normal(size=(20, 5)))
        gram = matrix.T @ matrix
        assert np.allclose(gram, np.eye(5), atol=1e-8)

    def test_degenerate_column_handled(self):
        matrix = np.zeros((4, 2))
        matrix[:, 0] = [1.0, 0, 0, 0]
        result = orthogonalise(matrix)
        assert np.all(np.isfinite(result))

    def test_matrix_view_flattens_leading_dims(self, rng):
        tensor = rng.normal(size=(2, 3, 5))
        assert matrix_view(tensor).shape == (6, 5)
        assert matrix_view(rng.normal(size=7)).shape == (7,)


class TestPowerSGD:
    def test_exact_on_low_rank_input(self, rng):
        matrix = low_rank_matrix(rng, rank=3)
        compressor = PowerSGDCompressor(rank=3, min_compression_elements=0)
        # A couple of warm-started iterations converge to the exact subspace.
        for _ in range(3):
            approx, payload = compressor.roundtrip(matrix, key="m")
        assert relative_error(matrix, approx) < 1e-6
        assert payload.compression_ratio > 5

    def test_payload_size_formula(self, rng):
        compressor = PowerSGDCompressor(rank=4, min_compression_elements=0)
        tensor = rng.normal(size=(40, 30))
        payload = compressor.compress(tensor, key="x")
        expected_elements = 4 * (40 + 30)
        assert payload.payload_bytes == expected_elements * WIRE_BYTES_PER_ELEMENT
        assert compressor.wire_bytes((40, 30), WIRE_BYTES_PER_ELEMENT) == payload.payload_bytes

    def test_small_tensors_pass_through(self, rng):
        compressor = PowerSGDCompressor(rank=4, min_compression_elements=10_000)
        tensor = rng.normal(size=(10, 10))
        approx, payload = compressor.roundtrip(tensor, key="small")
        assert np.array_equal(approx, tensor)
        assert payload.metadata["compressed"] is False

    def test_one_dimensional_pass_through(self, rng):
        compressor = PowerSGDCompressor(rank=4, min_compression_elements=0)
        tensor = rng.normal(size=100)
        approx, payload = compressor.roundtrip(tensor, key="bias")
        assert np.array_equal(approx, tensor)

    def test_query_reuse_improves_accuracy(self, rng):
        matrix = low_rank_matrix(rng, rank=4, noise=0.01)
        warm = PowerSGDCompressor(rank=4, reuse_query=True, min_compression_elements=0)
        cold = PowerSGDCompressor(rank=4, reuse_query=False, min_compression_elements=0)
        for _ in range(5):
            warm_approx, _ = warm.roundtrip(matrix, key="k")
            cold_approx, _ = cold.roundtrip(matrix, key="k")
        assert relative_error(matrix, warm_approx) <= relative_error(matrix, cold_approx) + 1e-9

    def test_reset_clears_state(self, rng):
        compressor = PowerSGDCompressor(rank=2, min_compression_elements=0)
        compressor.compress(rng.normal(size=(20, 10)), key="a")
        assert compressor.stored_query("a") is not None
        compressor.reset()
        assert compressor.stored_query("a") is None

    def test_higher_rank_lower_error(self, rng):
        matrix = rng.normal(size=(64, 48))
        errors = []
        for rank in (1, 4, 16):
            compressor = PowerSGDCompressor(rank=rank, min_compression_elements=0)
            approx, _ = compressor.roundtrip(matrix, key="x")
            errors.append(relative_error(matrix, approx))
        assert errors[0] > errors[1] > errors[2]

    def test_invalid_rank_raises(self):
        with pytest.raises(ValueError):
            PowerSGDCompressor(rank=0)


class TestTopK:
    def test_keeps_largest_magnitudes(self):
        tensor = np.array([[0.1, -5.0, 0.2, 4.0, 0.0, 0.3]])
        compressor = TopKCompressor(fraction=2 / 6, min_elements=0)
        approx, payload = compressor.roundtrip(tensor)
        assert approx[0, 1] == -5.0 and approx[0, 3] == 4.0
        assert np.count_nonzero(approx) == 2

    def test_payload_accounts_for_indices(self, rng):
        compressor = TopKCompressor(fraction=0.1, min_elements=0)
        payload = compressor.compress(rng.normal(size=1000))
        assert payload.payload_bytes == 100 * (WIRE_BYTES_PER_ELEMENT + 4)

    def test_full_fraction_is_lossless(self, rng):
        tensor = rng.normal(size=(8, 8))
        approx, _ = TopKCompressor(fraction=1.0, min_elements=0).roundtrip(tensor)
        assert np.allclose(approx, tensor)

    def test_invalid_fraction_raises(self):
        with pytest.raises(ValueError):
            TopKCompressor(fraction=0.0)


class TestErrorFeedback:
    def test_residual_accumulates_and_corrects(self, rng):
        """With error feedback, the running sum of delivered tensors tracks the true sum."""
        compressor = PowerSGDCompressor(rank=1, min_compression_elements=0)
        feedback = ErrorFeedback(compressor, enabled=True)
        true_sum = np.zeros((32, 16))
        delivered_sum = np.zeros((32, 16))
        for step in range(20):
            tensor = rng.normal(size=(32, 16))
            true_sum += tensor
            approx, _, _ = feedback.compress_with_feedback(tensor, key="g")
            delivered_sum += approx
        residual = feedback.residual("g")
        # sum(delivered) + residual == sum(true) by construction of error feedback.
        assert np.allclose(delivered_sum + residual, true_sum, atol=1e-8)

    def test_disabled_feedback_keeps_no_state(self, rng):
        feedback = ErrorFeedback(PowerSGDCompressor(rank=1, min_compression_elements=0), enabled=False)
        feedback.compress_with_feedback(rng.normal(size=(16, 8)), key="g")
        assert feedback.residual("g") is None
        assert feedback.residual_bytes() == 0

    def test_residual_bytes_counts_storage(self, rng):
        feedback = ErrorFeedback(PowerSGDCompressor(rank=1, min_compression_elements=0))
        feedback.compress_with_feedback(rng.normal(size=(16, 8)), key="a")
        feedback.compress_with_feedback(rng.normal(size=(16, 8)), key="b")
        assert feedback.residual_bytes() == 2 * 16 * 8 * 4

    def test_clear_and_reset(self, rng):
        feedback = ErrorFeedback(PowerSGDCompressor(rank=1, min_compression_elements=0))
        feedback.compress_with_feedback(rng.normal(size=(16, 8)), key="a")
        feedback.clear("a")
        assert feedback.residual("a") is None
        feedback.compress_with_feedback(rng.normal(size=(16, 8)), key="b")
        feedback.reset()
        assert feedback.residual("b") is None


class TestMetrics:
    def test_cosine_similarity_extremes(self, rng):
        a = rng.normal(size=100)
        assert cosine_similarity(a, a) == pytest.approx(1.0)
        assert cosine_similarity(a, -a) == pytest.approx(-1.0)
        assert cosine_similarity(a, np.zeros(100)) == 0.0

    def test_compression_error_zero_for_identity(self, rng):
        a = rng.normal(size=(4, 4))
        assert compression_error(a, a) == 0.0

    def test_compression_ratio_reads_payload(self, rng):
        payload = TopKCompressor(fraction=0.1, min_elements=0).compress(rng.normal(size=1000))
        assert compression_ratio(payload) == payload.compression_ratio


class TestCompressionProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        rows=st.integers(min_value=4, max_value=40),
        cols=st.integers(min_value=4, max_value=40),
        rank=st.integers(min_value=1, max_value=8),
    )
    def test_powersgd_payload_never_larger_than_original(self, rows, cols, rank):
        rng = np.random.default_rng(rows * 1000 + cols * 10 + rank)
        tensor = rng.normal(size=(rows, cols))
        compressor = PowerSGDCompressor(rank=rank, min_compression_elements=0)
        payload = compressor.compress(tensor, key="p")
        assert payload.payload_bytes <= payload.original_bytes

    @settings(max_examples=20, deadline=None)
    @given(fraction=st.floats(min_value=0.01, max_value=1.0))
    def test_topk_reconstruction_error_bounded_by_dropped_mass(self, fraction):
        rng = np.random.default_rng(int(fraction * 1e6))
        tensor = rng.normal(size=256)
        approx, _ = TopKCompressor(fraction=fraction, min_elements=0).roundtrip(tensor)
        assert np.linalg.norm(tensor - approx) <= np.linalg.norm(tensor) + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(steps=st.integers(min_value=2, max_value=12))
    def test_error_feedback_invariant(self, steps):
        """delivered-so-far + residual == true-so-far holds at every step."""
        rng = np.random.default_rng(steps)
        feedback = ErrorFeedback(TopKCompressor(fraction=0.1, min_elements=0))
        true_sum = np.zeros(128)
        delivered = np.zeros(128)
        for _ in range(steps):
            tensor = rng.normal(size=128)
            true_sum += tensor
            approx, _, _ = feedback.compress_with_feedback(tensor, key="k")
            delivered += approx
            assert np.allclose(delivered + feedback.residual("k"), true_sum, atol=1e-9)


# ----------------------------------------------------------------------------------
# Round-trip properties shared by every codec
# ----------------------------------------------------------------------------------

#: Every codec a plan can name, at the settings that take each of its branches
#: (passthrough, int16 codes, round-to-nearest, keep-all), with its analytic
#: payload-byte formula for a dense tensor of ``size`` elements (``None`` =
#: shape-dependent).
def _codec_catalogue():
    bytes_per = WIRE_BYTES_PER_ELEMENT
    index_bytes = 4

    def topk_bytes(fraction):
        return lambda size: num_kept(fraction, size) * (bytes_per + index_bytes)

    def qsgd_bytes(bits):
        return lambda size: int(np.ceil(size * (bits + 1) / 8)) + 4

    def dense_bytes(size):
        return size * bytes_per

    return {
        "powersgd": (
            lambda: PowerSGDCompressor(rank=2, min_compression_elements=0),
            None,  # shape-dependent; checked against factor_wire_bytes below
        ),
        "powersgd-passthrough": (
            lambda: PowerSGDCompressor(rank=2, min_compression_elements=1 << 20),
            dense_bytes,
        ),
        "topk": (lambda: TopKCompressor(fraction=0.1, min_elements=0), topk_bytes(0.1)),
        "topk-all": (lambda: TopKCompressor(fraction=1.0, min_elements=0), topk_bytes(1.0)),
        "topk-passthrough": (
            lambda: TopKCompressor(fraction=0.1, min_elements=1 << 20),
            dense_bytes,
        ),
        "qsgd": (lambda: QSGDCompressor(bits=4, seed=2), qsgd_bytes(4)),
        "qsgd-1bit": (lambda: QSGDCompressor(bits=1, seed=3), qsgd_bytes(1)),
        "qsgd-8bit": (lambda: QSGDCompressor(bits=8, seed=4), qsgd_bytes(8)),
        "qsgd-nearest": (
            lambda: QSGDCompressor(bits=4, seed=5, deterministic=True),
            qsgd_bytes(4),
        ),
    }


CODEC_NAMES = sorted(_codec_catalogue())


class TestAllCodecRoundTrips:
    """Round-trip and payload-accounting properties every codec must satisfy."""

    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    @settings(max_examples=10, deadline=None)
    @given(rows=st.integers(min_value=4, max_value=24), cols=st.integers(min_value=4, max_value=24))
    def test_roundtrip_shape_and_payload_accounting(self, codec_name, rows, cols):
        """Decompression restores the shape; payload bytes match the analytic
        estimate the payload's compression ratio is built from."""
        build, payload_formula = _codec_catalogue()[codec_name]
        codec = build()
        rng = np.random.default_rng(rows * 100 + cols)
        tensor = rng.normal(size=(rows, cols))
        approx, payload = codec.roundtrip(tensor, key="t")

        assert approx.shape == tensor.shape
        assert np.all(np.isfinite(approx))
        assert payload.original_bytes == tensor.size * WIRE_BYTES_PER_ELEMENT
        assert compression_ratio(payload) == payload.original_bytes / payload.payload_bytes

        if codec_name == "powersgd":
            # Factors that would not be smaller pass the tensor through.
            factors = factor_wire_bytes(tensor.shape, 2, WIRE_BYTES_PER_ELEMENT)
            assert payload.payload_bytes == min(factors, payload.original_bytes)
        else:
            assert payload.payload_bytes == payload_formula(tensor.size)

    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    def test_residual_shrinks_under_error_feedback(self, codec_name, rng):
        """Feeding the residual back makes the *time-averaged* delivery converge:
        after a few steps, the mean delivered tensor is closer to the true tensor
        than any single lossy round-trip was."""
        build, _ = _codec_catalogue()[codec_name]
        codec = build()
        feedback = ErrorFeedback(codec, enabled=True)
        tensor = rng.normal(size=(16, 12))

        first_approx, _, first_residual = feedback.compress_with_feedback(tensor, key="g")
        first_error = np.linalg.norm(tensor - first_approx)
        delivered = first_approx.copy()
        steps = 8
        for _ in range(steps - 1):
            approx, _, _ = feedback.compress_with_feedback(tensor, key="g")
            delivered += approx
        mean_error = np.linalg.norm(delivered / steps - tensor)

        if first_error < 1e-9:  # lossless: passthrough, top-k keeping everything
            assert mean_error < 1e-6
        else:
            assert mean_error < first_error
        # The invariant behind the convergence: delivered + residual == steps * tensor.
        assert np.allclose(
            delivered + feedback.residual("g"), steps * tensor, atol=1e-8
        )

    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    def test_reset_is_idempotent_and_clears_state(self, codec_name, rng):
        build, _ = _codec_catalogue()[codec_name]
        codec = build()
        codec.roundtrip(rng.normal(size=(8, 8)), key="s")
        codec.reset()
        codec.reset()
        approx, payload = codec.roundtrip(rng.normal(size=(8, 8)), key="s")
        assert approx.shape == (8, 8)
        assert payload.payload_bytes > 0

    @pytest.mark.parametrize("codec_name", CODEC_NAMES)
    @pytest.mark.parametrize("shape", [(16, 12), (64,), (2, 6, 8)])
    def test_into_kernels_are_bit_identical_to_safe_api(self, codec_name, shape, rng):
        """compress_into/decompress_into == compress/decompress, bit for bit,
        including the default fallbacks and every passthrough branch."""
        build, _ = _codec_catalogue()[codec_name]
        safe, fast = build(), build()
        for step in range(3):  # stateful codecs must agree along the trajectory
            tensor = rng.normal(size=shape)
            want = safe.decompress(safe.compress(tensor, key="t"))
            payload = fast.compress_into(tensor, key="t")
            got = fast.decompress_into(payload, np.empty(shape))
            assert np.array_equal(got, want), f"{codec_name} step {step}"

    @pytest.mark.parametrize("codec_name", ["qsgd", "topk", "powersgd"])
    def test_non_contiguous_output_rejected_loudly(self, codec_name, rng):
        """reshape on a strided buffer would copy — the kernels must refuse it
        instead of silently writing into the copy."""
        build, _ = _codec_catalogue()[codec_name]
        codec = build()
        tensor = rng.normal(size=(16, 12))
        payload = codec.compress_into(tensor, key="t")
        strided = np.empty((16, 24))[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            codec.decompress_into(payload, strided)

    @pytest.mark.parametrize("codec_name", ["qsgd", "topk", "powersgd"])
    def test_workspace_payloads_alias_but_safe_payloads_do_not(self, codec_name, rng):
        """The _into payload may alias workspace memory (invalidated by the next
        call); the safe API's payload must survive a subsequent compression."""
        build, _ = _codec_catalogue()[codec_name]
        codec = build()
        first = rng.normal(size=(16, 12))
        second = rng.normal(size=(16, 12))
        safe_payload = codec.compress(first, key="t")
        want = codec.decompress(safe_payload).copy()
        codec.compress_into(second, key="t")  # may clobber workspace views
        assert np.array_equal(codec.decompress(safe_payload), want)


class TestStochasticStreamKeying:
    """Counter-keyed RNG: the draw depends on (seed, key, call-on-that-key) only."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: QSGDCompressor(bits=4, seed=7),
            lambda: QSGDCompressor(bits=1, seed=7),
            lambda: QSGDCompressor(bits=8, seed=7),
        ],
        ids=["qsgd", "qsgd-1bit", "qsgd-8bit"],
    )
    def test_streams_are_independent_of_visit_order(self, build, rng):
        tensor_a = rng.normal(size=(12, 8))
        tensor_b = rng.normal(size=(12, 8))
        forward, backward = build(), build()
        fa, _ = forward.roundtrip(tensor_a, key="a")
        fb, _ = forward.roundtrip(tensor_b, key="b")
        bb, _ = backward.roundtrip(tensor_b, key="b")
        ba, _ = backward.roundtrip(tensor_a, key="a")
        assert np.array_equal(fa, ba)
        assert np.array_equal(fb, bb)

    def test_repeated_calls_on_one_key_advance_the_stream(self, rng):
        codec = QSGDCompressor(bits=4, seed=0)
        tensor = rng.normal(size=(12, 8))
        first, _ = codec.roundtrip(tensor, key="k")
        second, _ = codec.roundtrip(tensor, key="k")
        assert not np.array_equal(first, second)
        # ... and reset replays the trajectory exactly.
        codec.reset()
        replay, _ = codec.roundtrip(tensor, key="k")
        assert np.array_equal(first, replay)

    def test_qsgd_streams_are_process_stable(self):
        """Pinned draws: the packed-QSGD kernel's stream must never silently
        change (it would break bucketed/per-parameter parity across versions)."""
        codec = QSGDCompressor(bits=2, seed=1)
        tensor = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        approx, payload = codec.roundtrip(tensor, key="pin")
        assert payload.data["codes"].dtype == np.int8
        expected = np.array(
            [[-3, -2, -2, -1], [0, -1, 0, 1], [2, 2, 3, 3]], dtype=np.int8
        )
        assert np.array_equal(payload.data["codes"].reshape(3, 4), expected)


class TestQSGDPackedCodes:
    def test_codes_are_one_packed_integer_per_element(self, rng):
        tensor = rng.normal(size=(16, 16))
        for bits, dtype in [(1, np.int8), (4, np.int8), (7, np.int8), (8, np.int16)]:
            codec = QSGDCompressor(bits=bits, seed=0)
            payload = codec.compress(tensor, key="t")
            codes = payload.data["codes"]
            assert codes.dtype == dtype
            assert codes.size == tensor.size
            levels = codec.num_levels
            assert codes.min() >= -levels and codes.max() <= levels

    def test_quantisation_is_unbiased(self, rng):
        tensor = rng.normal(size=(8, 8))
        codec = QSGDCompressor(bits=3, seed=2)
        mean = np.zeros_like(tensor)
        steps = 400
        for _ in range(steps):
            approx, _ = codec.roundtrip(tensor, key="u")
            mean += approx / steps
        scale = float(np.max(np.abs(tensor)))
        assert np.abs(mean - tensor).max() < 0.15 * scale

    def test_deterministic_mode_rounds_to_nearest(self, rng):
        tensor = rng.normal(size=(16, 16))
        codec = QSGDCompressor(bits=6, seed=0, deterministic=True)
        approx, payload = codec.roundtrip(tensor, key="d")
        step = payload.data["scale"] / codec.num_levels
        assert np.abs(approx - tensor).max() <= 0.5 * step + 1e-12
        again, _ = codec.roundtrip(tensor, key="d")
        assert np.array_equal(approx, again)

    def test_rounding_never_flips_a_sign(self, rng):
        tensor = rng.normal(size=(32, 32))
        for bits in (1, 4, 8):
            approx, _ = QSGDCompressor(bits=bits, seed=bits).roundtrip(tensor)
            assert np.all(approx * tensor >= 0.0), bits

    def test_zero_tensor_stays_zero(self):
        codec = QSGDCompressor(bits=4, seed=0)
        approx, payload = codec.roundtrip(np.zeros((4, 4)), key="z")
        assert np.array_equal(approx, np.zeros((4, 4)))
        assert payload.data["scale"] == 0.0


class TestThreadScratch:
    """What a threaded DP reduce relies on: twins own their scratch, ``reserve`` sizes it."""

    def test_qsgd_twin_shares_the_call_counters_not_the_scratch(self, rng):
        tensor = rng.normal(size=(12, 8))
        alone = QSGDCompressor(bits=4, seed=3)
        want = [alone.decompress(alone.compress(tensor, key="k")) for _ in range(2)]
        codec = QSGDCompressor(bits=4, seed=3)
        twin = codec.with_own_scratch()
        first = codec.compress_into(tensor, key="k")
        second = twin.compress_into(tensor, key="k")  # the key's second call
        assert not np.shares_memory(first.data["codes"], second.data["codes"])
        assert np.array_equal(codec.decompress(first), want[0])
        assert np.array_equal(twin.decompress(second), want[1])

    def test_topk_twin_owns_its_scratch(self, rng):
        codec = TopKCompressor(fraction=0.25, min_elements=0)
        twin = codec.with_own_scratch()
        a, b = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        payload_a = codec.compress_into(a, key="a")
        payload_b = twin.compress_into(b, key="b")
        assert not np.shares_memory(payload_a.data["values"], payload_b.data["values"])
        assert np.array_equal(codec.decompress(payload_a), codec.decompress(codec.compress(a)))

    @pytest.mark.parametrize(
        "build",
        [lambda: QSGDCompressor(bits=4, seed=1), lambda: TopKCompressor(fraction=0.1, min_elements=0)],
        ids=["qsgd", "topk"],
    )
    def test_reserve_allocates_what_compress_into_uses(self, build, rng):
        codec = build()
        codec.reserve(96, keys=["b", "a"])
        reserved = codec._workspace.nbytes()
        for key, shape in (("a", (8, 12)), ("b", (96,)), ("c", (5, 5))):
            codec.compress_into(rng.normal(size=shape), key=key)
        assert codec._workspace.nbytes() == reserved
        if isinstance(codec, QSGDCompressor):
            assert list(codec._call_counts) == ["b", "a", "c"]


def frozen_stable_topk_indices(magnitudes: np.ndarray, kept: int) -> np.ndarray:
    """The selection as it was before it took its partition scratch from the caller."""
    size = magnitudes.size
    if kept >= size:
        return np.arange(size, dtype=np.int64)
    scratch = magnitudes.copy()
    cut = size - kept
    scratch.partition(cut)
    threshold = scratch[cut]
    above = np.nonzero(magnitudes > threshold)[0]
    need = kept - above.size
    if need > 0:
        ties = np.nonzero(magnitudes == threshold)[0]
        if ties.size < need:
            return frozen_stable_topk_indices(
                np.where(np.isnan(magnitudes), np.inf, magnitudes), kept
            )
        above = np.concatenate([above, ties[:need]])
        above.sort()
    return above.astype(np.int64, copy=False)


class TestTopKScratch:
    def test_a_warm_compress_into_allocates_less_than_the_tensor(self, rng):
        """The partition pass reorders the workspace's scratch, not a fresh copy."""
        tensor = rng.normal(size=(256, 256))
        compressor = TopKCompressor(fraction=0.1)
        compressor.compress_into(tensor, key="t")  # grows the workspace
        tracemalloc.start()
        try:
            compressor.compress_into(tensor, key="t")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < tensor.nbytes  # 512 KiB; a partition copy alone is that

    @pytest.mark.parametrize("inputs", ["random", "tied", "nan"])
    def test_payloads_equal_the_frozen_selection(self, rng, inputs):
        compressor = TopKCompressor(fraction=0.1)
        for size in (17, 300, 4096):
            tensor = rng.normal(size=size)
            if inputs == "tied":
                tensor = np.round(tensor, 1)
            elif inputs == "nan":
                tensor[rng.choice(size, size // 7, replace=False)] = np.nan
            expected = frozen_stable_topk_indices(np.abs(tensor), num_kept(0.1, size))
            for payload in (compressor.compress(tensor), compressor.compress_into(tensor)):
                assert np.array_equal(payload.data["indices"], expected)
                assert np.array_equal(payload.data["values"], tensor[expected], equal_nan=True)


class TestTopKTieBreaking:
    def test_equal_magnitudes_resolved_by_lowest_index(self):
        tensor = np.array([2.0, -2.0, 2.0, -2.0, 5.0, 1.0])
        compressor = TopKCompressor(fraction=0.5, min_elements=0)
        payload = compressor.compress(tensor, key="t")
        # 5.0 always wins; the 2.0-magnitude tie goes to the lowest indices.
        assert list(payload.data["indices"]) == [0, 1, 4]

    def test_all_equal_magnitudes_keep_a_prefix(self):
        tensor = np.full(10, -3.0)
        payload = TopKCompressor(fraction=0.3, min_elements=0).compress(tensor, key="t")
        assert list(payload.data["indices"]) == [0, 1, 2]

    @pytest.mark.parametrize("poisoned", [1, 3, 8])
    def test_nan_ranks_as_the_largest_magnitude(self, poisoned):
        """A poisoned tensor still yields ``kept`` indices, the NaNs among them."""
        tensor = np.linspace(-1.0, 1.0, 20)
        tensor[[2, 11, 17, 5, 8, 13, 0, 19][:poisoned]] = np.nan
        payload = TopKCompressor(fraction=0.25, min_elements=0).compress(tensor, key="t")
        indices = payload.data["indices"]
        assert indices.size == 5
        assert np.isnan(tensor[indices]).sum() == min(poisoned, 5)

    def test_indices_are_sorted_ascending(self, rng):
        tensor = rng.normal(size=256)
        payload = TopKCompressor(fraction=0.1, min_elements=0).compress(tensor, key="t")
        indices = payload.data["indices"]
        assert np.array_equal(indices, np.sort(indices))

    @settings(max_examples=30, deadline=None)
    @given(
        size=st.integers(min_value=2, max_value=64),
        fraction=st.floats(min_value=0.05, max_value=1.0),
        duplicates=st.booleans(),
    )
    def test_selection_matches_lexicographic_reference(self, size, fraction, duplicates):
        """The O(n) partition kernel == sorting by (-|value|, index)."""
        rng = np.random.default_rng(size * 101 + int(fraction * 997))
        tensor = rng.normal(size=size)
        if duplicates:  # force magnitude ties
            tensor = np.round(tensor, 1)
        compressor = TopKCompressor(fraction=fraction, min_elements=0)
        payload = compressor.compress(tensor, key="t")
        kept = payload.metadata["kept"]
        order = np.lexsort((np.arange(size), -np.abs(tensor)))
        expected = np.sort(order[:kept])
        assert np.array_equal(payload.data["indices"], expected)


class TestPlanVocabulary:
    """The codecs :mod:`repro.compression` exports are the ones a plan can name."""

    def test_exported_codecs_are_the_plan_codecs(self):
        exported = [
            value
            for value in vars(repro.compression).values()
            if isinstance(value, type) and issubclass(value, Compressor) and value is not Compressor
        ]
        assert {codec.name for codec in exported} == (set(DP_CODECS) | set(PP_CODECS)) - {"none"}
        assert len(exported) == len({codec.name for codec in exported})

    def test_the_package_exports_the_codecs_and_error_feedback_only(self):
        assert set(repro.compression.__all__) == {
            "Compressor", "CompressedPayload", "ErrorFeedback",
            "PowerSGDCompressor", "QSGDCompressor", "TopKCompressor",
        }

    def test_optim_exports_one_optimiser(self):
        optimisers = [
            value
            for value in vars(repro.optim).values()
            if isinstance(value, type) and callable(getattr(value, "step", None))
        ]
        assert optimisers == [repro.optim.FusedAdam]

    @pytest.mark.parametrize("codec", DP_CODECS)
    def test_dp_codec_builds_its_kernel(self, codec):
        reduce = CompressedGradientAllReduce(CompressionSpec(codec=codec), num_stages=2)
        if codec == "powersgd":
            # The DP PowerSGD reduce is the distributed kernel, not a codec object.
            assert isinstance(reduce.powersgd, SelectiveStageCompression)
            assert reduce.compressor is None
        elif codec == "none":
            assert reduce.powersgd is None and reduce.compressor is None
        else:
            assert reduce.powersgd is None and reduce.compressor.name == codec

    @pytest.mark.parametrize("codec", PP_CODECS)
    def test_pp_codec_builds_its_compressor(self, codec):
        spec = CompressionSpec(codec=codec)
        if codec == "none":
            assert not spec.compresses  # the engine builds no backward hook
            return
        hook = CompressedBackpropagation(num_stages=2, compressor=spec.codec)
        assert hook.feedback.compressor.name == codec


class TestTopKErrorFeedback:
    def test_every_element_is_eventually_transmitted(self):
        """Small values wait in the residual until they are among the largest."""
        feedback = ErrorFeedback(TopKCompressor(fraction=0.1, min_elements=0), enabled=True)
        constant = np.full(40, 0.1)
        sent = np.zeros(40, dtype=bool)
        delivered = np.zeros(40)
        for _ in range(30):
            approx, _, _ = feedback.compress_with_feedback(constant, key="g")
            sent |= approx != 0.0
            delivered += approx
        assert sent.all()
        assert np.allclose(delivered + feedback.residual("g"), 30 * constant, atol=1e-9)

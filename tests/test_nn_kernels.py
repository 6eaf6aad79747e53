"""Kernel contract of the numerics hot path (``repro.nn``, ``repro.tensor``, ``FusedAdam``).

The kernels were rewritten for speed (BLAS ``matmul`` instead of ``einsum``,
in-place elementwise chains, one flattened GEMM per Linear, a tiled Adam).
The spellings they replaced are frozen below as oracles:

* **bit-identical rewrites** — softmax, softmax-backward, LayerNorm
  forward/backward, the masked scores, the Linear bias/weight-gradient paths
  and the tiled ``FusedAdam.step`` — are compared with ``array_equal``;
* **summation-order changes** — every product that now goes through a
  differently shaped GEMM (the six attention contractions, and Linear's
  flattened product on batched inputs) — are compared at ``rtol=1e-12`` and
  additionally checked against finite differences.
"""

from __future__ import annotations

import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.linear import Linear
from repro.optim import fused_adam
from repro.optim.fused_adam import FusedAdam
from repro.parallel.arena import ParameterArena
from repro.tensor import functional as F
from repro.tensor.parameter import Parameter

from tests.conftest import numerical_gradient

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


# -- frozen oracles: the spellings the kernels replaced ------------------------------


def ref_softmax(logits, axis=-1):
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def ref_softmax_backward(grad_output, softmax_output, axis=-1):
    inner = np.sum(grad_output * softmax_output, axis=axis, keepdims=True)
    return softmax_output * (grad_output - inner)


def ref_masked_scores(raw_scores, head_dim):
    """Scale, then causal mask, as attention.forward used to spell them."""
    seq = raw_scores.shape[-1]
    scores = raw_scores * (1.0 / np.sqrt(head_dim))
    mask = np.tril(np.ones((seq, seq), dtype=bool))
    return np.where(mask, scores, -1e9)


def ref_layer_norm_forward(x, gamma, beta, eps=1e-5):
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normalised = (x - mean) * inv_std
    output = normalised * gamma + beta
    return output, {"normalised": normalised, "inv_std": inv_std, "gamma": gamma}


def ref_layer_norm_backward(grad_output, cache):
    normalised, inv_std, gamma = cache["normalised"], cache["inv_std"], cache["gamma"]
    grad_gamma = np.sum(grad_output * normalised, axis=tuple(range(grad_output.ndim - 1)))
    grad_beta = np.sum(grad_output, axis=tuple(range(grad_output.ndim - 1)))
    grad_normalised = grad_output * gamma
    mean_grad = np.mean(grad_normalised, axis=-1, keepdims=True)
    mean_grad_times_norm = np.mean(grad_normalised * normalised, axis=-1, keepdims=True)
    grad_input = inv_std * (grad_normalised - mean_grad - normalised * mean_grad_times_norm)
    return grad_input, grad_gamma, grad_beta


def ref_linear_forward(x, weight, bias):
    output = x @ weight
    if bias is not None:
        output = output + bias
    return output


def ref_linear_backward(x, grad_output, weight):
    """``(grad_input, grad_weight, grad_bias)`` of the old Linear."""
    flat_x = x.reshape(-1, weight.shape[0])
    flat_grad = grad_output.reshape(-1, weight.shape[1])
    return grad_output @ weight.T, flat_x.T @ flat_grad, flat_grad.sum(axis=0)


def ref_attention(attention: MultiHeadSelfAttention, x, grad_output):
    """Old einsum/split/concatenate attention: ``(output, grad_input, grads)``."""
    heads, head_dim, hidden = attention.num_heads, attention.head_dim, attention.hidden_size
    batch, seq, _ = x.shape

    def split_heads(t):
        return t.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)

    def merge_heads(t):
        return t.transpose(0, 2, 1, 3).reshape(batch, seq, hidden)

    qkv_w, qkv_b = attention.qkv.weight.data, attention.qkv.bias.data
    proj_w, proj_b = attention.proj.weight.data, attention.proj.bias.data

    qkv = ref_linear_forward(x, qkv_w, qkv_b)
    queries, keys, values = (split_heads(part) for part in np.split(qkv, 3, axis=-1))
    raw_scores = np.einsum("bhqd,bhkd->bhqk", queries, keys)
    probs = ref_softmax(ref_masked_scores(raw_scores, head_dim), axis=-1)
    context = np.einsum("bhqk,bhkd->bhqd", probs, values)
    merged = merge_heads(context)
    output = ref_linear_forward(merged, proj_w, proj_b)

    grad_merged, grad_proj_w, grad_proj_b = ref_linear_backward(merged, grad_output, proj_w)
    grad_context = split_heads(grad_merged)
    grad_probs = np.einsum("bhqd,bhkd->bhqk", grad_context, values)
    grad_values = np.einsum("bhqk,bhqd->bhkd", probs, grad_context)
    grad_scores = ref_softmax_backward(grad_probs, probs, axis=-1) * (1.0 / np.sqrt(head_dim))
    grad_queries = np.einsum("bhqk,bhkd->bhqd", grad_scores, keys)
    grad_keys = np.einsum("bhqk,bhqd->bhkd", grad_scores, queries)
    grad_qkv = np.concatenate(
        [merge_heads(grad_queries), merge_heads(grad_keys), merge_heads(grad_values)], axis=-1
    )
    grad_input, grad_qkv_w, grad_qkv_b = ref_linear_backward(x, grad_qkv, qkv_w)
    grads = {
        "qkv.weight": grad_qkv_w,
        "qkv.bias": grad_qkv_b,
        "proj.weight": grad_proj_w,
        "proj.bias": grad_proj_b,
    }
    return output, grad_input, grads


def ref_adam_step(data, grad, exp_avg, exp_avg_sq, step, lr, beta1, beta2, eps, weight_decay, decoupled):
    """The old whole-arena ``FusedAdam.step`` (arena-sized scratch, 13 ufunc passes)."""
    tmp, tmp2 = np.empty_like(data), np.empty_like(data)
    bias_correction1 = 1.0 - beta1**step
    bias_correction2 = 1.0 - beta2**step
    if weight_decay and not decoupled:
        np.multiply(data, weight_decay, out=tmp)
        tmp += grad
        grad = tmp
    exp_avg *= beta1
    np.multiply(grad, 1.0 - beta1, out=tmp2)
    exp_avg += tmp2
    exp_avg_sq *= beta2
    np.multiply(grad, 1.0 - beta2, out=tmp2)
    tmp2 *= grad
    exp_avg_sq += tmp2
    np.divide(exp_avg_sq, bias_correction2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    np.divide(exp_avg, bias_correction1, out=tmp2)
    tmp2 *= lr
    tmp2 /= tmp
    if weight_decay and decoupled:
        np.multiply(data, lr * weight_decay, out=tmp)
        data -= tmp
    data -= tmp2


# -- helpers ----------------------------------------------------------------------------


def non_contiguous(rng, shape):
    """A standard-normal array of ``shape`` that is a strided view of a larger one."""
    backing = rng.standard_normal((*shape[:-1], 2 * shape[-1]))
    view = backing[..., ::2]
    assert not view.flags.c_contiguous or view.size <= 1
    return view


def make_attention(heads, head_dim, seed):
    attention = MultiHeadSelfAttention(
        heads * head_dim, heads, np.random.default_rng(seed), init_std=0.5
    )
    rng = np.random.default_rng(seed + 1)
    for parameter in attention.parameters():
        if parameter.data.ndim == 1:  # biases start at zero; make them count
            parameter.data[...] = rng.standard_normal(parameter.shape)
    return attention


attention_shapes = st.tuples(
    st.integers(1, 3),  # batch
    st.integers(1, 4),  # heads
    st.integers(1, 9),  # seq
    st.integers(1, 6),  # head_dim
)


# -- attention: summation-order change, rtol 1e-12 ----------------------------------------


class TestAttentionAgainstEinsumOracle:
    @settings(max_examples=40, deadline=None)
    @given(shape=attention_shapes, strided=st.booleans(), seed=st.integers(0, 2**16))
    def test_forward_and_backward_match(self, shape, strided, seed):
        batch, heads, seq, head_dim = shape
        attention = make_attention(heads, head_dim, seed)
        rng = np.random.default_rng(seed + 2)
        draw = non_contiguous if strided else (lambda r, s: r.standard_normal(s))
        x = draw(rng, (batch, seq, heads * head_dim))
        grad_output = draw(rng, (batch, seq, heads * head_dim))

        expected_output, expected_grad_input, expected_grads = ref_attention(attention, x, grad_output)

        attention.zero_grad()
        output, cache = attention.forward(x)
        grad_input = attention.backward(grad_output, cache)

        tolerance = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(output, expected_output, **tolerance)
        np.testing.assert_allclose(grad_input, expected_grad_input, **tolerance)
        for name, parameter in attention.named_parameters():
            np.testing.assert_allclose(parameter.grad, expected_grads[name], **tolerance)

    def test_split_backward_is_bitwise_the_fused_backward(self, rng):
        attention = make_attention(2, 4, seed=3)
        x = rng.standard_normal((2, 5, 8))
        grad_output = rng.standard_normal((2, 5, 8))

        attention.zero_grad()
        _, cache = attention.forward(x)
        fused_input = attention.backward(grad_output, cache)
        fused_grads = [parameter.grad.copy() for parameter in attention.parameters()]

        attention.zero_grad()
        _, cache = attention.forward(x)
        split_input = attention.backward_input(grad_output, cache)
        attention.backward_weight(cache)

        assert np.array_equal(fused_input, split_input)
        for parameter, fused in zip(attention.parameters(), fused_grads):
            assert np.array_equal(parameter.grad, fused)

    def test_probabilities_are_causal_and_normalised(self, rng):
        attention = make_attention(2, 3, seed=5)
        _, cache = attention.forward(rng.standard_normal((2, 6, 6)))
        probs = cache.attention_probs
        assert np.all(np.triu(probs, k=1) == 0.0)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-12)

    def test_forward_leaves_its_input_untouched(self, rng):
        attention = make_attention(2, 3, seed=6)
        x = rng.standard_normal((1, 4, 6))
        before = x.copy()
        attention.forward(x)
        assert np.array_equal(x, before)

    def test_finite_difference_gradients(self, rng):
        attention = make_attention(2, 3, seed=7)
        x = rng.standard_normal((2, 4, 6))
        weights = rng.standard_normal((2, 4, 6))

        def loss():
            output, _ = attention.forward(x)
            return float(np.sum(output * weights))

        attention.zero_grad()
        _, cache = attention.forward(x)
        grad_input = attention.backward(weights, cache)

        np.testing.assert_allclose(grad_input, numerical_gradient(loss, x), rtol=1e-5, atol=1e-7)
        for parameter in attention.parameters():
            np.testing.assert_allclose(
                parameter.grad, numerical_gradient(loss, parameter.data), rtol=1e-5, atol=1e-7
            )


# -- Linear -------------------------------------------------------------------------------


class TestLinearAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 40),
        in_features=st.integers(1, 24),
        out_features=st.integers(1, 24),
        bias=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_two_dimensional_input_is_bit_identical(self, rows, in_features, out_features, bias, seed):
        """A 2-D input is already one GEMM: the in-place bias add, the input
        gradient and the weight/bias gradients must not move a bit."""
        rng = np.random.default_rng(seed)
        layer = Linear(in_features, out_features, rng, bias=bias, init_std=0.5)
        if bias:
            layer.bias.data[...] = rng.standard_normal(out_features)
        x = rng.standard_normal((rows, in_features))
        grad_output = rng.standard_normal((rows, out_features))
        weight = layer.weight.data
        bias_data = layer.bias.data if bias else None

        output, cache = layer.forward(x)
        grad_input = layer.backward(grad_output, cache)
        expected_grad_input, expected_grad_weight, expected_grad_bias = ref_linear_backward(
            x, grad_output, weight
        )

        assert np.array_equal(output, ref_linear_forward(x, weight, bias_data))
        assert np.array_equal(grad_input, expected_grad_input)
        assert np.array_equal(layer.weight.grad, expected_grad_weight)
        if bias:
            assert np.array_equal(layer.bias.grad, expected_grad_bias)

    @settings(max_examples=40, deadline=None)
    @given(
        leading=st.lists(st.integers(1, 5), min_size=2, max_size=3),
        in_features=st.integers(1, 24),
        out_features=st.integers(1, 24),
        strided=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_batched_input_matches_per_sample_products(
        self, leading, in_features, out_features, strided, seed
    ):
        """Flattening the leading dims tiles the rows differently inside BLAS,
        so the products agree to rounding; the weight/bias gradients were
        already flattened and stay bit-identical."""
        rng = np.random.default_rng(seed)
        layer = Linear(in_features, out_features, rng, init_std=0.5)
        layer.bias.data[...] = rng.standard_normal(out_features)
        draw = non_contiguous if strided else (lambda r, s: r.standard_normal(s))
        x = draw(rng, (*leading, in_features))
        grad_output = draw(rng, (*leading, out_features))

        output, cache = layer.forward(x)
        grad_input = layer.backward(grad_output, cache)
        expected_grad_input, expected_grad_weight, expected_grad_bias = ref_linear_backward(
            x, grad_output, layer.weight.data
        )

        assert output.shape == (*leading, out_features)
        assert grad_input.shape == x.shape
        np.testing.assert_allclose(
            output, ref_linear_forward(x, layer.weight.data, layer.bias.data), rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(grad_input, expected_grad_input, rtol=1e-12, atol=1e-12)
        assert np.array_equal(layer.weight.grad, expected_grad_weight)
        assert np.array_equal(layer.bias.grad, expected_grad_bias)

    def test_forward_does_not_write_into_the_bias_or_input(self, rng):
        layer = Linear(4, 3, rng)
        layer.bias.data[...] = 1.0
        x = rng.standard_normal((2, 5, 4))
        before = x.copy()
        layer.forward(x)
        assert np.array_equal(x, before)
        assert np.all(layer.bias.data == 1.0)


# -- softmax / mask / LayerNorm: bit-identical ---------------------------------------------


tensor_shapes = st.lists(st.integers(1, 7), min_size=1, max_size=4).map(tuple)


class TestElementwiseKernelsAreBitIdentical:
    @settings(max_examples=50, deadline=None)
    @given(shape=tensor_shapes, scale=st.sampled_from([1e-3, 1.0, 50.0]), seed=st.integers(0, 2**16))
    def test_softmax(self, shape, scale, seed):
        logits = np.random.default_rng(seed).standard_normal(shape) * scale
        expected = ref_softmax(logits)
        before = logits.copy()

        assert np.array_equal(F.softmax(logits), expected)
        assert np.array_equal(logits, before)  # the default does not touch its input

        in_place = F.softmax(logits, out=logits)
        assert in_place is logits
        assert np.array_equal(logits, expected)

    def test_integer_logits_and_integer_masks_still_work(self):
        logits = np.array([[1, 2, 3], [0, 0, 5]])
        assert np.array_equal(F.softmax(logits), ref_softmax(logits))
        keep = np.array([[1, 0], [1, 1]])
        assert np.array_equal(F.masked_fill(np.ones((2, 2)), keep), np.where(keep, 1.0, -1e9))

    @settings(max_examples=50, deadline=None)
    @given(shape=tensor_shapes, seed=st.integers(0, 2**16))
    def test_softmax_backward(self, shape, seed):
        rng = np.random.default_rng(seed)
        probs = ref_softmax(rng.standard_normal(shape))
        grad_output = rng.standard_normal(shape)
        before = grad_output.copy(), probs.copy()

        assert np.array_equal(
            F.softmax_backward(grad_output, probs), ref_softmax_backward(grad_output, probs)
        )
        assert np.array_equal(grad_output, before[0]) and np.array_equal(probs, before[1])

    @settings(max_examples=30, deadline=None)
    @given(
        batch=st.integers(1, 3),
        heads=st.integers(1, 3),
        seq=st.integers(1, 9),
        head_dim=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_masked_scores(self, batch, heads, seq, head_dim, seed):
        raw = np.random.default_rng(seed).standard_normal((batch, heads, seq, seq))
        expected = ref_masked_scores(raw, head_dim)

        scores = raw.copy()
        scores *= 1.0 / np.sqrt(head_dim)
        result = F.masked_fill(scores, F.causal_mask(seq), out=scores)

        assert result is scores
        assert np.array_equal(scores, expected)
        assert np.array_equal(
            F.masked_fill(raw * (1.0 / np.sqrt(head_dim)), F.causal_mask(seq)), expected
        )

    def test_causal_mask_is_shared_and_read_only(self):
        mask = F.causal_mask(5)
        assert mask is F.causal_mask(5)
        assert np.array_equal(mask, np.tril(np.ones((5, 5), dtype=bool)))
        with pytest.raises(ValueError):
            mask[0, 1] = True

    @settings(max_examples=50, deadline=None)
    @given(
        leading=st.lists(st.integers(1, 5), min_size=0, max_size=3),
        hidden=st.integers(1, 33),
        offset=st.sampled_from([0.0, 1e3]),
        seed=st.integers(0, 2**16),
    )
    def test_layer_norm_forward_and_backward(self, leading, hidden, offset, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((*leading, hidden)) + offset
        gamma = rng.standard_normal(hidden)
        beta = rng.standard_normal(hidden)
        grad_output = rng.standard_normal((*leading, hidden))
        inputs_before = x.copy(), grad_output.copy()

        expected_output, expected_cache = ref_layer_norm_forward(x, gamma, beta)
        output, cache = F.layer_norm_forward(x, gamma, beta)
        assert np.array_equal(output, expected_output)
        assert np.array_equal(cache["normalised"], expected_cache["normalised"])
        assert np.array_equal(cache["inv_std"], expected_cache["inv_std"])

        expected = ref_layer_norm_backward(grad_output, expected_cache)
        actual = F.layer_norm_backward(grad_output, cache)
        for got, want in zip(actual, expected):
            assert np.array_equal(got, want)
        # The cache survives the backward pass untouched (the fused backward
        # and the split B/W spelling both read it).
        assert np.array_equal(cache["normalised"], expected_cache["normalised"])
        assert np.array_equal(x, inputs_before[0]) and np.array_equal(grad_output, inputs_before[1])


# -- FusedAdam: tiling is bit-identical -----------------------------------------------------


class TestTiledAdamIsBitIdentical:
    SIZES = [(37, 11), (250,), (3, 3, 3)]  # 684 elements

    @pytest.mark.parametrize("tile", [1, 7, 64, 100, 683, 684, 685, 4096])
    @pytest.mark.parametrize(
        "weight_decay, decoupled", [(0.0, False), (0.01, False), (0.01, True)]
    )
    def test_three_steps_match_the_untiled_reference(self, monkeypatch, tile, weight_decay, decoupled):
        monkeypatch.setattr(fused_adam, "_TILE_ELEMENTS", tile)
        rng = np.random.default_rng(tile)
        parameters = [Parameter(rng.standard_normal(shape), name=f"p{i}") for i, shape in enumerate(self.SIZES)]
        arena = ParameterArena(parameters)
        optimizer = FusedAdam(
            arena, lr=3e-3, weight_decay=weight_decay, decoupled_weight_decay=decoupled
        )
        assert optimizer._scratch.size == min(tile, arena.num_trainable_elements)

        data = arena.trainable_data.copy()
        exp_avg = np.zeros_like(data)
        exp_avg_sq = np.zeros_like(data)
        for step in range(1, 4):
            grad = rng.standard_normal(data.size)
            arena.trainable_grad[...] = grad
            optimizer.step()
            ref_adam_step(
                data, grad, exp_avg, exp_avg_sq, step,
                lr=3e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                weight_decay=weight_decay, decoupled=decoupled,
            )
            assert np.array_equal(arena.trainable_data, data)
            assert np.array_equal(arena.trainable_grad, grad)  # the gradient is read-only to step
            assert np.array_equal(optimizer._exp_avg_flat, exp_avg)
            assert np.array_equal(optimizer._exp_avg_sq_flat, exp_avg_sq)

    def test_scratch_is_tile_sized_not_arena_sized(self):
        parameters = [Parameter(np.zeros(3 * fused_adam._TILE_ELEMENTS + 5), name="big")]
        optimizer = FusedAdam(ParameterArena(parameters))
        assert optimizer._scratch.size == optimizer._scratch2.size == fused_adam._TILE_ELEMENTS

    def test_arena_without_trainable_parameters_steps_cleanly(self):
        frozen = Parameter(np.ones(4), name="frozen", requires_grad=False)
        optimizer = FusedAdam(ParameterArena([frozen]))
        optimizer.step()
        assert np.all(frozen.data == 1.0)


# -- source guard ---------------------------------------------------------------------------


def test_no_einsum_left_in_the_numerics_packages():
    """Every contraction in ``repro.nn`` / ``repro.tensor`` goes through BLAS ``matmul``."""
    offenders = [
        str(path.relative_to(SRC))
        for package in ("nn", "tensor")
        for path in sorted((SRC / package).rglob("*.py"))
        if re.search(r"\beinsum\s*\(", path.read_text(encoding="utf-8"))
    ]
    assert offenders == []

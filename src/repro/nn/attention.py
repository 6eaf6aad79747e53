"""Causal multi-head self-attention with an explicit backward pass."""

from __future__ import annotations

import numpy as np

from repro.nn.linear import Linear, LinearCache
from repro.nn.module import Module
from repro.tensor import functional as F


class AttentionCache:
    """All intermediate activations needed for the attention backward pass."""

    __slots__ = (
        "qkv_cache",
        "proj_cache",
        "queries",
        "keys",
        "values",
        "attention_probs",
        "context",
        "dropout_mask",
        "input_shape",
    )

    def __init__(self) -> None:
        self.qkv_cache: LinearCache | None = None
        self.proj_cache: LinearCache | None = None
        self.queries: np.ndarray | None = None
        self.keys: np.ndarray | None = None
        self.values: np.ndarray | None = None
        self.attention_probs: np.ndarray | None = None
        self.context: np.ndarray | None = None
        self.dropout_mask: np.ndarray | None = None
        self.input_shape: tuple[int, ...] | None = None


class MultiHeadSelfAttention(Module):
    """Megatron-style causal self-attention block (without the surrounding LayerNorm).

    Shapes follow the ``(batch, seq, hidden)`` convention.  The QKV projection is a
    single fused Linear of width ``3 * hidden`` as in Megatron-LM, and the output
    projection uses the residual-output initialisation scaling.
    """

    def __init__(
        self,
        hidden_size: int,
        num_heads: int,
        rng: np.random.Generator,
        num_layers_for_init: int = 1,
        attention_dropout: float = 0.0,
        init_std: float = 0.02,
    ) -> None:
        super().__init__()
        if hidden_size % num_heads != 0:
            raise ValueError(
                f"hidden_size {hidden_size} must be divisible by num_heads {num_heads}"
            )
        self.hidden_size = int(hidden_size)
        self.num_heads = int(num_heads)
        self.head_dim = hidden_size // num_heads
        self.attention_dropout = float(attention_dropout)

        self.qkv = self.register_module(
            "qkv", Linear(hidden_size, 3 * hidden_size, rng, init_std=init_std)
        )
        self.proj = self.register_module(
            "proj",
            Linear(
                hidden_size,
                hidden_size,
                rng,
                init_std=init_std,
                output_layer_num_layers=num_layers_for_init,
            ),
        )

    # -- helpers -------------------------------------------------------------

    def _heads(self, merged: np.ndarray) -> np.ndarray:
        """Head-major view ``(parts, batch, heads, seq, head_dim)`` of ``(batch, seq, parts * hidden)``.

        A strided view, never a copy: BLAS reads and writes the heads where
        they lie, so the fused QKV activation (and its gradient) is laid out
        once, by the Linear that produces (consumes) it.
        """
        batch, seq, width = merged.shape
        return merged.reshape(
            batch, seq, width // self.hidden_size, self.num_heads, self.head_dim
        ).transpose(2, 0, 3, 1, 4)

    # -- forward / backward --------------------------------------------------

    def forward(
        self, x: np.ndarray, rng: np.random.Generator | None = None
    ) -> tuple[np.ndarray, AttentionCache]:
        """Causal self-attention; returns output and cache."""
        cache = AttentionCache()
        cache.input_shape = x.shape
        batch, seq, _ = x.shape

        qkv, cache.qkv_cache = self.qkv.forward(x)
        queries, keys, values = self._heads(qkv)
        cache.queries, cache.keys, cache.values = queries, keys, values

        scores = np.matmul(queries, keys.swapaxes(-1, -2))
        scores *= 1.0 / np.sqrt(self.head_dim)
        F.masked_fill(scores, F.causal_mask(seq), out=scores)
        probs = F.softmax(scores, axis=-1, out=scores)

        if self.training and self.attention_dropout > 0.0 and rng is not None:
            probs, cache.dropout_mask = F.dropout_forward(
                probs, self.attention_dropout, rng, training=True
            )
        cache.attention_probs = probs

        merged = np.empty((batch, seq, self.hidden_size))
        np.matmul(probs, values, out=self._heads(merged)[0])
        cache.context = merged
        output, cache.proj_cache = self.proj.forward(merged)
        return output, cache

    def backward(self, grad_output: np.ndarray, cache: AttentionCache) -> np.ndarray:
        """Backward pass; accumulates parameter gradients, returns input gradient.

        Equivalent to :meth:`backward_input` followed by :meth:`backward_weight`
        (bit-for-bit — the split spelling runs the same kernels and merely
        defers the two Linear weight accumulations).
        """
        grad_input = self.backward_input(grad_output, cache)
        self.backward_weight(cache)
        return grad_input

    def backward_input(self, grad_output: np.ndarray, cache: AttentionCache) -> np.ndarray:
        """B pass: input gradient only; the qkv/proj weight gradients are deferred."""
        grad_merged = self.proj.backward_input(grad_output, cache.proj_cache)
        grad_context = self._heads(grad_merged)[0]

        batch, seq, _ = cache.input_shape
        grad_qkv = np.empty((batch, seq, 3 * self.hidden_size))
        grad_queries, grad_keys, grad_values = self._heads(grad_qkv)

        probs = cache.attention_probs
        grad_probs = np.matmul(grad_context, cache.values.swapaxes(-1, -2))
        np.matmul(probs.swapaxes(-1, -2), grad_context, out=grad_values)

        grad_probs = F.dropout_backward(grad_probs, cache.dropout_mask)
        grad_scores = F.softmax_backward(grad_probs, probs, axis=-1)
        # Masked positions have zero probability, so their score gradient is already zero.
        grad_scores *= 1.0 / np.sqrt(self.head_dim)
        np.matmul(grad_scores, cache.keys, out=grad_queries)
        np.matmul(grad_scores.swapaxes(-1, -2), cache.queries, out=grad_keys)

        grad_input = self.qkv.backward_input(grad_qkv, cache.qkv_cache)
        # Release everything the deferred W pass does not need (the zero-bubble
        # memory claim: after B, only the Linear W stashes stay alive).
        cache.queries = cache.keys = cache.values = None
        cache.attention_probs = cache.context = cache.dropout_mask = None
        return grad_input

    def backward_weight(self, cache: AttentionCache) -> None:
        """W pass: accumulate the qkv/proj weight gradients stashed by the B pass."""
        self.proj.backward_weight(cache.proj_cache)
        self.qkv.backward_weight(cache.qkv_cache)

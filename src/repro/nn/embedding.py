"""Token and position embedding layers.

The token-embedding weight is deliberately named ``word_embeddings`` so that the
fused-embedding-synchronisation component can find it by name, matching the
detection strategy described in Section 8 of the paper.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import init
from repro.tensor.parameter import Parameter


class EmbeddingCache:
    """Cache for the embedding backward pass.

    ``indices`` is stored by the forward pass; ``grad_output`` is stashed by
    :meth:`Embedding.backward_input` so the scatter-add (the weight-gradient
    work) can run later as a deferred :meth:`Embedding.backward_weight` pass.
    """

    __slots__ = ("indices", "grad_output")

    def __init__(self, indices: np.ndarray) -> None:
        self.indices = indices
        self.grad_output: np.ndarray | None = None


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator,
        init_std: float = 0.02,
        name: str = "word_embeddings",
    ) -> None:
        super().__init__()
        self.num_embeddings = int(num_embeddings)
        self.embedding_dim = int(embedding_dim)
        weight = init.normal_init((num_embeddings, embedding_dim), rng, std=init_std)
        self.weight = self.register_parameter(name, Parameter(weight))

    def forward(self, indices: np.ndarray) -> tuple[np.ndarray, EmbeddingCache]:
        """Gather rows of the embedding table; returns output and cache."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding indices out of range [0, {self.num_embeddings}) "
                f"(min={indices.min()}, max={indices.max()})"
            )
        return self.weight.data[indices], EmbeddingCache(indices)

    def backward(self, grad_output: np.ndarray, cache: EmbeddingCache) -> None:
        """Scatter-add the upstream gradient into the embedding weight gradient."""
        self.weight.accumulate_rows(
            cache.indices.reshape(-1), grad_output.reshape(-1, self.embedding_dim)
        )

    def backward_input(self, grad_output: np.ndarray, cache: EmbeddingCache) -> None:
        """B pass: an embedding lookup has no input gradient — just stash for W."""
        cache.grad_output = grad_output

    def backward_weight(self, cache: EmbeddingCache) -> None:
        """W pass: run the deferred scatter-add stashed by the B pass."""
        if cache.grad_output is None:
            raise RuntimeError("backward_weight called before backward_input")
        self.backward(cache.grad_output, cache)
        cache.grad_output = None

    def project_to_vocab(self, hidden: np.ndarray) -> np.ndarray:
        """Use the embedding weight as a tied output projection (logits)."""
        return hidden @ self.weight.data.T

    def project_to_vocab_backward(
        self, grad_logits: np.ndarray, hidden: np.ndarray
    ) -> np.ndarray:
        """Backward of the tied output projection.

        Accumulates the gradient contribution into the shared embedding weight and
        returns the gradient with respect to ``hidden``.  In pipeline-parallel
        training this contribution is what makes the *embedding synchronisation*
        all-reduce necessary: the first stage owns the input-lookup gradient and the
        last stage owns this output-projection gradient.
        """
        flat_hidden = hidden.reshape(-1, self.embedding_dim)
        flat_grad = grad_logits.reshape(-1, self.num_embeddings)
        self.weight.accumulate_matmul(flat_grad.T, flat_hidden)
        return grad_logits @ self.weight.data

    def project_to_vocab_backward_input(
        self, grad_logits: np.ndarray, hidden: np.ndarray
    ) -> np.ndarray:
        """B pass of the tied projection: the gradient w.r.t. ``hidden`` only."""
        del hidden  # needed only by the weight-gradient half
        return grad_logits @ self.weight.data

    def project_to_vocab_backward_weight(
        self, grad_logits: np.ndarray, hidden: np.ndarray
    ) -> None:
        """W pass of the tied projection: accumulate the weight gradient."""
        flat_hidden = hidden.reshape(-1, self.embedding_dim)
        flat_grad = grad_logits.reshape(-1, self.num_embeddings)
        self.weight.accumulate_matmul(flat_grad.T, flat_hidden)

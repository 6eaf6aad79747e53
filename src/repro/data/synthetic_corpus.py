"""Seeded synthetic language used for functional pretraining.

The corpus is defined by a sparse first-order Markov chain over the vocabulary:

* unigram frequencies follow a Zipfian distribution (like natural language);
* each token has a small set of likely successors (sparse transition rows), so a
  language model can reduce its perplexity far below the uniform baseline by
  learning the transition structure;
* a configurable fraction of "idiom" tokens have near-deterministic successors,
  which gives the cloze (LAMBADA-like) task examples whose final token is
  predictable from context.

Train and validation streams are drawn from the same chain with disjoint random
streams, mirroring the paper's 95 % / 5 % document-level split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.random import RandomState


@dataclass(frozen=True)
class SyntheticCorpusConfig:
    """Parameters of the synthetic language."""

    vocab_size: int = 128
    successors_per_token: int = 4
    zipf_exponent: float = 1.1
    idiom_fraction: float = 0.25
    idiom_determinism: float = 0.95
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.vocab_size < 8:
            raise ValueError(f"vocab_size must be at least 8, got {self.vocab_size}")
        if not 1 <= self.successors_per_token <= self.vocab_size:
            raise ValueError("successors_per_token must be in [1, vocab_size]")
        if not 0.0 <= self.idiom_fraction <= 1.0:
            raise ValueError("idiom_fraction must be in [0, 1]")
        if not 0.0 < self.idiom_determinism <= 1.0:
            raise ValueError("idiom_determinism must be in (0, 1]")


class SyntheticCorpus:
    """Generator of token sequences from the synthetic language."""

    def __init__(self, config: SyntheticCorpusConfig | None = None) -> None:
        self.config = config if config is not None else SyntheticCorpusConfig()
        self._state = RandomState(self.config.seed)
        self._build_language()

    # -- language construction ---------------------------------------------------

    def _build_language(self) -> None:
        config = self.config
        rng = self._state.child("language")
        vocab = config.vocab_size

        ranks = np.arange(1, vocab + 1, dtype=np.float64)
        unigram = ranks ** (-config.zipf_exponent)
        self.unigram = unigram / unigram.sum()

        transitions = np.zeros((vocab, vocab), dtype=np.float64)
        num_idioms = int(round(config.idiom_fraction * vocab))
        idiom_tokens = rng.choice(vocab, size=num_idioms, replace=False) if num_idioms else np.array([], dtype=int)
        self.idiom_tokens = set(int(token) for token in idiom_tokens)
        self.idiom_successor: dict[int, int] = {}

        for token in range(vocab):
            successors = rng.choice(vocab, size=config.successors_per_token, replace=False)
            weights = rng.dirichlet(np.ones(config.successors_per_token) * 0.5)
            if token in self.idiom_tokens:
                # One near-deterministic successor, the rest share the remainder.
                primary = int(successors[0])
                self.idiom_successor[token] = primary
                transitions[token, successors] = (1.0 - config.idiom_determinism) * weights
                transitions[token, primary] += config.idiom_determinism
            else:
                transitions[token, successors] = weights
            # Mix in a little unigram mass so every token remains reachable.
            transitions[token] = 0.9 * transitions[token] + 0.1 * self.unigram
            transitions[token] /= transitions[token].sum()

        self.transitions = transitions
        # Rounding can leave a cumulative row's end just below 1.0, where a
        # draw in the gap would sample token ``vocab``; every row ends at 1.0.
        self._cumulative_transitions = np.cumsum(transitions, axis=1)
        self._cumulative_transitions[:, -1] = 1.0
        self._cumulative_unigram = np.cumsum(self.unigram)
        self._cumulative_unigram[-1] = 1.0

    # -- sampling ------------------------------------------------------------------

    def _sample_next(self, token: int, rng: np.random.Generator) -> int:
        row = self._cumulative_transitions[token]
        return int(np.searchsorted(row, rng.random(), side="right"))

    def sample_sequence(self, length: int, rng: np.random.Generator) -> np.ndarray:
        """Sample one token sequence of ``length`` tokens."""
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        sequence = np.empty(length, dtype=np.int64)
        sequence[0] = int(np.searchsorted(self._cumulative_unigram, rng.random(), side="right"))
        for position in range(1, length):
            sequence[position] = self._sample_next(int(sequence[position - 1]), rng)
        return sequence

    def sample_batch(self, batch_size: int, length: int, rng: np.random.Generator) -> np.ndarray:
        """Sample a ``(batch_size, length)`` batch of sequences."""
        return np.stack([self.sample_sequence(length, rng) for _ in range(batch_size)])

    def train_rng(self, iteration: int, replica: int = 0) -> np.random.Generator:
        """Deterministic RNG stream for a training iteration and data-parallel replica."""
        return self._state.child("train", iteration, replica)

    def validation_rng(self, batch_index: int = 0) -> np.random.Generator:
        """Deterministic RNG stream for validation batches (disjoint from training)."""
        return self._state.child("validation", batch_index)

    def task_rng(self, task_name: str) -> np.random.Generator:
        """Deterministic RNG stream for building a zero-shot task."""
        return self._state.child("task", task_name)

    # -- reference statistics -------------------------------------------------------

    def entropy_rate(self) -> float:
        """Expected per-token conditional entropy (nats) of the true language.

        This is the perplexity floor an ideal model could reach; useful as a sanity
        reference in the functional experiments.
        """
        stationary = self.unigram
        row_entropies = -np.sum(
            np.where(self.transitions > 0, self.transitions * np.log(self.transitions), 0.0),
            axis=1,
        )
        return float(np.dot(stationary, row_entropies))

    def optimal_perplexity(self) -> float:
        """Perplexity of the true language model (``exp`` of the entropy rate)."""
        return float(np.exp(self.entropy_rate()))

"""Tests for the synthetic corpus, the data loader, and the zero-shot tasks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    ClozeTask,
    LanguageModelingDataLoader,
    MultipleChoiceTask,
    SyntheticCorpusConfig,
    build_zero_shot_suite,
)
from repro.data.tasks import ZeroShotExample, ZeroShotTask


class TestSyntheticCorpus:
    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            SyntheticCorpusConfig(vocab_size=4)
        with pytest.raises(ValueError):
            SyntheticCorpusConfig(successors_per_token=0)
        with pytest.raises(ValueError):
            SyntheticCorpusConfig(idiom_fraction=1.5)

    def test_transitions_are_distributions(self, corpus):
        assert np.allclose(corpus.transitions.sum(axis=1), 1.0)
        assert np.all(corpus.transitions >= 0)

    def test_sampling_is_deterministic_per_stream(self, corpus):
        a = corpus.sample_batch(2, 10, corpus.train_rng(0, 0))
        b = corpus.sample_batch(2, 10, corpus.train_rng(0, 0))
        assert np.array_equal(a, b)

    def test_streams_differ_across_iterations_and_replicas(self, corpus):
        a = corpus.sample_batch(2, 10, corpus.train_rng(0, 0))
        b = corpus.sample_batch(2, 10, corpus.train_rng(1, 0))
        c = corpus.sample_batch(2, 10, corpus.train_rng(0, 1))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation_stream_disjoint_from_training(self, corpus):
        train = corpus.sample_batch(2, 10, corpus.train_rng(0, 0))
        validation = corpus.sample_batch(2, 10, corpus.validation_rng(0))
        assert not np.array_equal(train, validation)

    def test_tokens_within_vocabulary(self, corpus):
        batch = corpus.sample_batch(4, 50, corpus.train_rng(3, 0))
        assert batch.min() >= 0 and batch.max() < 64

    def test_idiom_structure_exists(self, corpus):
        assert corpus.idiom_tokens
        for token, successor in corpus.idiom_successor.items():
            assert corpus.transitions[token, successor] > 0.5

    def test_language_is_learnable(self, corpus):
        """The true model's perplexity must be far below the uniform baseline."""
        assert corpus.optimal_perplexity() < 64 * 0.5

    def test_a_draw_just_below_one_samples_the_last_token(self, corpus):
        """Rounding leaves cumulative rows ending below 1.0; no draw may fall past them."""

        class TopOfUnitInterval:
            def random(self):
                return np.nextafter(1.0, 0.0)

        last = corpus.config.vocab_size - 1
        draws = TopOfUnitInterval()
        assert corpus.sample_sequence(1, draws)[0] == last
        assert {corpus._sample_next(token, draws) for token in range(last + 1)} == {last}

    def test_invalid_length_raises(self, corpus):
        with pytest.raises(ValueError):
            corpus.sample_sequence(0, corpus.train_rng(0, 0))


class TestDataLoader:
    def test_shapes_and_counts(self, corpus):
        loader = LanguageModelingDataLoader(
            corpus, sequence_length=12, micro_batch_size=3, num_micro_batches=4, data_parallel_degree=2
        )
        batches = loader.iteration_batches(0)
        assert len(batches) == 2
        assert len(batches[0]) == 4
        micro = batches[0][0]
        assert micro.tokens.shape == (3, 12)
        assert micro.targets.shape == (3, 12)
        assert loader.mini_batch_size == 3 * 4 * 2

    def test_targets_are_shifted_tokens(self, corpus):
        loader = LanguageModelingDataLoader(corpus, 8, 2, 1)
        micro = loader.iteration_batches(0)[0][0]
        # The target at position t is the token that followed in the sampled stream,
        # which equals the next input token for positions < seq_len - 1.
        assert np.array_equal(micro.tokens[:, 1:], micro.targets[:, :-1])

    def test_iterations_are_deterministic(self, corpus):
        loader = LanguageModelingDataLoader(corpus, 8, 2, 2, data_parallel_degree=2)
        first = loader.iteration_batches(5)
        second = loader.iteration_batches(5)
        assert np.array_equal(first[1][1].tokens, second[1][1].tokens)

    def test_replicas_see_different_data(self, corpus):
        loader = LanguageModelingDataLoader(corpus, 8, 2, 1, data_parallel_degree=2)
        batches = loader.iteration_batches(0)
        assert not np.array_equal(batches[0][0].tokens, batches[1][0].tokens)

    def test_validation_batch_fixed(self, corpus):
        loader = LanguageModelingDataLoader(corpus, 8, 2, 1)
        assert np.array_equal(loader.validation_batch(0).tokens, loader.validation_batch(0).tokens)
        assert not np.array_equal(loader.validation_batch(0).tokens, loader.validation_batch(1).tokens)

    def test_invalid_arguments_raise(self, corpus):
        with pytest.raises(ValueError):
            LanguageModelingDataLoader(corpus, 0, 2, 1)
        with pytest.raises(ValueError):
            LanguageModelingDataLoader(corpus, 8, 2, 1, data_parallel_degree=0)

    def test_micro_batch_shape_validation(self):
        with pytest.raises(ValueError):
            from repro.data.dataloader import MicroBatch

            MicroBatch(tokens=np.zeros((2, 4)), targets=np.zeros((2, 5)))


class TestZeroShotTasks:
    def test_cloze_task_structure(self, corpus):
        task = ClozeTask(num_examples=16).build(corpus)
        assert task.protocol == "cloze"
        assert task.num_examples == 16
        for example in task.examples:
            trigger = int(example.context[-1])
            assert trigger in corpus.idiom_tokens
            assert example.choices[0][0] == corpus.idiom_successor[trigger]

    def test_multiple_choice_structure(self, corpus):
        task = MultipleChoiceTask(num_choices=4, num_examples=12).build(corpus)
        assert task.protocol == "multiple_choice"
        assert task.chance_accuracy == pytest.approx(0.25)
        for example in task.examples:
            assert len(example.choices) == 4
            assert 0 <= example.answer_index < 4

    def test_suite_has_five_tasks(self, corpus):
        suite = build_zero_shot_suite(corpus, examples_per_task=8)
        assert len(suite) == 5
        assert {task.name for task in suite} == {
            "synthetic-lambada",
            "synthetic-piqa",
            "synthetic-mathqa",
            "synthetic-winogrande",
            "synthetic-race",
        }

    def test_oracle_model_beats_chance(self, corpus):
        """Scoring with the true language model must beat random guessing."""
        transitions = corpus.transitions

        def oracle_logits(token_ids: np.ndarray) -> np.ndarray:
            batch, seq = token_ids.shape
            logits = np.zeros((batch, seq, corpus.config.vocab_size))
            for b in range(batch):
                for t in range(seq):
                    logits[b, t] = np.log(transitions[int(token_ids[b, t])] + 1e-12)
            return logits

        suite = build_zero_shot_suite(corpus, examples_per_task=24)
        for task in suite:
            accuracy = task.evaluate(oracle_logits)
            if task.protocol == "cloze":
                assert accuracy > 0.8
            else:
                assert accuracy > task.chance_accuracy + 0.1

    def test_random_model_is_near_chance(self, corpus):
        rng = np.random.default_rng(0)

        def random_logits(token_ids: np.ndarray) -> np.ndarray:
            return rng.normal(size=(*token_ids.shape, corpus.config.vocab_size)) * 0.01

        task = MultipleChoiceTask(num_choices=2, num_examples=40).build(corpus)
        accuracy = task.evaluate(random_logits)
        assert 0.2 < accuracy < 0.8

    def test_empty_task_raises(self):
        task = ZeroShotTask(name="empty", protocol="cloze", examples=[])
        with pytest.raises(ValueError):
            task.evaluate(lambda ids: np.zeros((*ids.shape, 4)))

    def test_invalid_example_raises(self):
        with pytest.raises(ValueError):
            ZeroShotExample(context=np.zeros(3, dtype=np.int64), choices=[np.zeros(1, dtype=np.int64)], answer_index=2)

    def test_unknown_protocol_raises(self, corpus):
        task = ClozeTask(num_examples=4).build(corpus)
        broken = ZeroShotTask(name="x", protocol="ranking", examples=task.examples)
        with pytest.raises(ValueError):
            broken.evaluate(lambda ids: np.zeros((*ids.shape, corpus.config.vocab_size)))

    def test_log_likelihood_scoring_uses_continuation_positions(self, corpus):
        """The MC scorer conditions each continuation token on the true prefix."""
        from repro.data.tasks import _sequence_log_likelihood

        vocab = corpus.config.vocab_size
        context = np.array([1, 2, 3], dtype=np.int64)

        def peaked_logits(token_ids: np.ndarray) -> np.ndarray:
            # Always predict "next token = current token + 1" with high confidence.
            batch, seq = token_ids.shape
            logits = np.full((batch, seq, vocab), -10.0)
            for t in range(seq):
                nxt = int(token_ids[0, t]) + 1
                if nxt < vocab:
                    logits[0, t, nxt] = 10.0
            return logits

        good = _sequence_log_likelihood(peaked_logits, context, np.array([4, 5]))
        bad = _sequence_log_likelihood(peaked_logits, context, np.array([9, 9]))
        assert good > bad

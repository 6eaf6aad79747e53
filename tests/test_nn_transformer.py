"""Tests for the transformer layer, the full GPT model, and the loss module."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import CrossEntropyLoss, GPTModel, GPTModelConfig, TransformerLayer
from repro.nn.loss import loss_from_perplexity, perplexity_from_loss

from tests.conftest import numerical_gradient


class TestTransformerLayer:
    def test_backward_matches_numerical(self, rng):
        layer = TransformerLayer(4, 2, rng, num_layers_for_init=2)
        x = rng.normal(size=(1, 3, 4))
        weights = rng.normal(size=(1, 3, 4))

        def loss():
            out, _ = layer.forward(x)
            return float(np.sum(out * weights))

        out, cache = layer.forward(x)
        grad_input = layer.backward(weights, cache)
        assert np.allclose(grad_input, numerical_gradient(loss, x), atol=1e-5)
        assert np.allclose(
            layer.mlp.fc.weight.grad,
            numerical_gradient(loss, layer.mlp.fc.weight.data),
            atol=1e-5,
        )
        assert np.allclose(
            layer.ln1.gamma.grad, numerical_gradient(loss, layer.ln1.gamma.data), atol=1e-5
        )

    def test_residual_path_preserves_information(self, rng):
        layer = TransformerLayer(8, 2, rng)
        x = rng.normal(size=(1, 4, 8)) * 5
        out, _ = layer.forward(x)
        # The output keeps a strong linear relationship with the residual input.
        correlation = np.corrcoef(x.reshape(-1), out.reshape(-1))[0, 1]
        assert correlation > 0.5


class TestGPTModelConfig:
    def test_invalid_heads_raises(self):
        with pytest.raises(ValueError):
            GPTModelConfig(vocab_size=8, max_sequence_length=4, num_layers=1, hidden_size=10, num_heads=3)

    def test_invalid_layers_raises(self):
        with pytest.raises(ValueError):
            GPTModelConfig(vocab_size=8, max_sequence_length=4, num_layers=0, hidden_size=8, num_heads=2)

    def test_parameter_count_matches_instantiated_model(self, tiny_config):
        model = GPTModel(tiny_config, seed=0)
        assert model.num_parameters() == tiny_config.parameter_count()


class TestGPTModel:
    def test_logits_shape(self, tiny_config, rng):
        model = GPTModel(tiny_config, seed=0)
        tokens = rng.integers(0, tiny_config.vocab_size, size=(2, 8))
        logits, _ = model.forward(tokens)
        assert logits.shape == (2, 8, tiny_config.vocab_size)

    def test_sequence_too_long_raises(self, tiny_config, rng):
        model = GPTModel(tiny_config, seed=0)
        tokens = rng.integers(0, tiny_config.vocab_size, size=(1, tiny_config.max_sequence_length + 1))
        with pytest.raises(ValueError):
            model.forward(tokens)

    def test_same_seed_same_weights(self, tiny_config):
        a = GPTModel(tiny_config, seed=5)
        b = GPTModel(tiny_config, seed=5)
        for (name_a, param_a), (name_b, param_b) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(param_a.data, param_b.data)

    def test_training_reduces_loss(self, tiny_config, rng):
        """A few gradient steps on a fixed batch must reduce the loss (sanity of backprop)."""
        model = GPTModel(tiny_config, seed=1)
        loss_fn = CrossEntropyLoss()
        tokens = rng.integers(0, tiny_config.vocab_size, size=(4, 8))
        targets = rng.integers(0, tiny_config.vocab_size, size=(4, 8))

        losses = []
        for _ in range(20):
            for parameter in model.parameters():
                parameter.zero_grad()
            logits, cache = model.forward(tokens)
            loss, loss_cache = loss_fn.forward(logits, targets)
            model.backward(loss_fn.backward(loss_cache), cache)
            for parameter in model.parameters():
                parameter.data -= 0.05 * parameter.grad
            losses.append(loss)
        assert losses[-1] < losses[0] * 0.9

    def test_tied_embedding_gradient_has_two_contributions(self, tiny_config, rng):
        """The word-embedding gradient must include lookup and projection terms."""
        model = GPTModel(tiny_config, seed=2)
        loss_fn = CrossEntropyLoss()
        tokens = rng.integers(0, tiny_config.vocab_size, size=(2, 6))
        targets = rng.integers(0, tiny_config.vocab_size, size=(2, 6))
        logits, cache = model.forward(tokens)
        loss, loss_cache = loss_fn.forward(logits, targets)
        model.backward(loss_fn.backward(loss_cache), cache)
        grad = model.token_embedding.weight.grad
        # Rows for tokens never seen in the input still receive projection gradient.
        unseen = [t for t in range(tiny_config.vocab_size) if t not in set(tokens.reshape(-1))]
        assert unseen, "test setup should leave some tokens unseen"
        assert np.abs(grad[unseen]).max() > 0

    def test_word_embedding_parameter_is_named(self, tiny_config):
        model = GPTModel(tiny_config, seed=0)
        names = [name for name, _ in model.named_parameters()]
        assert any("word_embeddings" in name for name in names)


class TestLossHelpers:
    def test_perplexity_round_trip(self):
        assert perplexity_from_loss(loss_from_perplexity(12.5)) == pytest.approx(12.5)

    def test_perplexity_is_clamped(self):
        assert np.isfinite(perplexity_from_loss(1e9))

    def test_invalid_perplexity_raises(self):
        with pytest.raises(ValueError):
            loss_from_perplexity(0.0)

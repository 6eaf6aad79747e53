"""Tests for the optimiser and learning-rate schedules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.optim import (
    ConstantSchedule,
    CosineWithWarmup,
    FusedAdam,
    LinearWarmupLinearDecay,
)
from repro.parallel.arena import ParameterArena
from repro.tensor.parameter import Parameter


def quadratic_parameter(start: float = 5.0) -> Parameter:
    """A 1-element parameter for minimising f(w) = w^2 (gradient 2w)."""
    return Parameter(np.array([start]))


def adam(parameter: Parameter, **kwargs) -> FusedAdam:
    """The fused optimiser over an arena holding ``parameter`` alone."""
    return FusedAdam(ParameterArena([parameter]), **kwargs)


class TestFusedAdam:
    def test_converges_on_quadratic(self):
        parameter = quadratic_parameter()
        optimizer = adam(parameter, lr=0.5)
        for _ in range(100):
            parameter.grad[...] = 2 * parameter.data
            optimizer.step()
        assert abs(parameter.data[0]) < 0.05

    def test_first_step_size_close_to_lr(self):
        """Adam's bias correction makes the first update approximately lr-sized."""
        parameter = Parameter(np.array([1.0]))
        optimizer = adam(parameter, lr=0.01)
        parameter.grad[...] = 0.3
        optimizer.step()
        assert parameter.data[0] == pytest.approx(1.0 - 0.01, abs=1e-4)

    def test_invalid_betas_raise(self):
        with pytest.raises(ValueError):
            adam(quadratic_parameter(), betas=(1.2, 0.9))

    def test_adamw_decay_is_decoupled(self):
        """With zero gradient, AdamW still decays the weight; plain Adam does not."""
        adam_param = Parameter(np.array([1.0]))
        adamw_param = Parameter(np.array([1.0]))
        plain = adam(adam_param, lr=0.1, weight_decay=0.0)
        decoupled = adam(adamw_param, lr=0.1, weight_decay=0.1, decoupled_weight_decay=True)
        adam_param.grad[...] = 0.0
        adamw_param.grad[...] = 0.0
        plain.step()
        decoupled.step()
        assert adam_param.data[0] == pytest.approx(1.0)
        assert adamw_param.data[0] < 1.0

    def test_l2_weight_decay_shrinks_weights(self):
        """Coupled decay goes through the gradient: a zero gradient still moves the weight."""
        parameter = Parameter(np.array([1.0]))
        optimizer = adam(parameter, lr=0.1, weight_decay=0.5)
        parameter.grad[...] = 0.0
        optimizer.step()
        assert parameter.data[0] < 1.0

    def test_frozen_parameter_is_skipped(self):
        frozen = Parameter(np.array([1.0]), requires_grad=False)
        trained = quadratic_parameter()
        optimizer = FusedAdam(ParameterArena([trained, frozen]), lr=0.1)
        frozen.grad[...] = 10.0
        trained.grad[...] = 10.0
        optimizer.step()
        assert frozen.data[0] == 1.0
        assert trained.data[0] < 5.0

    def test_deterministic_given_same_gradients(self):
        a, b = quadratic_parameter(), quadratic_parameter()
        opt_a, opt_b = adam(a, lr=0.1), adam(b, lr=0.1)
        for _ in range(5):
            a.grad[...] = 2 * a.data
            b.grad[...] = 2 * b.data
            opt_a.step()
            opt_b.step()
        assert np.array_equal(a.data, b.data)


class TestSchedules:
    def test_constant(self):
        schedule = ConstantSchedule(0.01)
        assert schedule.lr_at(0) == schedule.lr_at(1000) == 0.01

    def test_cosine_warmup_then_decay(self):
        schedule = CosineWithWarmup(max_lr=1.0, warmup_iterations=10, total_iterations=110, min_lr=0.1)
        assert schedule.lr_at(0) == pytest.approx(0.1, abs=0.01)
        assert schedule.lr_at(9) == pytest.approx(1.0)
        assert schedule.lr_at(110) == pytest.approx(0.1)
        mid = schedule.lr_at(60)
        assert 0.1 < mid < 1.0

    def test_cosine_is_monotonically_decreasing_after_warmup(self):
        schedule = CosineWithWarmup(max_lr=1.0, warmup_iterations=5, total_iterations=50)
        values = [schedule.lr_at(i) for i in range(5, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_linear_decay(self):
        schedule = LinearWarmupLinearDecay(max_lr=1.0, warmup_iterations=0, total_iterations=10, min_lr=0.0)
        assert schedule.lr_at(5) == pytest.approx(0.5)
        assert schedule.lr_at(10) == pytest.approx(0.0)

    def test_apply_sets_optimizer_lr(self):
        parameter = quadratic_parameter()
        optimizer = adam(parameter, lr=123.0)
        ConstantSchedule(0.25).apply(optimizer, iteration=3)
        assert optimizer.lr == 0.25

    def test_invalid_configuration_raises(self):
        with pytest.raises(ValueError):
            CosineWithWarmup(max_lr=-1, warmup_iterations=0, total_iterations=10)
        with pytest.raises(ValueError):
            ConstantSchedule(0.0)

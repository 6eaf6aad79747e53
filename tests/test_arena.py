"""Tests for the flat-arena execution core.

Four layers are covered:

* **arena adoption** — parameters keep their values bit-for-bit, every in-place
  access aliases the flat buffers, and ``zero_grad`` is one buffer-wide write;
* **bucket planning** — size-targeted buckets exactly tile the DP-synchronised
  parameters (a Hypothesis property: the sum of bucket elements equals the sum of
  parameter sizes, spans are disjoint and arena-contiguous);
* **residual slabs** — a codec bucket's error-feedback slab is allocated once and
  a stored slab of another shape raises instead of being silently replaced;
* **fused optimiser** — :class:`repro.optim.FusedAdam` matches the per-parameter
  Adam/AdamW loop frozen in ``per_parameter_oracle`` bit-for-bit across steps
  and weight-decay modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selective_stage import SelectiveStageCompression
from repro.optim import FusedAdam
from repro.parallel.arena import (
    WIRE_BYTES_PER_ELEMENT,
    BucketResidualStore,
    CodecBucket,
    ParameterArena,
    build_codec_buckets,
    build_gradient_buckets,
)
from repro.parallel.collectives import CommunicationLog, SimulatedProcessGroup
from repro.tensor.parameter import Parameter
from per_parameter_oracle import Adam, AdamW
from replica_folds import fold_replicas


def make_parameters(shapes, rng, prefix="p", requires_grad=None):
    parameters = []
    for index, shape in enumerate(shapes):
        parameter = Parameter(
            rng.standard_normal(shape),
            name=f"{prefix}{index}",
            requires_grad=True if requires_grad is None else requires_grad[index],
        )
        parameter.grad[...] = rng.standard_normal(shape)
        parameters.append(parameter)
    return parameters


class TestParameterArena:
    def test_adoption_preserves_values_bit_for_bit(self, rng):
        parameters = make_parameters([(4, 3), (7,), (2, 2, 2)], rng)
        before_data = [p.data.copy() for p in parameters]
        before_grad = [p.grad.copy() for p in parameters]
        ParameterArena(parameters)
        for parameter, data, grad in zip(parameters, before_data, before_grad):
            assert np.array_equal(parameter.data, data)
            assert np.array_equal(parameter.grad, grad)

    def test_views_alias_the_flat_buffers(self, rng):
        parameters = make_parameters([(3, 2), (5,)], rng)
        arena = ParameterArena(parameters)
        # Writing through the parameter view is visible in the arena and back.
        parameters[0].grad[...] = 7.0
        start, stop = arena.span(parameters[0])
        assert np.all(arena.grad[start:stop] == 7.0)
        arena.data[...] = 1.5
        assert np.all(parameters[1].data == 1.5)
        # In-place optimiser-style ops write through too.
        parameters[1].data -= 0.5
        assert np.all(arena.data[arena.span(parameters[1])[0] :] == 1.0)

    def test_zero_grad_clears_every_parameter(self, rng):
        parameters = make_parameters([(3, 3), (4,)], rng)
        arena = ParameterArena(parameters)
        arena.zero_grad()
        for parameter in parameters:
            assert np.all(parameter.grad == 0.0)

    def test_trainable_prefix_is_contiguous(self, rng):
        parameters = make_parameters(
            [(2, 2), (3,), (4,)], rng, requires_grad=[True, False, True]
        )
        arena = ParameterArena(parameters)
        assert arena.num_trainable_elements == 4 + 4
        trainable = [p for p in arena.parameters if p.requires_grad]
        frozen = [p for p in arena.parameters if not p.requires_grad]
        assert [p.name for p in trainable] == ["p0", "p2"]
        assert arena.span(trainable[-1])[1] == arena.num_trainable_elements
        assert arena.span(frozen[0])[0] == arena.num_trainable_elements

    def test_duplicate_parameter_rejected(self, rng):
        (parameter,) = make_parameters([(2, 2)], rng)
        with pytest.raises(ValueError):
            ParameterArena([parameter, parameter])

    def test_foreign_parameter_span_rejected(self, rng):
        parameters = make_parameters([(2, 2)], rng)
        arena = ParameterArena(parameters)
        (other,) = make_parameters([(2, 2)], rng, prefix="q")
        with pytest.raises(KeyError):
            arena.span(other)


class TestGradientBuckets:
    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=24),
        bucket_bytes=st.integers(min_value=1, max_value=512),
        num_stages=st.integers(min_value=1, max_value=3),
    )
    def test_buckets_exactly_tile_the_synced_parameters(self, sizes, bucket_bytes, num_stages):
        """Property: sum of bucket elements == sum of parameter sizes, spans are
        disjoint, contiguous within the arena, and never cross stage boundaries."""
        rng = np.random.default_rng(0)
        parameters = make_parameters([(size,) for size in sizes], rng)
        arena = ParameterArena(parameters)
        per_stage = max(1, len(parameters) // num_stages)
        stage_parameters = [
            parameters[start : start + per_stage]
            for start in range(0, len(parameters), per_stage)
        ]
        buckets = build_gradient_buckets(arena, stage_parameters, bucket_bytes)

        assert sum(bucket.num_elements for bucket in buckets) == sum(sizes)
        assert sum(bucket.wire_bytes for bucket in buckets) == sum(
            parameter.size * WIRE_BYTES_PER_ELEMENT for parameter in parameters
        )
        covered = set()
        for bucket in buckets:
            span = set(range(bucket.start, bucket.stop))
            assert not (span & covered), "bucket spans overlap"
            covered |= span
            # A bucket's parameters all belong to the stage it is labelled with.
            stage_names = {p.name for p in stage_parameters[bucket.stage_index]}
            assert set(bucket.parameter_names) <= stage_names
            # Size target respected unless the bucket is a single oversized parameter.
            if len(bucket.parameter_names) > 1:
                assert bucket.wire_bytes <= bucket_bytes

    def test_skipped_parameters_break_runs(self, rng):
        parameters = make_parameters([(4,), (4,), (4,)], rng)
        arena = ParameterArena(parameters)
        buckets = build_gradient_buckets(
            arena,
            [parameters],
            bucket_bytes=1 << 20,
            skip=lambda stage, parameter: parameter.name == "p1",
        )
        assert [bucket.parameter_names for bucket in buckets] == [("p0",), ("p2",)]
        assert all(bucket.stage_index == 0 for bucket in buckets)

    def test_frozen_parameters_are_never_bucketed(self, rng):
        parameters = make_parameters(
            [(4,), (4,)], rng, requires_grad=[True, False]
        )
        arena = ParameterArena(parameters)
        buckets = build_gradient_buckets(arena, [parameters], bucket_bytes=1 << 20)
        assert [bucket.parameter_names for bucket in buckets] == [("p0",)]

    def test_invalid_bucket_bytes_rejected(self, rng):
        parameters = make_parameters([(4,)], rng)
        arena = ParameterArena(parameters)
        with pytest.raises(ValueError):
            build_gradient_buckets(arena, [parameters], bucket_bytes=0)


class TestBucketResidualStore:
    @staticmethod
    def bucket(rng) -> CodecBucket:
        parameters = make_parameters([(4, 3), (2, 3)], rng)
        arena = ParameterArena(parameters)
        (bucket,) = build_codec_buckets(arena, [parameters], 1 << 20, lambda stage, p: True)
        return bucket

    def test_a_slab_is_ready_once_a_reduce_has_filled_it(self, rng):
        """Every replica's fold of a bucket's first reduce adds no residual."""
        store, bucket = BucketResidualStore(), self.bucket(rng)
        slab, ready = store.slab(bucket, 2)
        assert slab.shape == (2, 18) and not ready
        again, ready = store.slab(bucket, 2)
        assert again is slab and not ready
        assert store.state_dict() == {}  # nothing in it yet
        store.filled(bucket)
        again, ready = store.slab(bucket, 2)
        assert again is slab and ready
        assert store.state_dict()["0:0"] is slab
        assert store.memory_bytes() == 2 * 18 * 4

    def test_a_stored_slab_of_another_shape_raises_naming_the_bucket(self, rng):
        """Seed bug: a mismatched slab was silently reallocated, restarting error
        feedback with no trace (reachable from a foreign state dict)."""
        store, bucket = BucketResidualStore(), self.bucket(rng)
        store.load_state_dict({"0:0": np.ones((2, 18))})
        with pytest.raises(ValueError, match=r"stage 0 codec bucket 0 is \(2, 18\)"):
            store.slab(bucket, 1)
        assert np.array_equal(store.state_dict()["0:0"], np.ones((2, 18)))  # untouched
        store.clear()  # what a real replica-count change does first
        slab, ready = store.slab(bucket, 1)
        assert slab.shape == (1, 18) and not ready

    def test_powersgd_refuses_a_per_replica_slab(self, rng):
        bucket = self.bucket(rng)
        hook = SelectiveStageCompression(rank=2)
        hook.load_state_dict({"queries": {}, "bucket_residuals": {"0:0": np.zeros((2, 18))}})
        group = SimulatedProcessGroup([0, 1], CommunicationLog(), category="data_parallel")
        gradients = [rng.standard_normal(18), rng.standard_normal(18)]
        with pytest.raises(ValueError, match="stage 0 codec bucket 0"):
            fold_replicas(hook.reduce_bucket, bucket, gradients, group)


class TestFusedAdam:
    SHAPES = [(6, 5), (13,), (3, 4), (1,)]

    def _pair(self, rng, **kwargs):
        """Identical parameter sets: one per-parameter optimiser, one fused."""
        reference = make_parameters(self.SHAPES, rng)
        state = np.random.default_rng(42)
        fused_params = []
        for parameter in reference:
            clone = Parameter(parameter.data.copy(), name=parameter.name)
            clone.grad[...] = parameter.grad
            fused_params.append(clone)
        del state
        arena = ParameterArena(fused_params)
        return reference, fused_params, arena

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_matches_per_parameter_adam_bit_for_bit(self, rng, weight_decay, threads):
        reference, fused_params, arena = self._pair(rng)
        per_param = Adam(reference, lr=3e-3, weight_decay=weight_decay)
        fused = FusedAdam(arena, lr=3e-3, weight_decay=weight_decay)
        for step in range(5):
            for ref, fus in zip(reference, fused_params):
                grad = np.random.default_rng(step).standard_normal(ref.shape)
                ref.grad[...] = grad
                fus.grad[...] = grad
            per_param.step()
            fused.step(threads)
        for ref, fus in zip(reference, fused_params):
            assert np.array_equal(ref.data, fus.data), ref.name

    def test_matches_adamw_bit_for_bit(self, rng):
        reference, fused_params, arena = self._pair(rng)
        per_param = AdamW(reference, lr=1e-2, weight_decay=0.1)
        fused = FusedAdam(arena, lr=1e-2, weight_decay=0.1, decoupled_weight_decay=True)
        for _ in range(4):
            per_param.step()
            fused.step()
        for ref, fus in zip(reference, fused_params):
            assert np.array_equal(ref.data, fus.data), ref.name

    def test_zero_grad_clears_the_arena(self, rng):
        _, fused_params, arena = self._pair(rng)
        optimizer = FusedAdam(arena)
        optimizer.zero_grad()
        assert np.all(arena.grad == 0.0)
        assert all(np.all(p.grad == 0.0) for p in fused_params)

    def test_invalid_hyperparameters_raise(self, rng):
        _, _, arena = self._pair(rng)
        with pytest.raises(ValueError):
            FusedAdam(arena, lr=-1.0)
        with pytest.raises(ValueError):
            FusedAdam(arena, betas=(1.5, 0.9))

    @pytest.mark.parametrize(
        "argument, value",
        [
            ("lr", float("nan")),
            ("lr", float("inf")),
            ("lr", 0.0),
            ("eps", -1.0),
            ("eps", float("nan")),
            ("weight_decay", float("nan")),
            ("weight_decay", -0.1),
            ("weight_decay", float("inf")),
        ],
    )
    def test_nonsense_hyperparameters_are_refused_by_name(self, rng, argument, value):
        _, _, arena = self._pair(rng)
        with pytest.raises(ValueError, match=f"^{argument} must be"):
            FusedAdam(arena, **{argument: value})

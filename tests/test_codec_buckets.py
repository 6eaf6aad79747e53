"""Bucket-level compression parity: codec buckets vs. the per-parameter oracle.

The zero-allocation bucket kernels (`CompressedGradientAllReduce.reduce_codec_bucket`
and `SelectiveStageCompression.reduce_bucket`) must be *bit-identical* to routing
every parameter through the frozen per-parameter `reduce` of
`tests/per_parameter_oracle.py` — the same per-tensor RNG streams, warm-started
factors, error-feedback residuals (stored as flat slabs instead of per-key
dicts), and mean-of-replicas arithmetic.  These tests exercise that contract
directly on synthetic arenas across pipeline/data-parallel layouts, with error
feedback on and off, for all three DP codecs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from per_parameter_oracle import FrozenPerParameterReduce, dp_traffic_by_stage
from replica_folds import fold_replicas
from repro.parallel.arena import (
    CodecBucket,
    ParameterArena,
    build_codec_buckets,
)
from repro.parallel.collectives import CommunicationLog, SimulatedProcessGroup
from repro.parallel.engine import CompressedGradientAllReduce
from repro.plan import CompressionSpec
from repro.tensor.parameter import Parameter


def make_stage_parameters(rng, num_stages, matrices_per_stage, rows, cols):
    """Synthetic per-stage parameter lists: 2-D codec candidates + small 1-D ones."""
    stage_parameters = []
    for stage in range(num_stages):
        parameters = []
        for index in range(matrices_per_stage):
            parameters.append(
                Parameter(
                    rng.normal(size=(rows, cols)),
                    name=f"stage{stage}.weight{index}",
                )
            )
            parameters.append(
                Parameter(rng.normal(size=cols), name=f"stage{stage}.bias{index}")
            )
        stage_parameters.append(parameters)
    return stage_parameters


def dp_spec(codec, error_feedback, min_elements):
    return CompressionSpec(
        codec=codec,
        rank=2,
        bits=4,
        fraction=0.25,
        error_feedback=error_feedback,
        stage_fraction=1.0,
        min_elements=min_elements,
    )


def run_path(codec, error_feedback, layout, bucket_bytes, iterations, bucketed):
    """Run `iterations` codec reductions, via buckets or the per-parameter oracle.

    Returns the final per-parameter gradients of every replica (flattened),
    the per-stage DP traffic of the log and the log.
    Both paths construct their own reducer (fresh compressor state) and see the
    same per-iteration gradients, so any divergence is a path difference.
    """
    num_stages, num_replicas, matrices, rows, cols = layout
    min_elements = rows * cols  # every 2-D matrix selected, biases excluded
    replica_params = []
    arenas = []
    for _ in range(num_replicas):
        init_rng = np.random.default_rng(99)  # identical weights on every replica
        stage_parameters = make_stage_parameters(init_rng, num_stages, matrices, rows, cols)
        flat = [p for stage in stage_parameters for p in stage]
        arenas.append(ParameterArena(flat))
        replica_params.append(stage_parameters)

    spec = dp_spec(codec, error_feedback, min_elements)
    reducer = (
        CompressedGradientAllReduce(spec, num_stages, seed=3)
        if bucketed
        else FrozenPerParameterReduce(spec, num_stages, seed=3)
    )
    log = CommunicationLog()
    group = SimulatedProcessGroup(
        list(range(num_replicas)), log, category="data_parallel"
    )
    buckets = build_codec_buckets(
        arenas[0],
        replica_params[0],
        bucket_bytes,
        select=lambda stage, p: reducer.codec_applies(stage, p.grad),
    )
    assert buckets, "layout must produce at least one codec bucket"

    for iteration in range(iterations):
        grad_rng = np.random.default_rng(1234 + iteration)
        per_param_grads = [
            [grad_rng.normal(size=(rows, cols)) for _ in range(num_stages * matrices)]
            for _ in range(num_replicas)
        ]
        for replica in range(num_replicas):
            index = 0
            for stage_parameters in replica_params[replica]:
                for parameter in stage_parameters:
                    if parameter.grad.ndim == 2:
                        parameter.grad[...] = per_param_grads[replica][index]
                        index += 1

        if bucketed:
            for bucket in buckets:
                fold_replicas(
                    reducer.reduce_codec_bucket, bucket, [arena.grad for arena in arenas], group
                )
        else:
            for stage in range(num_stages):
                for position, reference in enumerate(replica_params[0][stage]):
                    if not reducer.codec_applies(stage, reference.grad):
                        continue
                    gradients = [
                        replica_params[replica][stage][position].grad
                        for replica in range(num_replicas)
                    ]
                    synced = reducer.reduce(reference.name, stage, gradients, group)
                    for replica, new_grad in enumerate(synced):
                        replica_params[replica][stage][position].grad[...] = new_grad

    final = [arena.grad.copy() for arena in arenas]
    return final, dp_traffic_by_stage(log.records), log


LAYOUTS = [
    (1, 2, 2, 8, 6),  # PP1 x DP2
    (2, 2, 1, 8, 6),  # PP2 x DP2
    (2, 3, 2, 6, 5),  # PP2 x DP3
    (3, 2, 2, 5, 4),  # PP3 x DP2
]


class TestCodecBucketParity:
    @pytest.mark.parametrize("codec", ["powersgd", "qsgd", "topk"])
    @pytest.mark.parametrize("error_feedback", [True, False])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_bucketed_path_is_bit_identical_to_per_parameter(
        self, codec, error_feedback, layout
    ):
        bucketed, t_b, _ = run_path(
            codec, error_feedback, layout, bucket_bytes=4096, iterations=3, bucketed=True
        )
        serial, t_s, _ = run_path(
            codec, error_feedback, layout, bucket_bytes=4096, iterations=3, bucketed=False
        )
        for got, want in zip(bucketed, serial):
            assert np.array_equal(got, want)
        # Byte accounting matches exactly; only message counts differ.
        assert set(t_b) == set(t_s)
        for stage in t_s:
            assert t_b[stage]["payload_bytes"] == t_s[stage]["payload_bytes"]
            assert t_b[stage]["original_bytes"] == t_s[stage]["original_bytes"]
            assert t_b[stage]["records"] <= t_s[stage]["records"]

    @pytest.mark.parametrize("codec", ["powersgd", "qsgd", "topk"])
    def test_bucket_size_does_not_change_numerics(self, codec):
        layout = (2, 2, 2, 8, 6)
        tiny, _, _ = run_path(codec, True, layout, bucket_bytes=1, iterations=2, bucketed=True)
        huge, _, _ = run_path(
            codec, True, layout, bucket_bytes=1 << 22, iterations=2, bucketed=True
        )
        for got, want in zip(tiny, huge):
            assert np.array_equal(got, want)

    @settings(max_examples=10, deadline=None)
    @given(
        codec=st.sampled_from(["powersgd", "qsgd", "topk"]),
        error_feedback=st.booleans(),
        num_stages=st.integers(min_value=1, max_value=3),
        num_replicas=st.integers(min_value=2, max_value=3),
        rows=st.integers(min_value=4, max_value=10),
        cols=st.integers(min_value=4, max_value=8),
        bucket_kb=st.sampled_from([1, 4, 64]),
    )
    def test_parity_property(
        self, codec, error_feedback, num_stages, num_replicas, rows, cols, bucket_kb
    ):
        """Hypothesis sweep: arena-slab bucket compression == per-parameter path."""
        layout = (num_stages, num_replicas, 2, rows, cols)
        bucketed, _, _ = run_path(
            codec, error_feedback, layout, bucket_kb * 1024, iterations=2, bucketed=True
        )
        serial, _, _ = run_path(
            codec, error_feedback, layout, bucket_kb * 1024, iterations=2, bucketed=False
        )
        for got, want in zip(bucketed, serial):
            assert np.array_equal(got, want)

    def test_wire_bytes_match_per_parameter_records(self):
        """Total compressed wire bytes agree between the two record granularities."""
        layout = (2, 2, 2, 8, 6)
        for codec in ("powersgd", "qsgd", "topk"):
            _, _, log_b = run_path(codec, True, layout, 2048, iterations=2, bucketed=True)
            _, _, log_s = run_path(codec, True, layout, 2048, iterations=2, bucketed=False)
            assert log_b.total_wire_bytes() == pytest.approx(log_s.total_wire_bytes())
            assert log_b.count() < log_s.count()


class TestCodecBucketStructure:
    def test_buckets_group_by_size_and_stage(self, rng):
        stage_parameters = make_stage_parameters(rng, 2, 3, 8, 8)
        flat = [p for stage in stage_parameters for p in stage]
        arena = ParameterArena(flat)
        select = lambda stage, p: p.data.ndim == 2  # noqa: E731
        one_per_matrix = build_codec_buckets(arena, stage_parameters, 1, select)
        assert len(one_per_matrix) == 6
        everything = build_codec_buckets(arena, stage_parameters, 1 << 30, select)
        assert len(everything) == 2  # never crosses a stage boundary
        assert {bucket.stage_index for bucket in everything} == {0, 1}
        for bucket in everything:
            assert bucket.num_elements == 3 * 8 * 8
            # Residual-slab offsets tile the bucket back to back.
            offset = 0
            for segment in bucket.segments:
                assert segment.offset == offset
                offset += segment.num_elements

    def test_invalid_bucket_bytes_rejected(self, rng):
        stage_parameters = make_stage_parameters(rng, 1, 1, 4, 4)
        arena = ParameterArena(stage_parameters[0])
        with pytest.raises(ValueError):
            build_codec_buckets(arena, stage_parameters, 0, lambda s, p: True)

    def test_codec_bucket_reports_wire_bytes(self, rng):
        stage_parameters = make_stage_parameters(rng, 1, 2, 4, 4)
        arena = ParameterArena(stage_parameters[0])
        buckets = build_codec_buckets(
            arena, stage_parameters, 1 << 20, lambda s, p: p.data.ndim == 2
        )
        assert len(buckets) == 1
        bucket = buckets[0]
        assert isinstance(bucket, CodecBucket)
        assert bucket.wire_bytes == bucket.num_elements * 2
        assert bucket.parameter_names == ("stage0.weight0", "stage0.weight1")

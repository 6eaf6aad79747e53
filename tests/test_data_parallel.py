"""Tests for data-parallel gradient synchronisation and the tensor-parallel oracle layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.gpt_stage import build_gpt_stages
from repro.parallel.arena import ParameterArena
from repro.parallel.collectives import CommunicationLog
from repro.parallel.data_parallel import BucketedDataParallelSync, is_embedding_parameter
from repro.parallel.engine import CompressedGradientAllReduce
from repro.parallel.pipeline_engine import PipelineParallelEngine
from repro.plan import CompressionSpec
from repro.tensor.parameter import Parameter

from tensor_parallel_oracle import ColumnParallelLinear, RowParallelLinear


def build_replicas(config, num_replicas=2, num_stages=2, seed=0):
    """Replicas of one pipeline over one shared weight buffer, and their arenas."""
    replicas = [build_gpt_stages(config, num_stages, seed=seed) for _ in range(num_replicas)]
    arenas = ParameterArena.replicated(
        [parameter for stage in replica for parameter in stage.parameters()]
        for replica in replicas
    )
    return replicas, arenas


def run_replica(stages, tokens, targets):
    PipelineParallelEngine(stages).run_iteration([(tokens, targets)])


def exact_sync(replicas, arenas, log=None, **kwargs):
    """The bucketed DP sync with the exact (uncompressed) hook."""
    hook = CompressedGradientAllReduce(CompressionSpec(), num_stages=len(replicas[0]))
    return BucketedDataParallelSync(replicas, arenas, hook, log=log, **kwargs)


class TestIsEmbeddingParameter:
    def test_detects_by_name(self):
        assert is_embedding_parameter(Parameter(np.zeros(2), name="stage0.word_embeddings"))
        assert not is_embedding_parameter(Parameter(np.zeros(2), name="stage0.position_embeddings"))


class TestDataParallelSync:
    def test_average_matches_manual_mean(self, tiny_config, rng):
        replicas, arenas = build_replicas(tiny_config)
        for replica in replicas:
            tokens = rng.integers(0, tiny_config.vocab_size, size=(2, 8))
            targets = rng.integers(0, tiny_config.vocab_size, size=(2, 8))
            run_replica(replica, tokens, targets)

        # Snapshot the per-replica gradient of one weight before synchronisation.
        grads_before = [
            replica[0].layers[0].attention.qkv.weight.grad.copy() for replica in replicas
        ]
        expected = np.mean(grads_before, axis=0)

        exact_sync(replicas, arenas).synchronize()
        for replica in replicas:
            assert np.allclose(replica[0].layers[0].attention.qkv.weight.grad, expected)
        for stage_index, stage in enumerate(replicas[0]):
            for position, parameter in enumerate(stage.parameters()):
                if is_embedding_parameter(parameter):
                    continue
                other = list(replicas[1][stage_index].parameters())[position]
                assert np.array_equal(parameter.grad, other.grad), parameter.name

    def test_single_replica_is_noop(self, tiny_config, rng):
        log = CommunicationLog()
        replicas, arenas = build_replicas(tiny_config, num_replicas=1)
        tokens = rng.integers(0, tiny_config.vocab_size, size=(2, 8))
        targets = rng.integers(0, tiny_config.vocab_size, size=(2, 8))
        run_replica(replicas[0], tokens, targets)
        exact_sync(replicas, arenas, log=log).synchronize()
        assert log.count() == 0

    def test_embedding_excluded_by_default(self, tiny_config, rng):
        log = CommunicationLog()
        replicas, arenas = build_replicas(tiny_config)
        tokens = rng.integers(0, tiny_config.vocab_size, size=(2, 8))
        targets = rng.integers(0, tiny_config.vocab_size, size=(2, 8))
        for replica in replicas:
            run_replica(replica, tokens, targets)
        sync = exact_sync(replicas, arenas, log=log)
        sync.synchronize()
        assert log.count(category="data_parallel") > 0
        names = [name for bucket in sync.buckets for name in bucket.parameter_names]
        assert names and not any("word_embeddings" in name for name in names)

    def test_embedding_bucketed_when_not_excluded(self, tiny_config):
        replicas, arenas = build_replicas(tiny_config)
        sync = exact_sync(replicas, arenas, exclude_embedding=False)
        names = [name for bucket in sync.buckets for name in bucket.parameter_names]
        assert any("word_embeddings" in name for name in names)

    def test_one_arena_per_replica_required(self, tiny_config):
        replicas, arenas = build_replicas(tiny_config)
        with pytest.raises(ValueError, match="one parameter arena per replica"):
            exact_sync(replicas, arenas[:1])

    def test_compression_hook_is_consulted(self, tiny_config, rng):
        replicas, arenas = build_replicas(tiny_config)
        for replica in replicas:
            tokens = rng.integers(0, tiny_config.vocab_size, size=(2, 8))
            targets = rng.integers(0, tiny_config.vocab_size, size=(2, 8))
            run_replica(replica, tokens, targets)

        class RecordingHook:
            def __init__(self):
                self.codec_buckets = []

            def codec_applies(self, stage_index, gradient):
                return stage_index == 0 and gradient.ndim >= 2

            def reserve(self, buckets, replicas):
                pass

            def reduce_bucket(self, bucket, fold, group):
                self.fold(slice(bucket.start, bucket.stop), fold)
                if fold.last:
                    group.record_collective("all_reduce", 1)

            def reduce_codec_bucket(self, bucket, fold, group):
                self.codec_buckets.append(bucket.stage_index)
                for segment in bucket.segments:
                    self.fold(slice(segment.start, segment.stop), fold)
                if fold.last:
                    group.record_collective("all_reduce", 1, compressed=True)

            @staticmethod
            def fold(span, fold):
                if fold.replica > 0:
                    fold.total[span] += fold.gradient[span]
                if fold.last:
                    fold.total[span] /= fold.replicas
                    for copy in fold.copies:
                        copy[span] = fold.total[span]

        hook = RecordingHook()
        log = CommunicationLog()
        BucketedDataParallelSync(replicas, arenas, hook, log=log).synchronize()
        assert hook.codec_buckets, "hook should have been used for stage 0"
        assert set(hook.codec_buckets) == {0}
        assert any(record.compressed for record in log.records)


class TestTensorParallelLayers:
    def test_column_parallel_matches_dense(self, rng):
        weight = rng.normal(size=(6, 8))
        x = rng.normal(size=(3, 6))
        layer = ColumnParallelLinear(weight, tensor_parallel_degree=4)
        assert np.allclose(layer.forward(x), x @ weight)

    def test_column_parallel_shard_outputs(self, rng):
        weight = rng.normal(size=(6, 8))
        x = rng.normal(size=(3, 6))
        partials = ColumnParallelLinear(weight, 2).forward(x, gather_output=False)
        assert len(partials) == 2 and partials[0].shape == (3, 4)

    def test_row_parallel_matches_dense(self, rng):
        weight = rng.normal(size=(8, 5))
        x = rng.normal(size=(3, 8))
        layer = RowParallelLinear(weight, tensor_parallel_degree=4)
        assert np.allclose(layer.forward(x), x @ weight)

    def test_column_then_row_matches_two_layer_dense(self, rng):
        """The Megatron layer pattern: column-parallel then row-parallel, one all-reduce."""
        log = CommunicationLog()
        w1 = rng.normal(size=(6, 8))
        w2 = rng.normal(size=(8, 6))
        x = rng.normal(size=(4, 6))
        column = ColumnParallelLinear(w1, 2, log=log)
        row = RowParallelLinear(w2, 2, log=log)
        partials = column.forward(x, gather_output=False)
        output = row.forward(partials)
        assert np.allclose(output, x @ w1 @ w2)
        # Only the row-parallel all-reduce communicates; no all-gather was needed.
        assert log.count(operation="all_reduce") == 1
        assert log.count(operation="all_gather") == 0

    def test_indivisible_split_raises(self, rng):
        with pytest.raises(ValueError):
            ColumnParallelLinear(rng.normal(size=(4, 6)), tensor_parallel_degree=4)
        with pytest.raises(ValueError):
            RowParallelLinear(rng.normal(size=(6, 4)), tensor_parallel_degree=4)

"""Tests for selective stage compression (data-parallel PowerSGD with error feedback)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from per_parameter_oracle import FrozenPerParameterPowerSGD
from repro.compression.powersgd import matrix_view, orthogonalise, stable_key_hash
from repro.core.fused_embedding import EmbeddingSynchronizer
from repro.core.selective_stage import SelectiveStageCompression
from repro.nn.gpt_stage import build_gpt_stages
from repro.parallel.arena import ParameterArena, build_codec_buckets
from repro.parallel.collectives import CommunicationLog, SimulatedProcessGroup
from repro.parallel.data_parallel import BucketedDataParallelSync
from repro.parallel.engine import CompressedGradientAllReduce, axis_report
from repro.parallel.pipeline_engine import PipelineParallelEngine
from repro.plan import CompressionSpec, select_compressed_stages
from repro.tensor.parameter import Parameter
from repro.utils.random import seeded_rng


class TestStageSelection:
    def test_paper_default(self):
        """75 % of 4 stages compresses the three earliest stages (Fig. 8)."""
        assert select_compressed_stages(4, 0.75) == {0, 1, 2}

    def test_boundaries(self):
        assert select_compressed_stages(4, 0.0) == set()
        assert select_compressed_stages(4, 1.0) == {0, 1, 2, 3}
        assert select_compressed_stages(4, 0.25) == {0}
        assert select_compressed_stages(4, 0.5) == {0, 1}

    def test_earliest_stages_selected_first(self):
        for fraction in (0.25, 0.5, 0.75):
            stages = select_compressed_stages(8, fraction)
            assert stages == set(range(len(stages)))

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            select_compressed_stages(0, 0.5)
        with pytest.raises(ValueError):
            select_compressed_stages(4, 1.5)


class TestCodecApplies:
    def test_respects_stage_selection_and_shape(self):
        spec = CompressionSpec(codec="powersgd", rank=4, stage_fraction=0.5, min_elements=16)
        hook = CompressedGradientAllReduce(spec, num_stages=4)
        matrix, bias, tiny = np.zeros((8, 8)), np.zeros(64), np.zeros((2, 2))
        assert hook.codec_applies(0, matrix)
        assert hook.codec_applies(1, matrix)
        assert not hook.codec_applies(2, matrix)  # unselected stage
        assert not hook.codec_applies(0, bias)  # 1-D
        assert not hook.codec_applies(0, tiny)  # too small

    def test_invalid_rank_raises(self):
        with pytest.raises(ValueError):
            SelectiveStageCompression(rank=0)


def one_parameter_bucket(gradients):
    """A codec bucket of one parameter ``"w"`` per replica, gradients set to ``gradients``."""
    arenas, parameters = [], []
    for gradient in gradients:
        parameter = Parameter(np.zeros(np.shape(gradient)), name="w")
        arenas.append(ParameterArena([parameter]))
        parameter.grad[...] = gradient
        parameters.append(parameter)
    (bucket,) = build_codec_buckets(arenas[0], [parameters[:1]], 1 << 30, lambda stage, p: True)
    return bucket, arenas, parameters


class TestReduceBucket:
    def _reduce_once(self, hook, gradients, log=None):
        log = log if log is not None else CommunicationLog()
        group = SimulatedProcessGroup(list(range(len(gradients))), log, category="data_parallel")
        bucket, arenas, parameters = one_parameter_bucket(gradients)
        hook.reduce_bucket(bucket, [arena.grad for arena in arenas], group)
        return [parameter.grad.copy() for parameter in parameters], log

    def test_all_replicas_get_identical_result(self, rng):
        hook = SelectiveStageCompression(rank=2)
        gradients = [rng.normal(size=(32, 16)) for _ in range(4)]
        results, _ = self._reduce_once(hook, gradients)
        assert len(results) == 4
        for result in results[1:]:
            assert np.array_equal(result, results[0])

    def test_low_rank_input_is_reduced_exactly(self, rng):
        """When the true mean gradient is low-rank, the reduction recovers it."""
        base = rng.normal(size=(32, 2)) @ rng.normal(size=(2, 16))
        gradients = [base.copy() for _ in range(4)]
        hook = SelectiveStageCompression(rank=2, error_feedback=False)
        for _ in range(3):  # a few warm-started rounds converge
            results, _ = self._reduce_once(hook, gradients)
        assert np.allclose(results[0], base, atol=1e-6)

    def test_error_feedback_tracks_true_mean_over_iterations(self, rng):
        """Sum over iterations of the delivered mean approaches the true mean sum."""
        hook = SelectiveStageCompression(rank=1, error_feedback=True)
        true_sum = np.zeros((24, 12))
        delivered_sum = np.zeros((24, 12))
        for _ in range(15):
            gradients = [rng.normal(size=(24, 12)) for _ in range(2)]
            true_sum += np.mean(gradients, axis=0)
            results, _ = self._reduce_once(hook, gradients)
            delivered_sum += results[0]
        # The group's one residual absorbs exactly what was not delivered.
        (slab,) = hook._bucket_residuals.state_dict().values()
        assert slab.shape == (1, 24 * 12)
        assert np.allclose(delivered_sum + slab.reshape(24, 12), true_sum, atol=1e-7)

    def test_traffic_is_logged_as_compressed_factors(self, rng):
        hook = SelectiveStageCompression(rank=2)
        gradients = [rng.normal(size=(32, 16)) for _ in range(4)]
        _, log = self._reduce_once(hook, gradients)
        assert log.count() == 2  # one all-reduce for P, one for Q
        assert all(record.compressed for record in log.records)
        p_bytes = 32 * 2 * 2
        q_bytes = 16 * 2 * 2
        assert {record.payload_bytes for record in log.records} == {p_bytes, q_bytes}

    def test_bytes_saved_fraction(self, rng):
        """The P record stands for the bucket's uncompressed bytes, Q for none."""
        hook = SelectiveStageCompression(rank=2)
        gradients = [rng.normal(size=(64, 64)) for _ in range(4)]
        _, log = self._reduce_once(hook, gradients)
        assert [record.original_bytes for record in log.records] == [64 * 64 * 2, 0]
        _, _, saved, _, _ = axis_report(log.records)
        assert 0.5 < saved["data_parallel"] < 1.0
        assert axis_report(CommunicationLog().records)[2]["data_parallel"] == 0.0

    def test_a_stored_residual_of_another_shape_raises(self, rng):
        hook = SelectiveStageCompression(rank=2)
        hook.load_state_dict({"queries": {}, "bucket_residuals": {"0:0": np.zeros((1, 32))}})
        with pytest.raises(ValueError, match="stage 0 codec bucket 0 is \\(1, 32\\)"):
            self._reduce_once(hook, [rng.normal(size=(8, 8))] * 2)

    def test_group_size_mismatch_raises(self, rng):
        hook = SelectiveStageCompression(rank=2)
        bucket, arenas, _ = one_parameter_bucket([rng.normal(size=(8, 8))] * 2)
        group = SimulatedProcessGroup([0, 1, 2], CommunicationLog(), category="data_parallel")
        with pytest.raises(ValueError):
            hook.reduce_bucket(bucket, [arena.grad for arena in arenas], group)


class TestIntegrationWithDPSync:
    def test_selected_stage_traffic_is_compressed(self, tiny_config):
        replicas = [build_gpt_stages(tiny_config, 2, seed=0) for _ in range(2)]
        arenas = ParameterArena.replicated(
            [parameter for stage in replica for parameter in stage.parameters()]
            for replica in replicas
        )
        for index, replica in enumerate(replicas):
            local_rng = np.random.default_rng(index)
            tokens = local_rng.integers(0, tiny_config.vocab_size, size=(2, 8))
            targets = local_rng.integers(0, tiny_config.vocab_size, size=(2, 8))
            PipelineParallelEngine(replica).run_iteration([(tokens, targets)])

        log = CommunicationLog()
        spec = CompressionSpec(codec="powersgd", rank=2, stage_fraction=0.5, min_elements=64)
        hook = CompressedGradientAllReduce(spec, num_stages=2)
        BucketedDataParallelSync(replicas, arenas, hook, log=log).synchronize()

        compressed = [record for record in log.records if record.compressed]
        uncompressed = [record for record in log.records if not record.compressed]
        assert compressed, "stage 0 weight matrices should go through the compressed path"
        assert uncompressed, "stage 1 and small parameters stay uncompressed"
        # After DP sync plus embedding sync all replicas agree on every gradient.
        EmbeddingSynchronizer(replicas, fused=True).synchronize()
        assert np.max(np.abs(arenas[1].grad - arenas[0].grad)) < 1e-9


# ----------------------------------------------------------------------------------
# The one-residual kernel against the per-replica protocol it replaced
# ----------------------------------------------------------------------------------


class FrozenPerReplicaPowerSGD:
    """The per-replica distributed PowerSGD hook, frozen as the oracle.

    A verbatim copy of the arithmetic ``SelectiveStageCompression.reduce_bucket``
    ran before the hook kept one residual per DP group: every replica adds its
    own residual, each replica's P and Q are computed and then averaged, and
    every replica keeps ``corrected - approximation``.  The kernel
    under test factorises the replica-mean corrected gradient once, which is the
    same protocol in exact arithmetic and another summation order in floats.
    """

    def __init__(self, rank: int, error_feedback: bool, seed: int = 0) -> None:
        self.rank = rank
        self.error_feedback = error_feedback
        self.seed = seed
        self.queries: dict[str, np.ndarray] = {}
        self.slabs: dict[tuple[int, int], np.ndarray] = {}

    def _query(self, key: str, cols: int, rank: int) -> np.ndarray:
        query = self.queries.get(key)
        if query is None or query.shape != (cols, rank):
            query = seeded_rng(self.seed + stable_key_hash(key)).standard_normal((cols, rank))
        return query

    def reduce_bucket(self, bucket, flat_gradients, group):
        num_replicas = len(flat_gradients)
        slot = (bucket.stage_index, bucket.index)
        residual_ready = slot in self.slabs
        if self.error_feedback and not residual_ready:
            self.slabs[slot] = np.empty((num_replicas, bucket.num_elements))
        p_bytes_total = q_bytes_total = 0
        for segment in bucket.segments:
            span = slice(segment.offset, segment.offset + segment.num_elements)
            views, matrices = [], []
            for replica in range(num_replicas):
                view = flat_gradients[replica][segment.start : segment.stop].reshape(
                    segment.shape
                )
                views.append(view)
                matrix = matrix_view(view)
                if self.error_feedback:
                    corrected = self.slabs[slot][replica, span].reshape(matrix.shape)
                    if residual_ready:
                        corrected += matrix
                    else:
                        corrected[...] = matrix
                    matrix = corrected
                matrices.append(matrix)
            rows, cols = matrices[0].shape
            rank = max(1, min(self.rank, rows, cols))
            query = self._query(segment.name, cols, rank)
            local_p = [matrix @ query for matrix in matrices]
            p_factor = orthogonalise(np.mean(np.stack(local_p), axis=0))
            local_q = [matrix.T @ p_factor for matrix in matrices]
            q_factor = np.mean(np.stack(local_q), axis=0)
            self.queries[segment.name] = q_factor.copy()
            approximation = p_factor @ q_factor.T
            if self.error_feedback:
                for corrected in matrices:
                    corrected -= approximation
            for view in views:
                view[...] = approximation.reshape(segment.shape)
            p_bytes, q_bytes = int(local_p[0].size * 2), int(local_q[0].size * 2)
            p_bytes_total += p_bytes
            q_bytes_total += q_bytes
        label = f"stage{bucket.stage_index} codec-bucket{bucket.index}"
        group.record_collective(
            "all_reduce",
            p_bytes_total,
            compressed=True,
            description=f"{label}:P",
            original_bytes=bucket.num_elements * 2,
        )
        group.record_collective(
            "all_reduce", q_bytes_total, compressed=True, description=f"{label}:Q", original_bytes=0
        )

    def mean_residual(self, bucket, segment) -> np.ndarray:
        """The replicas' mean residual of one bucket segment."""
        slab = self.slabs[(bucket.stage_index, bucket.index)]
        return slab[:, segment.offset : segment.offset + segment.num_elements].mean(axis=0)


#: The comm-shape matrices train_optimus compresses, and one all-zero segment
#: (a degenerate P: Gram-Schmidt's unit-vector fallback on every column).
ORACLE_SHAPES = ((16, 256), (256, 1024), (1024, 256), (16, 256))
ORACLE_ZERO_SEGMENT = 3
ORACLE_CALLS = 3


def oracle_run(hook, dp: int, bucketed: bool):
    """``ORACLE_CALLS`` reductions of ``ORACLE_SHAPES`` by ``hook`` on ``dp`` replicas.

    ``bucketed`` calls ``hook.reduce_bucket`` on one codec bucket, otherwise
    ``hook.reduce`` per parameter.  Returns each call's synced gradients
    (replica-major, flat), the traffic log and the bucket.
    """
    arenas = []
    replicas = []
    for _ in range(dp):
        parameters = [
            Parameter(np.zeros(shape), name=f"weight{index}")
            for index, shape in enumerate(ORACLE_SHAPES)
        ]
        arenas.append(ParameterArena(parameters))
        replicas.append(parameters)
    (bucket,) = build_codec_buckets(arenas[0], [replicas[0]], 1 << 30, lambda stage, p: True)
    log = CommunicationLog()
    group = SimulatedProcessGroup(list(range(dp)), log, category="data_parallel")
    synced = []
    for call in range(ORACLE_CALLS):
        rng = np.random.default_rng(100 * dp + call)
        for parameters in replicas:
            for index, parameter in enumerate(parameters):
                magnitude = 0.0 if index == ORACLE_ZERO_SEGMENT else 10.0 ** rng.integers(-3, 2)
                parameter.grad[...] = rng.standard_normal(parameter.shape) * magnitude
        if bucketed:
            hook.reduce_bucket(bucket, [arena.grad for arena in arenas], group)
        else:
            for parameter_index, reference in enumerate(replicas[0]):
                gradients = [parameters[parameter_index].grad for parameters in replicas]
                results = hook.reduce(reference.name, 0, gradients, group)
                for parameters, result in zip(replicas, results):
                    parameters[parameter_index].grad[...] = result
        synced.append([arena.grad.copy() for arena in arenas])
    return synced, log, bucket


def assert_close(actual: np.ndarray, expected: np.ndarray) -> None:
    """``rtol=1e-12`` against the oracle, entries near zero judged on the array's scale."""
    scale = float(np.abs(expected).max())
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)


class TestOneResidualAgainstThePerReplicaOracle:
    @settings(max_examples=10, deadline=None)
    @given(
        dp=st.sampled_from([2, 3, 4]),
        rank=st.sampled_from([1, 2, 4, 8]),
        error_feedback=st.booleans(),
    )
    def test_synced_gradients_residual_and_traffic(self, dp, rank, error_feedback):
        hook = SelectiveStageCompression(rank=rank, error_feedback=error_feedback)
        oracle = FrozenPerReplicaPowerSGD(rank, error_feedback)
        synced, log, bucket = oracle_run(hook, dp, bucketed=True)
        expected, oracle_log, _ = oracle_run(oracle, dp, bucketed=True)
        for call_synced, call_expected in zip(synced, expected):
            for actual, want in zip(call_synced, call_expected):
                assert_close(actual, want)
            for other in call_synced[1:]:
                assert np.array_equal(other, call_synced[0])
        assert log.records == oracle_log.records
        if error_feedback:
            (slab,) = hook._bucket_residuals.state_dict().values()
            assert slab.shape == (1, bucket.num_elements)
            for segment in bucket.segments:
                span = slice(segment.offset, segment.offset + segment.num_elements)
                assert_close(slab[0, span], oracle.mean_residual(bucket, segment))

        # The frozen per-parameter walk keys and stores its residuals per
        # parameter, but runs the same kernel on the same operands: bit for bit.
        per_parameter = FrozenPerParameterPowerSGD(rank, error_feedback)
        walked, _, _ = oracle_run(per_parameter, dp, bucketed=False)
        for bucketed_call, per_parameter_call in zip(synced, walked):
            for got, want in zip(bucketed_call, per_parameter_call):
                assert np.array_equal(got, want)
        if error_feedback:
            for segment in bucket.segments:
                span = slice(segment.offset, segment.offset + segment.num_elements)
                residual = per_parameter.residuals[segment.name].reshape(-1)
                assert np.array_equal(slab[0, span], residual)

    def test_the_group_holds_one_residual_whatever_the_replica_count(self):
        sizes = {}
        for dp in (2, 4):
            hook = SelectiveStageCompression(rank=2)
            oracle_run(hook, dp, bucketed=True)
            sizes[dp] = hook.residual_memory_bytes()
        elements = sum(rows * cols for rows, cols in ORACLE_SHAPES)
        assert sizes == {2: elements * 4, 4: elements * 4}

"""Tests for the unified 3D-parallel execution engine.

Covers the three guarantees the engine makes:

* **gradient parity** — with compression disabled the engine reproduces the
  single-device reference model's gradients (bit-for-bit for one replica, where
  even the floating-point accumulation order is identical);
* **error-feedback convergence** — every DP codec's residual stays bounded and the
  accumulated delivered gradient tracks the accumulated true gradient;
* **traffic accounting** — per-axis and per-boundary wire bytes are exact, for the
  pipeline (PP) boundaries, the data-parallel (DP) boundary, the embedding
  synchronisation, and the tensor-parallel axis.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from per_parameter_oracle import dp_traffic_by_stage, run_per_parameter
from replica_folds import fold_replicas
from repro.nn.transformer import GPTModelConfig
from repro.plan import Boundary, CompressionSpec, ParallelPlan, Schedule, Topology
from repro.nn import CrossEntropyLoss, GPTModel
from repro.parallel.arena import GradientBucket, ParameterArena, build_codec_buckets
from repro.parallel.collectives import (
    CommunicationLog,
    SimulatedProcessGroup,
    ring_all_reduce_wire_bytes,
)
from repro.parallel.engine import (
    TP_ALL_REDUCES_PER_LAYER_PER_DIRECTION,
    CompressedGradientAllReduce,
    ThreeDParallelEngine,
    axis_report,
)
from repro.parallel.pipeline_engine import WIRE_BYTES_PER_ELEMENT
from repro.tensor.parameter import Parameter


UNCOMPRESSED = ParallelPlan.baseline()


def make_engine(config, plan=UNCOMPRESSED, num_stages=2, dp=2, tp=1, seed=0):
    """An engine running ``plan``'s schedule and compression on PP x DP x TP."""
    return ThreeDParallelEngine(
        config, plan.with_topology(pp=num_stages, dp=dp, tp=tp), seed=seed
    )


def dp_codec_plan(**knobs) -> ParallelPlan:
    """The uncompressed plan with the given DP-boundary knobs."""
    return UNCOMPRESSED.with_boundary(Boundary.DP, **knobs)


def serial(plan: ParallelPlan) -> ParallelPlan:
    """``plan`` with the DP all-reduce after the pipeline drains instead of the overlap."""
    return plan.with_schedule(kind="serial")


def per_parameter_engine(config, plan, seed, dp=2):
    """An engine whose DP sync is the frozen per-parameter walk (the oracle)."""
    engine = make_engine(config, plan, dp=dp, seed=seed)
    run_per_parameter(engine)
    return engine


def one_parameter_bucket(reducer, shape, replicas=2):
    """One codec bucket holding one ``(rows, cols)`` parameter on ``replicas`` arenas."""
    arenas, parameters = [], []
    for _ in range(replicas):
        parameter = Parameter(np.zeros(shape), name="w")
        arenas.append(ParameterArena([parameter]))
        parameters.append(parameter)
    (bucket,) = build_codec_buckets(
        arenas[0],
        [[parameters[0]]],
        1 << 30,
        select=lambda stage, p: reducer.codec_applies(stage, p.grad),
    )
    return bucket, arenas


def make_batches(config, rng, replicas=2, micro_batches=2, batch=2, seq=8):
    return [
        [
            (
                rng.integers(0, config.vocab_size, size=(batch, seq)),
                rng.integers(0, config.vocab_size, size=(batch, seq)),
            )
            for _ in range(micro_batches)
        ]
        for _ in range(replicas)
    ]


def reference_gradients(config, all_micro_batches, seed):
    """Single-device reference: same data, mean-over-mini-batch loss scaling."""
    model = GPTModel(config, seed=seed)
    loss_fn = CrossEntropyLoss()
    scale = 1.0 / len(all_micro_batches)
    losses = []
    for tokens, targets in all_micro_batches:
        logits, cache = model.forward(tokens)
        loss, loss_cache = loss_fn.forward(logits, targets)
        losses.append(float(loss))
        model.backward(loss_fn.backward(loss_cache) * scale, cache)
    return model, float(np.mean(losses))


def assert_matches_reference(engine, model, atol):
    """Compare replica 0's gradients against the reference, layer by layer."""
    stages = engine.replicas[0]
    for stage in stages:
        for local_index, global_index in enumerate(stage.layer_indices):
            for stage_param, ref_param in zip(
                stage.layers[local_index].parameters(),
                model.layers[global_index].parameters(),
            ):
                if atol == 0.0:
                    assert np.array_equal(stage_param.grad, ref_param.grad), stage_param.name
                else:
                    assert np.allclose(stage_param.grad, ref_param.grad, atol=atol), stage_param.name
    # The synchronised word-embedding copy equals the reference's tied gradient
    # (summation order differs between the tied and split accumulation, so this
    # comparison is never required to be bit-exact).
    embedding = stages[0].embedding_parameters()[0]
    assert np.allclose(embedding.grad, model.token_embedding.weight.grad, atol=max(atol, 1e-13))
    assert np.allclose(
        stages[0].position_embedding.weight.grad,
        model.position_embedding.weight.grad,
        atol=max(atol, 1e-13),
    )


class TestGradientParity:
    @pytest.mark.parametrize("num_stages", [1, 2])
    def test_single_replica_matches_reference_bit_for_bit(self, tiny_config, rng, num_stages):
        """DP=1: the engine's accumulation order equals the reference's, so the
        transformer-layer gradients are bit-for-bit identical."""
        engine = make_engine(tiny_config, num_stages=num_stages, dp=1, seed=11)
        batches = make_batches(tiny_config, rng, replicas=1, micro_batches=2)
        result = engine.run_iteration(batches)
        model, reference_loss = reference_gradients(tiny_config, batches[0], seed=11)
        assert result.mean_loss == pytest.approx(reference_loss, abs=1e-12)
        assert_matches_reference(engine, model, atol=0.0)

    def test_data_parallel_engine_matches_reference(self, tiny_config, rng):
        """DP=2: the mean-over-replicas all-reduce reproduces the reference run
        over all shards (only float summation order differs)."""
        engine = make_engine(tiny_config, num_stages=2, dp=2, seed=3)
        batches = make_batches(tiny_config, rng, replicas=2, micro_batches=2)
        result = engine.run_iteration(batches)
        merged = [mb for replica in batches for mb in replica]
        model, reference_loss = reference_gradients(tiny_config, merged, seed=3)
        assert result.mean_loss == pytest.approx(reference_loss, abs=1e-12)
        assert_matches_reference(engine, model, atol=1e-13)
        # All replicas hold identical gradients after the exact all-reduce.
        for arena in engine.arenas[1:]:
            assert np.array_equal(arena.grad, engine.arenas[0].grad)

    def test_parity_holds_for_every_uncompressed_codec_path(self, tiny_config, rng):
        """The 'none' codec routes through the same all-reduce as the raw sync."""
        engine = make_engine(tiny_config, dp_codec_plan(codec="none"), num_stages=2, dp=2, seed=9)
        batches = make_batches(tiny_config, rng)
        engine.run_iteration(batches)
        model, _ = reference_gradients(tiny_config, [mb for r in batches for mb in r], seed=9)
        assert_matches_reference(engine, model, atol=1e-13)

    def test_tensor_parallel_split_is_verified_and_logged(self, tiny_config, rng):
        engine = make_engine(tiny_config, num_stages=2, dp=1, tp=2, seed=2)
        batches = make_batches(tiny_config, rng, replicas=1, micro_batches=2)
        result = engine.run_iteration(batches)
        # TP traffic is accounted but never alters the numerics.
        model, _ = reference_gradients(tiny_config, batches[0], seed=2)
        assert_matches_reference(engine, model, atol=0.0)
        assert result.axis_wire_bytes["tensor_parallel"] > 0

    def test_indivisible_tensor_parallel_degree_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            make_engine(tiny_config, tp=3)


class TestErrorFeedbackConvergence:
    @pytest.mark.parametrize("codec", ["powersgd", "qsgd", "topk"])
    def test_accumulated_delivery_tracks_accumulated_gradient(self, codec, rng):
        """Classic EF guarantee: sum(delivered) = sum(sent) - final residual, so
        the delivery error never accumulates beyond one step's residual."""
        spec = CompressionSpec(
            codec=codec, rank=2, fraction=0.1, stage_fraction=1.0, min_elements=16
        )
        reducer = CompressedGradientAllReduce(spec, num_stages=1, seed=0)
        group = SimulatedProcessGroup([0, 1], CommunicationLog(), category="data_parallel")
        gradient = rng.normal(size=(16, 8))
        bucket, arenas = one_parameter_bucket(reducer, gradient.shape)
        steps = 90
        sent = np.zeros_like(gradient)
        delivered = np.zeros_like(gradient)
        errors = []
        for _ in range(steps):
            for arena in arenas:
                arena.grad[...] = gradient.reshape(-1)
            fold_replicas(reducer.reduce_codec_bucket, bucket, [arena.grad for arena in arenas], group)
            sent += gradient
            delivered += arenas[0].grad.reshape(gradient.shape)
            errors.append(float(np.linalg.norm(sent - delivered)))
        # The tracking error saturates: the residual stays within a bounded band
        # (a small multiple of one gradient) instead of growing with the step
        # count, and its late plateau is no higher than its mid-run plateau.
        gradient_norm = float(np.linalg.norm(gradient))
        assert max(errors) < 6.0 * gradient_norm
        mid_plateau = float(np.mean(errors[steps // 3 : 2 * steps // 3]))
        late_plateau = float(np.mean(errors[-steps // 3 :]))
        assert late_plateau < 1.3 * mid_plateau + 0.1 * gradient_norm
        # And the mean delivered gradient converges to the true gradient
        # (the residual amortises over the step count).
        mean_delivered = delivered / steps
        assert np.linalg.norm(mean_delivered - gradient) < 0.15 * gradient_norm

    @pytest.mark.parametrize("codec", ["qsgd", "topk"])
    def test_alternative_codecs_train_and_stay_in_sync(self, small_config, loader, codec):
        """QSGD/top-k DP compression trains end-to-end with replicas in lockstep."""
        from repro.training.trainer import Pretrainer

        plan = dp_codec_plan(
            codec=codec, bits=6, fraction=0.2, stage_fraction=1.0, min_elements=64
        ).with_topology(pp=2, dp=2, micro_batches=2)
        trainer = Pretrainer(small_config, loader, plan, learning_rate=2e-3, seed=1)
        losses = [trainer.train_iteration() for _ in range(6)]
        assert trainer.weights_in_sync()
        assert min(losses) < losses[0]
        _, _, saved, _, _ = axis_report(trainer.engine.log.records)
        assert saved["data_parallel"] > 0.2

    def test_disabling_error_feedback_drops_residual_state(self, rng):
        spec = CompressionSpec(
            codec="topk", fraction=0.1, error_feedback=False, stage_fraction=1.0, min_elements=16
        )
        reducer = CompressedGradientAllReduce(spec, num_stages=1, seed=0)
        group = SimulatedProcessGroup([0, 1], CommunicationLog(), category="data_parallel")
        bucket, arenas = one_parameter_bucket(reducer, (16, 8))
        for arena in arenas:
            arena.grad[...] = rng.normal(size=16 * 8)
        fold_replicas(reducer.reduce_codec_bucket, bucket, [arena.grad for arena in arenas], group)
        assert reducer.residual_memory_bytes() == 0


class TestTrafficAccounting:
    def test_pipeline_boundary_traffic_is_per_boundary_exact(self, tiny_config, rng):
        engine = make_engine(tiny_config, num_stages=2, dp=1, seed=0)
        batches = make_batches(tiny_config, rng, replicas=1, micro_batches=3, batch=2, seq=8)
        result = engine.run_iteration(batches)
        # One boundary; 3 backward transfers of (2, 8, hidden) fp16 activations.
        expected = 3 * 2 * 8 * tiny_config.hidden_size * WIRE_BYTES_PER_ELEMENT
        assert result.pipeline_boundary_wire_bytes == {0: float(expected)}
        assert result.axis_wire_bytes["pipeline_backward"] == float(expected)
        assert result.axis_wire_bytes["pipeline_forward"] == float(expected)

    def test_compressed_backprop_shrinks_only_epilogue_boundaries(self, small_config, rng):
        baseline = make_engine(small_config, num_stages=2, dp=1, seed=0)
        compressed = make_engine(
            small_config, ParallelPlan.cb(rank=2), num_stages=2, dp=1, seed=0
        )
        batches = make_batches(small_config, rng, replicas=1, micro_batches=4)
        base = baseline.run_iteration(batches)
        comp = compressed.run_iteration(batches)
        assert (
            comp.axis_wire_bytes["pipeline_backward"]
            < base.axis_wire_bytes["pipeline_backward"]
        )
        # The log's per-boundary bytes, and the compressed transfers' savings.
        assert set(comp.pipeline_boundary_wire_bytes) == {0}
        assert 0 < comp.axis_compressed_fraction["pipeline_backward"] <= 1
        _, _, saved, _, _ = axis_report(compressed.log.records)
        assert saved["pipeline_backward"] > 0

    def test_dp_traffic_accounted_per_stage_with_selective_compression(
        self, small_config, rng
    ):
        engine = make_engine(
            small_config,
            ParallelPlan.cb_fe_sc(cb_rank=2, dp_rank=2, stage_fraction=0.5),
            num_stages=2,
            dp=2,
            seed=0,
        )
        batches = make_batches(small_config, rng)
        engine.run_iteration(batches)
        traffic = dp_traffic_by_stage(engine.log.records)
        assert set(traffic) == {0, 1}
        # Stage 0 is selected: its large parameters go compressed.
        assert traffic[0]["compressed"] > 0
        assert traffic[0]["payload_bytes"] < traffic[0]["original_bytes"]
        # Stage 1 is not selected: every byte goes uncompressed.
        assert traffic[1]["compressed"] == 0
        assert traffic[1]["payload_bytes"] == traffic[1]["original_bytes"]
        _, _, saved, _, _ = axis_report(engine.log.records)
        assert saved["data_parallel"] > 0

    @pytest.mark.parametrize("replicas", [2, 3, 4, 5])
    def test_exact_bucket_reduces_in_place_as_the_stacked_mean(self, rng, replicas):
        """Tile by tile into replica 0's view, copied out: the bits of
        ``SimulatedProcessGroup.all_reduce(op="mean")`` and its traffic record."""
        size = 3 * (1 << 14) + 77  # several tiles and a ragged last one
        gradients = [rng.standard_normal(size) for _ in range(replicas)]
        bucket = GradientBucket(
            stage_index=1, index=2, start=0, stop=size, parameter_names=("a", "b")
        )
        logs = CommunicationLog(), CommunicationLog()
        groups = [
            SimulatedProcessGroup(list(range(replicas)), log, category="data_parallel")
            for log in logs
        ]
        expected = groups[0].all_reduce(
            gradients, op="mean", description="stage1 bucket2 (2 params)"
        )
        reducer = CompressedGradientAllReduce(CompressionSpec(), num_stages=2)
        in_place = [gradient.copy() for gradient in gradients]
        assert fold_replicas(reducer.reduce_bucket, bucket, in_place, groups[1]) is None
        for synced, reference in zip(in_place, expected, strict=True):
            assert np.array_equal(synced.view(np.uint64), reference.view(np.uint64))
        assert logs[1].records == logs[0].records

    def test_uncompressed_dp_payload_matches_parameter_sizes(self, tiny_config, rng):
        engine = make_engine(tiny_config, num_stages=2, dp=2, seed=0)
        batches = make_batches(tiny_config, rng)
        engine.run_iteration(batches)
        traffic = dp_traffic_by_stage(engine.log.records)
        for stage_index in (0, 1):
            stage = engine.replicas[0][stage_index]
            expected = sum(
                parameter.size * WIRE_BYTES_PER_ELEMENT
                for parameter in stage.parameters()
                if parameter.requires_grad and "word_embeddings" not in (parameter.name or "")
            )
            assert traffic[stage_index]["payload_bytes"] == expected
            assert traffic[stage_index]["original_bytes"] == expected

    def test_tensor_parallel_traffic_matches_analytic_volume(self, tiny_config, rng):
        tp = 2
        engine = make_engine(tiny_config, num_stages=2, dp=2, tp=tp, seed=0)
        micro_batches, batch, seq = 2, 2, 8
        batches = make_batches(
            tiny_config, rng, replicas=2, micro_batches=micro_batches, batch=batch, seq=seq
        )
        result = engine.run_iteration(batches)
        payload = batch * seq * tiny_config.hidden_size * WIRE_BYTES_PER_ELEMENT
        transfers = (
            2  # replicas
            * micro_batches
            * 2  # directions
            * tiny_config.num_layers
            * TP_ALL_REDUCES_PER_LAYER_PER_DIRECTION
        )
        expected = transfers * ring_all_reduce_wire_bytes(payload, tp)
        assert result.axis_wire_bytes["tensor_parallel"] == pytest.approx(expected)

    def test_fused_embedding_moves_fewer_bytes_than_baseline(self, small_config, rng):
        batches = make_batches(small_config, rng)
        plain = make_engine(small_config, ParallelPlan.baseline(), seed=0)
        fused = make_engine(small_config, ParallelPlan.cb_fe(rank=2), seed=0)
        plain_result = plain.run_iteration(batches)
        fused_result = fused.run_iteration(batches)
        assert (
            fused_result.axis_wire_bytes["embedding"]
            < plain_result.axis_wire_bytes["embedding"]
        )

    def test_iteration_result_is_a_delta_not_cumulative(self, tiny_config, rng):
        engine = make_engine(tiny_config, num_stages=2, dp=2, seed=0)
        batches = make_batches(tiny_config, rng)
        first = engine.run_iteration(batches)
        engine.zero_grad()
        second = engine.run_iteration(batches)
        for axis, value in first.axis_wire_bytes.items():
            assert second.axis_wire_bytes[axis] == pytest.approx(value)
        # The engine-lifetime summary, by contrast, accumulates.
        assert engine.traffic_summary()["data_parallel"] == pytest.approx(
            2 * first.axis_wire_bytes["data_parallel"]
        )

    def test_replica_count_validated(self, tiny_config, rng):
        engine = make_engine(tiny_config, num_stages=2, dp=2)
        with pytest.raises(ValueError):
            engine.run_iteration(make_batches(tiny_config, rng, replicas=1))


class TestOverlappedDataParallel:
    """The bucketed DP all-reduce overlapped with the pipeline cool-down."""

    @staticmethod
    def _train(engine, batches, iterations=3):
        optimizer = engine.build_optimizer(lr=2e-3)
        results = []
        for _ in range(iterations):
            optimizer.zero_grad()
            results.append(engine.run_iteration(batches))
            optimizer.step()
        return results

    def test_overlapped_path_is_weight_parity_with_per_parameter_oracle(
        self, small_config, rng
    ):
        """Compression off: the bucketed path, overlapped or serial, produces
        bit-for-bit the weights of the frozen per-parameter walk."""
        batches = make_batches(small_config, rng)
        oracle = per_parameter_engine(small_config, UNCOMPRESSED, seed=5)
        self._train(oracle, batches)
        for plan in (dp_codec_plan(bucket_bytes=2048), serial(UNCOMPRESSED)):
            engine = make_engine(small_config, plan, seed=5)
            self._train(engine, batches)
            for param, oracle_param in zip(engine.parameters(), oracle.parameters()):
                assert np.array_equal(param.data, oracle_param.data), param.name
                assert np.array_equal(param.grad, oracle_param.grad), param.name

    @pytest.mark.parametrize("dp", [2, 3])
    @pytest.mark.parametrize("codec", ["powersgd", "qsgd", "topk"])
    @pytest.mark.parametrize("error_feedback", [True, False])
    def test_overlapped_path_is_weight_parity_under_every_codec(
        self, small_config, codec, error_feedback, dp
    ):
        """With a codec on, the bucketed path compresses *per bucket* on the
        flat arena views while the frozen walk compresses per parameter — same
        per-tensor keys, RNG streams, and error-feedback math, so three
        iterations of training end bit-for-bit identical, overlapped or serial."""
        batches = make_batches(small_config, np.random.default_rng(dp), replicas=dp)
        plan = dp_codec_plan(
            codec=codec,
            rank=2,
            bits=4,
            fraction=0.2,
            stage_fraction=1.0,
            error_feedback=error_feedback,
            min_elements=64,
        )
        oracle = per_parameter_engine(small_config, plan, seed=4, dp=dp)
        self._train(oracle, batches)
        for variant in (plan.with_boundary(Boundary.DP, bucket_bytes=2048), serial(plan)):
            engine = make_engine(small_config, variant, dp=dp, seed=4)
            self._train(engine, batches)
            for param, oracle_param in zip(engine.parameters(), oracle.parameters()):
                assert np.array_equal(param.data, oracle_param.data), param.name
                assert np.array_equal(param.grad, oracle_param.grad), param.name

    def test_selective_stage_fraction_respected_on_bucketed_path(self, small_config, rng):
        """stage_fraction=0.5 on PP2: stage 0 compressed per bucket, stage 1 exact."""
        batches = make_batches(small_config, rng)
        plan = dp_codec_plan(codec="powersgd", rank=2, stage_fraction=0.5, min_elements=64)
        bucketed = make_engine(small_config, plan, seed=4)
        oracle = per_parameter_engine(small_config, plan, seed=4)
        self._train(bucketed, batches)
        self._train(oracle, batches)
        for param, oracle_param in zip(bucketed.parameters(), oracle.parameters()):
            assert np.array_equal(param.data, oracle_param.data)
        traffic = dp_traffic_by_stage(bucketed.log.records)
        assert traffic[0]["compressed"] > 0
        assert traffic[1]["compressed"] == 0

    @pytest.mark.parametrize("codec", ["none", "powersgd", "qsgd", "topk"])
    def test_micro_batch_fire_changes_only_overlap_accounting(
        self, small_config, rng, codec
    ):
        """dp_fire='micro_batch' must leave weights bit-identical to the stage
        granularity (and to serial); only the overlapped fraction may move."""
        batches = make_batches(small_config, rng)
        plan = dp_codec_plan(
            codec=codec,
            rank=2,
            bits=4,
            fraction=0.2,
            stage_fraction=1.0,
            min_elements=64,
            bucket_bytes=2048,
        )
        stage_fire = make_engine(small_config, plan.with_schedule(dp_fire="stage"), seed=6)
        micro_fire = make_engine(
            small_config, plan.with_schedule(dp_fire="micro_batch"), seed=6
        )
        stage_results = self._train(stage_fire, batches)
        micro_results = self._train(micro_fire, batches)
        for stage_param, micro_param in zip(
            stage_fire.parameters(), micro_fire.parameters()
        ):
            assert np.array_equal(stage_param.data, micro_param.data), stage_param.name
        for stage_result, micro_result in zip(stage_results, micro_results):
            assert micro_result.axis_wire_bytes["data_parallel"] == pytest.approx(
                stage_result.axis_wire_bytes["data_parallel"]
            )
            # Micro-batch firing hides strictly more: everything overlaps except
            # the one bucket that completes when the pipeline drains.
            assert (
                micro_result.dp_overlapped_fraction
                > stage_result.dp_overlapped_fraction
            )
            assert micro_result.dp_exposed_wire_bytes > 0.0

    def test_micro_batch_fire_exposes_exactly_one_bucket(self, small_config, rng):
        batches = make_batches(small_config, rng)
        engine = make_engine(
            small_config,
            dp_codec_plan(bucket_bytes=1024).with_schedule(dp_fire="micro_batch"),
            seed=0,
        )
        engine.run_iteration(batches)
        dp_records = [r for r in engine.log.records if r.category == "data_parallel"]
        exposed = [r for r in dp_records if not r.overlapped]
        assert len(exposed) == 1, [r.description for r in exposed]
        assert exposed[0].description.startswith("stage0"), exposed[0].description

    def test_bucket_bytes_sum_to_per_parameter_bytes(self, small_config, rng):
        """Accounting property: per-stage bucketed payload/original bytes equal the
        frozen per-parameter walk's accounting exactly."""
        batches = make_batches(small_config, rng)
        bucketed = make_engine(small_config, dp_codec_plan(bucket_bytes=1024), seed=0)
        oracle = per_parameter_engine(small_config, UNCOMPRESSED, seed=0)
        bucketed_result = bucketed.run_iteration(batches)
        oracle_result = oracle.run_iteration(batches)
        bucketed_traffic = dp_traffic_by_stage(bucketed.log.records)
        oracle_traffic = dp_traffic_by_stage(oracle.log.records)
        assert set(bucketed_traffic) == set(oracle_traffic)
        for stage, traffic in bucketed_traffic.items():
            assert traffic["payload_bytes"] == oracle_traffic[stage]["payload_bytes"]
            assert traffic["original_bytes"] == oracle_traffic[stage]["original_bytes"]
            # Bucketing coalesces messages: strictly fewer all-reduces.
            assert 0 < traffic["records"] < oracle_traffic[stage]["records"]
        # The axis totals agree too (same wire bytes, different granularity).
        assert bucketed_result.axis_wire_bytes["data_parallel"] == pytest.approx(
            oracle_result.axis_wire_bytes["data_parallel"]
        )

    def test_overlap_accounting_flags_cooldown_traffic(self, small_config, rng):
        """Late stages' buckets are issued inside the cool-down (overlapped);
        stage 0 drains last, so its traffic is exposed."""
        batches = make_batches(small_config, rng)
        engine = make_engine(small_config, num_stages=2, seed=0)
        result = engine.run_iteration(batches)
        dp_records = [r for r in engine.log.records if r.category == "data_parallel"]
        assert dp_records
        for record in dp_records:
            stage_zero = record.description.startswith("stage0")
            assert record.overlapped == (not stage_zero), record.description
        assert result.dp_overlapped_wire_bytes > 0
        assert result.dp_exposed_wire_bytes > 0
        assert result.dp_exposed_wire_bytes + result.dp_overlapped_wire_bytes == (
            pytest.approx(result.axis_wire_bytes["data_parallel"])
        )
        assert 0.0 < result.dp_overlapped_fraction < 1.0

    @pytest.mark.parametrize("dp_fire", ["stage", "micro_batch"])
    def test_serial_reports_everything_exposed(self, small_config, rng, dp_fire):
        """Serial fires the same buckets as 1f1b, after the drain: the same
        messages and wire bytes, none of them overlapped."""
        batches = make_batches(small_config, rng)
        plan = dp_codec_plan(bucket_bytes=1024).with_schedule(dp_fire=dp_fire)
        engine = make_engine(small_config, serial(plan), seed=0)
        overlapped = make_engine(small_config, plan, seed=0)
        result = engine.run_iteration(batches)
        overlapped_result = overlapped.run_iteration(batches)
        assert result.dp_overlapped_wire_bytes == 0.0
        assert result.dp_overlapped_fraction == 0.0
        assert result.dp_exposed_wire_bytes == pytest.approx(
            result.axis_wire_bytes["data_parallel"]
        )
        records = [r for r in engine.log.records if r.category == "data_parallel"]
        assert records and not any(record.overlapped for record in records)
        assert len(records) == len(engine.bucketed_sync.buckets)
        assert [r.description for r in records] == [
            r.description for r in overlapped.log.records if r.category == "data_parallel"
        ]
        assert result.axis_wire_bytes == overlapped_result.axis_wire_bytes

    def test_bucket_size_knob_controls_message_count(self, small_config, rng):
        """Smaller bucket targets produce more (but equally sized in total) messages."""
        batches = make_batches(small_config, rng)

        def dp_message_count(bucket_bytes):
            engine = make_engine(
                small_config, dp_codec_plan(bucket_bytes=bucket_bytes), seed=0
            )
            engine.run_iteration(batches)
            traffic = dp_traffic_by_stage(engine.log.records).values()
            return sum(t["records"] for t in traffic), sum(t["payload_bytes"] for t in traffic)

        small_messages, small_payload = dp_message_count(512)
        large_messages, large_payload = dp_message_count(1 << 20)
        assert small_messages > large_messages
        assert small_payload == large_payload


class TestZeroBubbleEngine:
    """Schedule.kind="zb1" through the unified 3D engine: weight parity with 1f1b."""

    # Four layers so pipelines up to PP4 are expressible.
    CONFIG = GPTModelConfig(
        vocab_size=32, max_sequence_length=12, num_layers=4, hidden_size=16, num_heads=2
    )

    @staticmethod
    def _build(kind, pp, dp, micro_batches, codec="none", error_feedback=True, seed=4):
        plan = ParallelPlan(
            topology=Topology(dp=dp, pp=pp, tp=1, micro_batches=micro_batches),
            schedule=Schedule(kind=kind),
            compression={
                Boundary.DP: CompressionSpec(
                    codec=codec,
                    rank=2,
                    bits=4,
                    fraction=0.2,
                    stage_fraction=1.0,
                    error_feedback=error_feedback,
                    min_elements=64,
                    bucket_bytes=2048,
                )
            },
        )
        return ThreeDParallelEngine(TestZeroBubbleEngine.CONFIG, plan=plan, seed=seed)

    @classmethod
    def _train(cls, engine, batches, iterations=2):
        optimizer = engine.build_optimizer(lr=2e-3)
        for _ in range(iterations):
            optimizer.zero_grad()
            engine.run_iteration(batches)
            optimizer.step()

    @pytest.mark.parametrize("codec", ["none", "powersgd", "qsgd", "topk"])
    def test_zb1_weight_parity_with_1f1b_per_codec(self, rng, codec):
        batches = make_batches(self.CONFIG, rng, replicas=2, micro_batches=4)
        reference = self._build("1f1b", pp=2, dp=2, micro_batches=4, codec=codec)
        zb1 = self._build("zb1", pp=2, dp=2, micro_batches=4, codec=codec)
        self._train(reference, batches, iterations=3)
        self._train(zb1, batches, iterations=3)
        for ref_param, zb1_param in zip(reference.parameters(), zb1.parameters()):
            assert np.array_equal(ref_param.data, zb1_param.data), ref_param.name
            assert np.array_equal(ref_param.grad, zb1_param.grad), ref_param.name

    @settings(max_examples=10, deadline=None)
    @given(
        pp=st.integers(min_value=1, max_value=4),
        dp=st.integers(min_value=1, max_value=3),
        micro_batches=st.integers(min_value=1, max_value=4),
        codec=st.sampled_from(["none", "powersgd", "qsgd", "topk"]),
        error_feedback=st.booleans(),
    )
    def test_zb1_weight_parity_sweep(self, pp, dp, micro_batches, codec, error_feedback):
        """zb1 == 1f1b bit-for-bit across PP x DP layouts and DP codecs.

        Includes micro_batches < pp and the pp == 1 degenerate schedule.
        """
        rng = np.random.default_rng(pp * 100 + dp * 10 + micro_batches)
        batches = make_batches(self.CONFIG, rng, replicas=dp, micro_batches=micro_batches)
        reference = self._build(
            "1f1b", pp, dp, micro_batches, codec=codec, error_feedback=error_feedback
        )
        zb1 = self._build(
            "zb1", pp, dp, micro_batches, codec=codec, error_feedback=error_feedback
        )
        self._train(reference, batches, iterations=2)
        self._train(zb1, batches, iterations=2)
        for ref_param, zb1_param in zip(reference.parameters(), zb1.parameters()):
            assert np.array_equal(ref_param.data, zb1_param.data), ref_param.name

    def test_zb1_matches_the_single_device_reference(self, rng):
        """Transitivity check run directly: zb1 with one replica reproduces the
        single-device reference model's gradients bit-for-bit."""
        batches = make_batches(self.CONFIG, rng, replicas=1, micro_batches=3)
        engine = self._build("zb1", pp=3, dp=1, micro_batches=3)
        result = engine.run_iteration(batches)
        model, ref_loss = reference_gradients(self.CONFIG, batches[0], seed=4)
        assert result.mean_loss == pytest.approx(ref_loss, abs=1e-12)
        assert_matches_reference(engine, model, atol=0.0)

    def test_zb1_with_compressed_backprop_matches_1f1b(self, rng):
        """CB (PP-boundary compression + LEP) sees the same per-boundary
        micro-batch order under both schedules, so weights stay bit-identical."""
        batches = make_batches(self.CONFIG, rng, replicas=2, micro_batches=4)
        engines = {}
        for kind in ("1f1b", "zb1"):
            plan = (
                ParallelPlan.cb_fe_sc(Topology(dp=2, pp=2, tp=1, micro_batches=4))
                .proxy_scaled()
                .with_schedule(kind=kind)
            )
            engine = ThreeDParallelEngine(self.CONFIG, plan=plan, seed=4)
            self._train(engine, batches, iterations=3)
            engines[kind] = engine
        for ref_param, zb1_param in zip(
            engines["1f1b"].parameters(), engines["zb1"].parameters()
        ):
            assert np.array_equal(ref_param.data, zb1_param.data), ref_param.name

    def test_zb1_fires_buckets_at_micro_batch_granularity(self, rng):
        """zb1's W passes finalise gradients per micro-batch, so the engine
        fires every bucket overlapped except stage 0's input-side one — the
        mb-fire pattern — even when the plan says dp_fire="stage"."""
        batches = make_batches(self.CONFIG, rng, replicas=2, micro_batches=4)
        engine = self._build("zb1", pp=2, dp=2, micro_batches=4)
        assert engine.bucketed_sync is not None
        assert engine.bucketed_sync.dp_fire == "stage"  # the plan default
        result = engine.run_iteration(batches)
        records = [
            record
            for record in engine.log.records
            if record.category == "data_parallel"
        ]
        exposed = [record for record in records if not record.overlapped]
        assert len(exposed) == 1
        assert result.dp_exposed_wire_bytes == pytest.approx(exposed[0].wire_bytes)

    def test_1f1b_stage_fire_still_exposes_all_of_stage_zero(self, rng):
        """The zb1 firing rule must not leak into the fused-backward schedule."""
        batches = make_batches(self.CONFIG, rng, replicas=2, micro_batches=4)
        engine = self._build("1f1b", pp=2, dp=2, micro_batches=4)
        engine.run_iteration(batches)
        exposed = [
            record
            for record in engine.log.records
            if record.category == "data_parallel" and not record.overlapped
        ]
        assert len(exposed) > 1  # every stage-0 bucket is exposed under stage fire


class TestModelChunks:
    """``num_model_chunks`` is simulated, not executed: refused at pp > 1, inert at pp == 1."""

    CONFIG = TestZeroBubbleEngine.CONFIG

    def test_interleaved_plan_is_refused_at_pp_above_one(self):
        plan = (
            ParallelPlan.baseline()
            .with_topology(dp=1, pp=2, micro_batches=4)
            .with_schedule(kind="1f1b", num_model_chunks=2)
        )
        assert plan.schedule.describe() == "1f1bx2"
        with pytest.raises(ValueError, match="num_model_chunks=2 at pp=2"):
            ThreeDParallelEngine(self.CONFIG, plan)

    def test_chunks_at_pp_one_change_nothing(self, rng):
        batches = make_batches(self.CONFIG, rng, replicas=1, micro_batches=2)
        plain = ParallelPlan.baseline().with_topology(dp=1, pp=1, micro_batches=2)
        engines = [
            ThreeDParallelEngine(self.CONFIG, plan, seed=4)
            for plan in (plain, plain.with_schedule(num_model_chunks=2))
        ]
        for engine in engines:
            engine.run_iteration(batches)
        for plain_param, chunked_param in zip(engines[0].parameters(), engines[1].parameters()):
            assert np.array_equal(plain_param.grad, chunked_param.grad), plain_param.name

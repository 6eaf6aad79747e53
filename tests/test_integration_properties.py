"""Cross-module integration tests and system-level property tests.

These tests tie several subsystems together (functional engines + compression +
synchronisation, or cost model + executor) and check invariants that must hold for
*any* configuration, complementing the per-module unit tests and the paper-shape
assertions in ``benchmarks/``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import LanguageModelingDataLoader, SyntheticCorpus, SyntheticCorpusConfig
from repro.models import GPT_2_5B, GPT_8_3B, functional_config
from repro.parallel.process_groups import ParallelLayout
from repro.plan import Boundary, CompressionSpec, ParallelPlan
from repro.simulator import PipelineTimingSimulator, TrainingJob
from repro.simulator.cost_model import CostModel
from repro.training.trainer import Pretrainer


# ----------------------------------------------------------------------------------
# Functional end-to-end integration
# ----------------------------------------------------------------------------------


def build_trainer(plan: ParallelPlan, seed: int = 0) -> Pretrainer:
    corpus = SyntheticCorpus(SyntheticCorpusConfig(vocab_size=64, seed=21))
    loader = LanguageModelingDataLoader(
        corpus, sequence_length=12, micro_batch_size=2, num_micro_batches=4, data_parallel_degree=2
    )
    model = functional_config(
        vocab_size=64, sequence_length=16, num_layers=4, hidden_size=16, num_heads=2
    )
    plan = plan.with_topology(pp=4, dp=2, micro_batches=4)
    return Pretrainer(model, loader, plan, learning_rate=2e-3, seed=seed)


class TestFullStackIntegration:
    @pytest.mark.parametrize(
        "plan",
        [
            ParallelPlan.baseline(),
            ParallelPlan.cb(rank=2),
            ParallelPlan.cb_fe(rank=2),
            ParallelPlan.cb_fe_sc(cb_rank=2, dp_rank=2),
            ParallelPlan.naive_dp(dp_rank=2),
            ParallelPlan.optimus_topk(fraction=0.05),
        ],
        ids=lambda plan: plan.stack_label(),
    )
    def test_every_configuration_trains_and_stays_consistent(self, plan):
        """All technique combinations train, keep replicas identical, and keep the
        tied embedding copies identical after every iteration."""
        trainer = build_trainer(plan)
        for _ in range(3):
            loss = trainer.train_iteration()
            assert np.isfinite(loss)
            assert trainer.weights_in_sync()

    def test_compression_reduces_logged_backward_traffic(self):
        baseline = build_trainer(ParallelPlan.baseline())
        compressed = build_trainer(ParallelPlan.cb(rank=1))
        baseline.train_iteration()
        compressed.train_iteration()
        assert (
            compressed.engine.log.total_wire_bytes("inter_stage_backward")
            < baseline.engine.log.total_wire_bytes("inter_stage_backward")
        )
        # Forward traffic is untouched by CB.
        assert compressed.engine.log.total_wire_bytes("inter_stage_forward") == pytest.approx(
            baseline.engine.log.total_wire_bytes("inter_stage_forward")
        )

    def test_fused_embedding_reduces_embedding_traffic_without_changing_weights(self):
        plain = build_trainer(ParallelPlan.baseline(), seed=5)
        fused = build_trainer(
            ParallelPlan.baseline().with_boundary(Boundary.EMBEDDING, codec="fused"), seed=5
        )
        plain.train_iteration()
        fused.train_iteration()
        plain_log = plain.engine.log
        plain_embedding_bytes = plain_log.total_wire_bytes("embedding_dp") + plain_log.total_wire_bytes(
            "embedding_sync"
        )
        fused_embedding_bytes = fused.engine.log.total_wire_bytes("embedding_sync")
        assert fused_embedding_bytes < plain_embedding_bytes
        # FE is exact: the resulting weights match to float-reordering precision.
        for plain_param, fused_param in zip(plain.engine.parameters(), fused.engine.parameters()):
            assert np.allclose(plain_param.data, fused_param.data, atol=1e-9)

    def test_selective_compression_only_touches_selected_stages(self):
        trainer = build_trainer(ParallelPlan.cb_fe_sc(cb_rank=2, dp_rank=2, stage_fraction=0.5))
        trainer.train_iteration()
        assert trainer.engine.dp_reduce.powersgd is not None
        assert trainer.engine.dp_reduce.compressed_stages == {0, 1}
        assert trainer.engine.dp_reduce.powersgd.bytes_saved_fraction() > 0.3


# ----------------------------------------------------------------------------------
# Simulator properties
# ----------------------------------------------------------------------------------


class TestSimulatorProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        pipeline=st.sampled_from([2, 4, 8]),
        chunks=st.sampled_from([1, 2]),
        stage_fraction=st.sampled_from([0.0, 0.5, 1.0]),
        compress_backward=st.booleans(),
        fuse=st.booleans(),
    )
    def test_iteration_time_bounded_below_by_compute(
        self, pipeline, chunks, stage_fraction, compress_backward, fuse
    ):
        """No configuration can finish faster than one stage's serial compute."""
        layout = ParallelLayout(tensor_parallel=8, pipeline_parallel=pipeline, data_parallel=4)
        job = TrainingJob(model=GPT_2_5B, layout=layout, num_model_chunks=chunks)
        plan = ParallelPlan(
            compression={
                Boundary.PP: CompressionSpec(
                    codec="powersgd" if compress_backward else "none", rank=16
                ),
                Boundary.DP: CompressionSpec(codec="powersgd", stage_fraction=stage_fraction),
                Boundary.EMBEDDING: CompressionSpec(codec="fused" if fuse else "none"),
            }
        )
        timing = PipelineTimingSimulator(job, plan).run()
        cost = CostModel(job)
        compute_lower_bound = job.num_micro_batches * (cost.forward_time(0) + cost.backward_time(0))
        assert timing.iteration_time >= compute_lower_bound * 0.99
        assert all(np.isfinite(value) for value in timing.stage_finish)

    @settings(max_examples=10, deadline=None)
    @given(rank=st.sampled_from([4, 16, 64, 128]))
    def test_compression_never_increases_wire_bytes(self, rank):
        job = TrainingJob(model=GPT_8_3B)
        baseline = PipelineTimingSimulator(job).run()
        compressed = PipelineTimingSimulator(
            job, ParallelPlan.cb_fe_sc(cb_rank=rank, dp_rank=rank)
        ).run()
        assert compressed.interstage_wire_bytes <= baseline.interstage_wire_bytes
        assert compressed.dp_wire_bytes <= baseline.dp_wire_bytes
        assert compressed.embedding_wire_bytes <= baseline.embedding_wire_bytes

    @settings(max_examples=10, deadline=None)
    @given(fraction_pair=st.sampled_from([(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]))
    def test_more_compressed_stages_never_slower(self, fraction_pair):
        """At a fixed rank, compressing more stages never increases iteration time."""
        lower, higher = fraction_pair
        job = TrainingJob(model=GPT_2_5B)
        def iteration_time(stage_fraction):
            plan = ParallelPlan.naive_dp().with_boundary(
                Boundary.DP, stage_fraction=stage_fraction
            ).with_boundary(Boundary.EMBEDDING, codec="fused")
            return PipelineTimingSimulator(job, plan).run().iteration_time

        time_lower, time_higher = iteration_time(lower), iteration_time(higher)
        assert time_higher <= time_lower + 1e-9

    def test_faster_interconnect_faster_iteration(self):
        from repro.parallel.topology import ClusterTopology
        from repro.simulator.hardware import ClusterSpec

        slow = ClusterSpec(topology=ClusterTopology(inter_node_bandwidth_gbps=25.0))
        fast = ClusterSpec(topology=ClusterTopology(inter_node_bandwidth_gbps=400.0))
        slow_time = PipelineTimingSimulator(TrainingJob(model=GPT_8_3B, cluster=slow)).run().iteration_time
        fast_time = PipelineTimingSimulator(TrainingJob(model=GPT_8_3B, cluster=fast)).run().iteration_time
        assert fast_time < slow_time

"""Tests for the hardware catalogue and the analytic cost model."""

from __future__ import annotations

import pytest

from repro.compression import PowerSGDCompressor
from repro.models import GPT_2_5B, GPT_8_3B
from repro.parallel.process_groups import ParallelLayout
from repro.simulator.cost_model import CostModel, TrainingJob
from repro.simulator.hardware import A100, ClusterSpec, SimulationConstants


@pytest.fixture
def job() -> TrainingJob:
    return TrainingJob(model=GPT_8_3B)


@pytest.fixture
def cost(job) -> CostModel:
    return CostModel(job)


class TestHardware:
    def test_a100_peak(self):
        assert A100.peak_fp16_flops == pytest.approx(312e12)
        assert A100.memory_bytes == pytest.approx(40e9)

    def test_invalid_constants_raise(self):
        with pytest.raises(ValueError):
            SimulationConstants(compute_efficiency=0.0)
        with pytest.raises(ValueError):
            SimulationConstants(collective_bw_efficiency=1.5)
        with pytest.raises(ValueError):
            SimulationConstants(p2p_bandwidth_gbps=-1)

    def test_p2p_bandwidth_capped_by_nic(self):
        cluster = ClusterSpec(constants=SimulationConstants(p2p_bandwidth_gbps=10_000))
        assert cluster.p2p_bandwidth_bytes_per_s <= 200e9 / 8


class TestTrainingJob:
    def test_paper_defaults(self, job):
        assert job.num_micro_batches == 16
        assert job.num_stages == 4
        assert job.seq_length == 1024

    def test_invalid_batch_split_raises(self):
        with pytest.raises(ValueError):
            TrainingJob(model=GPT_8_3B, global_batch_size=500)
        with pytest.raises(ValueError):
            TrainingJob(model=GPT_8_3B, micro_batch_size=7)

    def test_interleaving_requires_divisible_micro_batches(self):
        layout = ParallelLayout(tensor_parallel=4, pipeline_parallel=8, data_parallel=4)
        # 16 micro-batches over 8 stages is fine; 16 over 3 stages would not be.
        TrainingJob(model=GPT_8_3B, layout=layout, num_model_chunks=2)
        bad_layout = ParallelLayout(tensor_parallel=8, pipeline_parallel=3, data_parallel=4)
        with pytest.raises(ValueError):
            TrainingJob(model=GPT_8_3B, layout=bad_layout, num_model_chunks=2)


class TestLayerAssignment:
    def test_layers_split_evenly(self, cost):
        layers = [cost.layers_on_stage(stage) for stage in range(4)]
        assert sum(layers) == GPT_8_3B.num_layers
        assert max(layers) - min(layers) <= 1

    def test_out_of_range_stage_raises(self, cost):
        with pytest.raises(ValueError):
            cost.layers_on_stage(4)


class TestComputeTimes:
    def test_backward_costs_more_than_forward(self, cost):
        for stage in range(4):
            assert cost.backward_time(stage) > cost.forward_time(stage)

    def test_last_stage_pays_for_logits(self, cost):
        assert cost.forward_time(3) > cost.forward_time(1)

    def test_recompute_increases_backward(self, job):
        no_recompute = ClusterSpec(constants=SimulationConstants(recompute_activations=False))
        with_recompute = CostModel(job)
        without = CostModel(TrainingJob(model=GPT_8_3B, cluster=no_recompute))
        assert with_recompute.backward_time(1) > without.backward_time(1)

    def test_bigger_model_is_slower(self):
        small = CostModel(TrainingJob(model=GPT_2_5B))
        large = CostModel(TrainingJob(model=GPT_8_3B))
        assert large.forward_time(1) > small.forward_time(1)


class TestCommunicationVolumes:
    def test_interstage_volume(self, cost, job):
        expected = 8 * 1024 * GPT_8_3B.hidden_size * 2 * 8  # mb*seq*h*fp16*tp
        assert cost.interstage_message_bytes() == pytest.approx(expected)

    def test_compressed_activation_much_smaller(self, cost):
        compressed = cost.compressed_activation_bytes(PowerSGDCompressor(rank=16))
        assert compressed < cost.interstage_message_bytes() / 50

    def test_compressed_volume_grows_with_rank(self, cost):
        rank_16, rank_128 = (
            cost.compressed_activation_bytes(PowerSGDCompressor(rank=rank)) for rank in (16, 128)
        )
        assert rank_128 > rank_16

    def test_dp_bytes_scale_with_stage_parameters(self, cost):
        # Stage 0 holds the position embedding on top of its layers.
        assert cost.dp_gradient_bytes(0) > cost.dp_gradient_bytes(1)

    def test_dp_compression_reduces_bytes(self, cost):
        compressed = cost.dp_compressed_gradient_bytes(1, PowerSGDCompressor(rank=128), 1024)
        assert compressed < cost.dp_gradient_bytes(1) / 5

    def test_single_replica_dp_time_is_zero(self):
        layout = ParallelLayout(tensor_parallel=8, pipeline_parallel=4, data_parallel=1)
        cost = CostModel(TrainingJob(model=GPT_8_3B, layout=layout, global_batch_size=128))
        assert cost.dp_time(0) == 0.0

    def test_stage_weight_matrices_match_layer_structure(self, cost):
        matrices = cost.stage_weight_matrices(1)
        assert len(matrices) == 4 * cost.layers_on_stage(1)
        hidden = GPT_8_3B.hidden_size
        assert (hidden, 3 * hidden) in matrices and (4 * hidden, hidden) in matrices


class TestEmbeddingCosts:
    def test_fused_cheaper_than_baseline(self, cost):
        baseline = cost.embedding_dp_time() + cost.embedding_sync_time()
        assert cost.fused_embedding_time() < baseline

    def test_single_stage_pipeline_has_no_sync(self):
        layout = ParallelLayout(tensor_parallel=8, pipeline_parallel=1, data_parallel=4)
        cost = CostModel(TrainingJob(model=GPT_2_5B, layout=layout, global_batch_size=512))
        assert cost.embedding_sync_time() == 0.0


class TestCompressionKernels:
    def test_compress_time_grows_with_rank(self, cost):
        rows, cols = 8 * 1024, GPT_8_3B.hidden_size
        assert cost.powersgd_compress_time(rows, cols, 128) > cost.powersgd_compress_time(rows, cols, 16)

    def test_decompress_faster_than_compress(self, cost):
        rows, cols = 8 * 1024, GPT_8_3B.hidden_size
        assert cost.powersgd_decompress_time(rows, cols, 16) < cost.powersgd_compress_time(rows, cols, 16)

    def test_compression_throughput_exceeds_interconnect(self, cost, job):
        """Paper Section 9.6: the kernels are far faster than the 200 Gb/s link."""
        rows, cols = 8 * 1024, GPT_8_3B.hidden_size
        seconds = cost.powersgd_compress_time(rows, cols, 16)
        gbps = rows * cols * 2 * 8 / seconds / 1e9
        assert gbps > job.cluster.topology.inter_node_bandwidth_gbps

    def test_dp_compression_overhead_positive(self, cost):
        assert cost.dp_compression_overhead(0, 128) > 0


class TestNICContention:
    def test_lower_tp_degree_increases_contention(self):
        """With TP < 8 a node carries several stages' traffic through one NIC."""
        tp8 = CostModel(TrainingJob(model=GPT_8_3B))
        layout = ParallelLayout(tensor_parallel=2, pipeline_parallel=16, data_parallel=4)
        tp2 = CostModel(TrainingJob(model=GPT_8_3B, layout=layout))
        # Per-transfer inter-stage volume: tp2 sends 2 copies but shares the NIC 4-ways.
        assert tp2.interstage_message_bytes() == pytest.approx(tp8.interstage_message_bytes())

    def test_scatter_gather_reduces_volume(self):
        cluster = ClusterSpec(constants=SimulationConstants(scatter_gather_pipeline_comm=True))
        optimised = CostModel(TrainingJob(model=GPT_8_3B, cluster=cluster))
        default = CostModel(TrainingJob(model=GPT_8_3B))
        assert optimised.interstage_message_bytes() < default.interstage_message_bytes()

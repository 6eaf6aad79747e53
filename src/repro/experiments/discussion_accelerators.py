"""Section 10.1 — applicability to other accelerators (TPU / IPU pods).

The paper's discussion argues that Optimus-CC has *more* potential on accelerators
whose ratio of compute throughput to inter-node bandwidth is higher than the A100 +
InfiniBand HDR setting: a TPU-pod-like node (≈400 Gb/s inter-node) and especially an
IPU-POD128-like node (≈8 PFLOPS per node but only 100 Gb/s inter-node).  This driver
models the three platforms with the same cost model and compares the full-stack
speedup, reproducing the qualitative claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.models.gpt_configs import GPT_8_3B, PaperModelSpec
from repro.parallel.process_groups import ParallelLayout
from repro.parallel.topology import ClusterTopology
from repro.plan import ParallelPlan
from repro.simulator.cost_model import TrainingJob
from repro.simulator.executor import PipelineTimingSimulator
from repro.simulator.hardware import ClusterSpec, GPUSpec
from repro.utils.tables import Table, format_float


@dataclass(frozen=True)
class AcceleratorPlatform:
    """One accelerator platform of the Section 10.1 comparison."""

    name: str
    device: GPUSpec
    devices_per_node: int
    inter_node_bandwidth_gbps: float

    @property
    def node_pflops(self) -> float:
        """Aggregate per-node peak throughput in PFLOP/s."""
        return self.device.peak_fp16_tflops * self.devices_per_node / 1000.0

    @property
    def compute_to_bandwidth_ratio(self) -> float:
        """Peak node FLOP/s per inter-node bit/s (higher = more compression upside)."""
        return (
            self.device.peak_fp16_flops
            * self.devices_per_node
            / (self.inter_node_bandwidth_gbps * 1e9)
        )


#: The paper's reference platform: 8 x A100 per node, InfiniBand HDR (≈5 PFLOPS/node).
GPU_PLATFORM = AcceleratorPlatform(
    name="GPU node (8xA100, IB HDR)",
    device=GPUSpec(name="A100", peak_fp16_tflops=312.0, memory_gb=40.0),
    devices_per_node=8,
    inter_node_bandwidth_gbps=200.0,
)

#: TPU-v4-pod-like node: similar aggregate compute, 400 Gb/s inter-node links.
TPU_PLATFORM = AcceleratorPlatform(
    name="TPU-like node (400 Gb/s)",
    device=GPUSpec(name="TPU-like", peak_fp16_tflops=275.0, memory_gb=32.0),
    devices_per_node=16,
    inter_node_bandwidth_gbps=400.0,
)

#: IPU-POD128-like node: ~8 PFLOPS per node but only 100 Gb/s inter-node (Section 10.1).
IPU_PLATFORM = AcceleratorPlatform(
    name="IPU-like node (8 PFLOPS, 100 Gb/s)",
    device=GPUSpec(name="IPU-like", peak_fp16_tflops=500.0, memory_gb=16.0),
    devices_per_node=16,
    inter_node_bandwidth_gbps=100.0,
)


@dataclass
class AcceleratorComparisonRow:
    platform: str
    node_pflops: float
    inter_node_gbps: float
    compute_to_bandwidth: float
    baseline_iteration: float
    optimus_speedup: float
    autotuned_speedup: float
    autotuned_stage_fraction: float


@dataclass
class AcceleratorComparisonResult:
    rows: list[AcceleratorComparisonRow] = field(default_factory=list)

    def speedups_ordered_by_ratio(self) -> list[float]:
        """Auto-tuned speedups sorted by increasing compute-to-bandwidth ratio.

        The paper's claim is about the *potential* of communication compression on
        each platform, so the per-platform operating point is chosen by the
        selective-compression auto-tuner rather than fixed at the GPU default.
        """
        ordered = sorted(self.rows, key=lambda row: row.compute_to_bandwidth)
        return [row.autotuned_speedup for row in ordered]

    def render(self) -> str:
        table = Table(
            title="Section 10.1: Optimus-CC potential on other accelerators (GPT-8.3B)",
            columns=[
                "Platform",
                "Node PFLOPS",
                "Inter-node Gb/s",
                "Compute/bandwidth",
                "Baseline iter (s)",
                "Speedup (paper default)",
                "Speedup (auto-tuned)",
            ],
        )
        for row in self.rows:
            table.add_row(
                [
                    row.platform,
                    format_float(row.node_pflops, 1),
                    format_float(row.inter_node_gbps, 0),
                    format_float(row.compute_to_bandwidth, 1),
                    format_float(row.baseline_iteration, 2),
                    f"{row.optimus_speedup:+.1%}",
                    f"{row.autotuned_speedup:+.1%} (SC {row.autotuned_stage_fraction:.0%})",
                ]
            )
        return table.render()


def _job_for(platform: AcceleratorPlatform, model: PaperModelSpec) -> TrainingJob:
    """Build a 16-node job on the given platform with a Megatron-style layout."""
    topology = ClusterTopology(
        num_nodes=16,
        gpus_per_node=platform.devices_per_node,
        inter_node_bandwidth_gbps=platform.inter_node_bandwidth_gbps,
    )
    layout = ParallelLayout(
        tensor_parallel=platform.devices_per_node,
        pipeline_parallel=4,
        data_parallel=4,
    )
    return TrainingJob(
        model=model, layout=layout, cluster=ClusterSpec(topology=topology, gpu=platform.device)
    )


def run_accelerator_comparison(
    model: PaperModelSpec = GPT_8_3B,
    platforms: tuple[AcceleratorPlatform, ...] = (GPU_PLATFORM, TPU_PLATFORM, IPU_PLATFORM),
) -> AcceleratorComparisonResult:
    """Compare the full-stack speedup across accelerator platforms.

    Two operating points are reported per platform: the paper's GPU default
    (CB + FE + SC at 75 % of stages, rank 128) and an auto-tuned point chosen by
    :class:`repro.core.autotune.SelectiveCompressionAutoTuner` — platforms with a
    higher compute-to-bandwidth ratio want more of their data-parallel traffic
    compressed.
    """
    from repro.core.autotune import SelectiveCompressionAutoTuner

    result = AcceleratorComparisonResult()
    for platform in platforms:
        job = _job_for(platform, model)
        baseline = PipelineTimingSimulator(job).run()
        optimus = PipelineTimingSimulator(job, ParallelPlan.cb_fe_sc()).run()
        tuner = SelectiveCompressionAutoTuner(
            job, stage_fractions=(0.5, 0.75, 1.0), dp_ranks=(64, 128)
        )
        tuned = tuner.tune(budget=1.0)
        result.rows.append(
            AcceleratorComparisonRow(
                platform=platform.name,
                node_pflops=platform.node_pflops,
                inter_node_gbps=platform.inter_node_bandwidth_gbps,
                compute_to_bandwidth=platform.compute_to_bandwidth_ratio,
                baseline_iteration=baseline.iteration_time,
                optimus_speedup=optimus.speedup_over(baseline),
                autotuned_speedup=tuned.best.speedup,
                autotuned_stage_fraction=tuned.best.stage_fraction,
            )
        )
    return result

"""Fig. 16 — scalability of Optimus-CC with model size.

The paper fixes the tensor-parallel degree at 8 and grows the model (up to GPT-3
scale, 175B) while adding GPUs, showing that Optimus-CC's speedup is sustained or
improves with scale: larger models suffer more from communication, and the
compression kernels get relatively cheaper.  The reproduction simulates one
iteration for each model with a pipeline depth chosen so the model fits the GPU
count growth pattern, and reports the speedup of each technique stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.engine_traffic import (
    EngineTrafficSample,
    measure_engine_traffic,
    render_traffic_samples,
)
from repro.experiments.settings import paper_job
from repro.models.gpt_configs import GPT_2_5B, GPT_8_3B, GPT_39B, GPT_175B, PaperModelSpec
from repro.parallel.topology import ClusterTopology
from repro.plan import ParallelPlan, Topology
from repro.simulator.executor import PipelineTimingSimulator
from repro.simulator.hardware import ClusterSpec
from repro.utils.tables import Table, format_float


@dataclass
class ScalabilityPoint:
    """Speedups of the technique stacks for one model size."""

    model: str
    parameters_billion: float
    num_gpus: int
    baseline_iteration_time: float
    speedups: dict[str, float] = field(default_factory=dict)
    #: Fraction of the baseline's DP all-reduce wire bytes hidden inside the
    #: pipeline cool-down (deeper pipelines leave later stages more slack).
    dp_overlapped_fraction: float = 0.0


@dataclass
class Fig16Result:
    points: list[ScalabilityPoint] = field(default_factory=list)
    #: Per-axis (PP vs DP) compressed-traffic numbers of the full stack versus the
    #: baseline, measured through the unified 3D-parallel engine as the pipeline
    #: deepens (the functional counterpart of the scalability sweep).
    engine_samples: list[EngineTrafficSample] = field(default_factory=list)

    def full_stack_speedups(self) -> list[float]:
        """CB+FE+SC speedup per model, ordered smallest to largest model."""
        return [point.speedups["CB+FE+SC"] for point in self.points]

    def render(self) -> str:
        table = Table(
            title="Fig. 16: scalability of Optimus-CC with model size (TP fixed at 8)",
            columns=[
                "Model",
                "Params (B)",
                "GPUs",
                "Baseline iter (s)",
                "DP overlapped",
                "CB",
                "CB+FE",
                "CB+FE+SC",
            ],
        )
        for point in self.points:
            table.add_row(
                [
                    point.model,
                    format_float(point.parameters_billion, 1),
                    point.num_gpus,
                    format_float(point.baseline_iteration_time, 2),
                    f"{point.dp_overlapped_fraction:.0%}",
                    f"{point.speedups['CB']:+.2%}",
                    f"{point.speedups['CB+FE']:+.2%}",
                    f"{point.speedups['CB+FE+SC']:+.2%}",
                ]
            )
        rendered = table.render()
        if self.engine_samples:
            rendered += "\n" + render_traffic_samples(
                self.engine_samples,
                "Unified-engine per-axis traffic as the pipeline deepens (functional proxy)",
            )
        return rendered


#: (model, pipeline depth) pairs: TP stays 8, DP stays 4, PP grows with the model.
FIG16_MODELS: tuple[tuple[PaperModelSpec, int], ...] = (
    (GPT_2_5B, 4),
    (GPT_8_3B, 4),
    (GPT_39B, 8),
    (GPT_175B, 16),
)

#: The sweep's technique stacks as declarative plans; the per-model topology is
#: attached with ``with_topology`` inside the sweep.
FIG16_PLANS: dict[str, ParallelPlan] = {
    "CB": ParallelPlan.cb(),
    "CB+FE": ParallelPlan.cb_fe(),
    "CB+FE+SC": ParallelPlan.cb_fe_sc(),
}


#: Pipeline depths of the functional engine-traffic probe (proxy for the sweep's
#: growing PP dimension; DP and TP stay at the probe defaults).
FIG16_PROBE_DEPTHS = (2, 4)


def run_fig16(
    models: tuple[tuple[PaperModelSpec, int], ...] = FIG16_MODELS,
    include_engine_traffic: bool = True,
) -> Fig16Result:
    """Reproduce Fig. 16 across the model-size sweep."""
    result = Fig16Result()
    if include_engine_traffic:
        for depth in FIG16_PROBE_DEPTHS:
            result.engine_samples.append(
                measure_engine_traffic(
                    f"Baseline PP{depth}",
                    plan=ParallelPlan.baseline().with_topology(pp=depth, tp=2),
                )
            )
            result.engine_samples.append(
                measure_engine_traffic(
                    f"CB+FE+SC PP{depth}",
                    plan=ParallelPlan.cb_fe_sc()
                    .proxy_scaled()
                    .with_topology(pp=depth, tp=2),
                )
            )
    for model, pipeline_depth in models:
        sweep_topology = Topology(dp=4, pp=pipeline_depth, tp=8)
        layout = sweep_topology.layout()
        topology = ClusterTopology(num_nodes=layout.world_size // 8, gpus_per_node=8)
        cluster = ClusterSpec(topology=topology)
        job = paper_job(model, layout=layout, cluster=cluster)
        baseline = PipelineTimingSimulator(job).run()
        point = ScalabilityPoint(
            model=model.name,
            parameters_billion=model.parameters_billion(),
            num_gpus=layout.world_size,
            baseline_iteration_time=baseline.iteration_time,
            dp_overlapped_fraction=baseline.dp_overlapped_fraction,
        )
        # The timing simulator takes its topology from ``job`` (built from
        # ``sweep_topology`` above); the plan contributes the compression specs.
        for label, plan in FIG16_PLANS.items():
            timing = PipelineTimingSimulator(job, plan).run()
            point.speedups[label] = timing.speedup_over(baseline)
        result.points.append(point)
    return result

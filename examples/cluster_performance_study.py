#!/usr/bin/env python3
"""Cluster performance study: where does Optimus-CC help most?

This example uses the performance simulator to answer three planning questions a
practitioner would ask before adopting communication compression:

1. **Interconnect sensitivity** — how much does Optimus-CC help on InfiniBand HDR
   (the paper's 200 Gb/s fabric) versus a commodity 10/25/100 GbE cluster?
2. **Model-size sensitivity** — how do the gains evolve from 2.5B to 175B parameters?
3. **Technique attribution** — for one configuration, how much of the gain comes
   from compressed backpropagation, fused embedding synchronisation, and selective
   stage compression respectively?

Run with:  python examples/cluster_performance_study.py
"""

from __future__ import annotations

from repro import ParallelPlan
from repro.models import GPT_2_5B, GPT_8_3B, GPT_39B, GPT_175B
from repro.parallel.process_groups import ParallelLayout
from repro.parallel.topology import ClusterTopology
from repro.simulator import PipelineTimingSimulator, TrainingJob, compute_breakdown
from repro.simulator.hardware import ClusterSpec
from repro.utils.tables import Table, format_float


def interconnect_sensitivity() -> None:
    """Speedup of the full Optimus-CC stack across interconnect generations."""
    fabrics = {
        "10 GbE": 10.0,
        "25 GbE": 25.0,
        "100 GbE": 100.0,
        "InfiniBand HDR (200 Gb/s)": 200.0,
    }
    table = Table(
        title="GPT-8.3B: Optimus-CC speedup vs inter-node fabric",
        columns=["Fabric", "Baseline iter (s)", "Optimus-CC iter (s)", "Speedup"],
    )
    for label, gbps in fabrics.items():
        topology = ClusterTopology(inter_node_bandwidth_gbps=gbps)
        cluster = ClusterSpec(topology=topology)
        job = TrainingJob(model=GPT_8_3B, cluster=cluster)
        baseline = PipelineTimingSimulator(job).run()
        optimus = PipelineTimingSimulator(job, ParallelPlan.preset("cb_fe_sc")).run()
        table.add_row(
            [
                label,
                format_float(baseline.iteration_time, 2),
                format_float(optimus.iteration_time, 2),
                f"{optimus.speedup_over(baseline):+.1%}",
            ]
        )
    print(table.render())
    print()


def model_size_sensitivity() -> None:
    """Speedup of the full stack as the model grows (GPUs grow with it)."""
    sweep = [(GPT_2_5B, 4), (GPT_8_3B, 4), (GPT_39B, 8), (GPT_175B, 16)]
    table = Table(
        title="Optimus-CC speedup vs model size (TP8, DP4, PP grows with the model)",
        columns=["Model", "GPUs", "Baseline iter (s)", "Speedup"],
    )
    for model, pipeline_depth in sweep:
        layout = ParallelLayout(tensor_parallel=8, pipeline_parallel=pipeline_depth, data_parallel=4)
        topology = ClusterTopology(num_nodes=layout.world_size // 8)
        job = TrainingJob(model=model, layout=layout, cluster=ClusterSpec(topology=topology))
        baseline = PipelineTimingSimulator(job).run()
        optimus = PipelineTimingSimulator(job, ParallelPlan.preset("cb_fe_sc")).run()
        table.add_row(
            [
                model.name,
                layout.world_size,
                format_float(baseline.iteration_time, 2),
                f"{optimus.speedup_over(baseline):+.1%}",
            ]
        )
    print(table.render())
    print()


def technique_attribution() -> None:
    """How much each technique contributes on the paper's GPT-2.5B configuration."""
    job = TrainingJob(model=GPT_2_5B)
    stacks = {
        "Baseline": ParallelPlan.preset("baseline"),
        "+ compressed backpropagation": ParallelPlan.preset("cb"),
        "+ fused embedding sync": ParallelPlan.preset("cb_fe"),
        "+ selective stage compression": ParallelPlan.preset("cb_fe_sc"),
    }
    table = Table(
        title="GPT-2.5B: cumulative contribution of each technique",
        columns=["Stack", "Iteration (s)", "Cumulative speedup", "Exposed comm fraction"],
    )
    baseline = None
    for label, plan in stacks.items():
        timing = PipelineTimingSimulator(job, plan).run()
        breakdown = compute_breakdown(job, plan)
        if baseline is None:
            baseline = timing
        table.add_row(
            [
                label,
                format_float(timing.iteration_time, 2),
                f"{timing.speedup_over(baseline):+.1%}",
                f"{breakdown.communication_fraction():.1%}",
            ]
        )
    print(table.render())


def main() -> None:
    interconnect_sensitivity()
    model_size_sensitivity()
    technique_attribution()


if __name__ == "__main__":
    main()

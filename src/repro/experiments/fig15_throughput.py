"""Fig. 15 — compression / decompression throughput of the inter-stage compressor.

The paper measures the PowerSGD compression and decompression throughput on the
inter-stage tensors of GPT-8.3B and GPT-175B across ranks, showing that (a) both are
far above the 200 Gb/s interconnect bandwidth, (b) throughput *decreases* as the
rank grows (the sequential orthogonalisation dominates), and (c) throughput is
higher for larger models (fixed kernel overheads amortise).  The reproduction uses
the analytic kernel model plus one genuinely measured NumPy data point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.engine_traffic import (
    EngineTrafficSample,
    measure_engine_traffic,
    render_traffic_samples,
)
from repro.experiments.settings import paper_job
from repro.models.gpt_configs import GPT_8_3B, GPT_175B, PaperModelSpec
from repro.plan import ParallelPlan
from repro.simulator.throughput import (
    CompressionThroughputModel,
    ThroughputPoint,
    measured_numpy_throughput,
)
from repro.utils.tables import Table, format_float


@dataclass
class Fig15Result:
    """Throughput sweeps per model plus the interconnect reference line."""

    interconnect_gbps: float
    sweeps: dict[str, list[ThroughputPoint]] = field(default_factory=dict)
    measured_cpu_point: ThroughputPoint | None = None
    #: Per-axis (PP vs DP) compressed-traffic numbers measured through the unified
    #: 3D-parallel engine — the functional counterpart of the throughput model.
    engine_samples: list[EngineTrafficSample] = field(default_factory=list)

    def points(self, model_name: str) -> list[ThroughputPoint]:
        return self.sweeps[model_name]

    def min_compress_gbps(self, model_name: str) -> float:
        return min(point.compress_gbps for point in self.points(model_name))

    def engine_sample(self, label: str) -> EngineTrafficSample:
        for sample in self.engine_samples:
            if sample.label == label:
                return sample
        raise KeyError(f"no engine traffic sample labelled {label!r}")

    def render(self) -> str:
        """Modelled sweeps and engine traffic; ``measured_cpu_point`` varies run to run, so not it."""
        table = Table(
            title="Fig. 15: PowerSGD compression/decompression throughput (Gbit/s)",
            columns=["Model", "Rank", "Compress", "Decompress", "Interconnect"],
        )
        for model_name, points in self.sweeps.items():
            for point in points:
                table.add_row(
                    [
                        model_name,
                        point.rank,
                        format_float(point.compress_gbps, 1),
                        format_float(point.decompress_gbps, 1),
                        format_float(self.interconnect_gbps, 0),
                    ]
                )
        lines = [table.render()]
        if self.engine_samples:
            lines.append(
                render_traffic_samples(
                    self.engine_samples,
                    "Per-axis wire traffic measured through the unified 3D engine",
                )
            )
        return "\n".join(lines)


#: Ranks swept in the figure.
FIG15_RANKS = (4, 16, 64, 256)


def run_fig15(
    models: list[PaperModelSpec] | None = None,
    ranks: tuple[int, ...] = FIG15_RANKS,
    include_measured_point: bool = True,
    include_engine_traffic: bool = True,
) -> Fig15Result:
    """Reproduce Fig. 15 for the given models (default: GPT-8.3B and GPT-175B)."""
    models = models if models is not None else [GPT_8_3B, GPT_175B]
    interconnect = None
    sweeps = {}
    for model in models:
        job = paper_job(model)
        throughput_model = CompressionThroughputModel(job)
        sweeps[model.name] = throughput_model.sweep(list(ranks))
        interconnect = throughput_model.interconnect_gbps()
    measured = measured_numpy_throughput(rows=1024, cols=256, rank=16, repeats=5) if include_measured_point else None
    engine_samples: list[EngineTrafficSample] = []
    if include_engine_traffic:
        engine_samples = [
            measure_engine_traffic("Baseline", plan=ParallelPlan.baseline()),
            measure_engine_traffic(
                "CB+FE+SC", plan=ParallelPlan.cb_fe_sc().proxy_scaled()
            ),
        ]
    return Fig15Result(
        interconnect_gbps=float(interconnect),
        sweeps=sweeps,
        measured_cpu_point=measured,
        engine_samples=engine_samples,
    )

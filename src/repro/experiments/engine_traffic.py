"""Per-axis traffic measurement through the unified 3D-parallel engine.

Several figures need the *measured* (not modelled) communication volume of a
training iteration split by parallelism axis — pipeline forward/backward,
data-parallel all-reduce, embedding synchronisation, tensor parallel — under a
given :class:`~repro.plan.ParallelPlan`.  This module runs a short functional training probe
through :class:`repro.parallel.engine.ThreeDParallelEngine` and reports exactly
what the engine's :class:`~repro.parallel.collectives.CommunicationLog` recorded.

The probe model is tiny (the traffic *ratios* between axes and the compressed
fractions are what matters, and those are scale-free); the numbers feed the
breakdown (Fig. 10), memory (Fig. 12), throughput (Fig. 15), and scalability
(Fig. 16) reports as the functional counterpart of the simulator's cost
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data import LanguageModelingDataLoader, SyntheticCorpus, SyntheticCorpusConfig
from repro.models.gpt_configs import functional_config
from repro.parallel.engine import ThreeDParallelEngine
from repro.plan import ParallelPlan
from repro.utils.tables import Table, format_float


@dataclass
class EngineTrafficSample:
    """Measured per-axis traffic of one engine configuration."""

    label: str
    num_stages: int
    data_parallel_degree: int
    tensor_parallel_degree: int
    iterations: int
    #: Wire bytes per axis, summed over the probe's iterations.
    axis_wire_bytes: dict[str, float] = field(default_factory=dict)
    #: Fraction of each axis's transfers that went compressed.
    axis_compressed_fraction: dict[str, float] = field(default_factory=dict)
    #: Backward inter-stage wire bytes per pipeline boundary.
    pipeline_boundary_wire_bytes: dict[int, float] = field(default_factory=dict)
    #: DP payload bytes saved by the codec (0.0 when uncompressed).
    dp_bytes_saved_fraction: float = 0.0
    #: DP wire bytes issued inside the pipeline cool-down (overlapped) vs after the
    #: pipeline drained (exposed), summed over the probe's iterations.
    dp_overlapped_wire_bytes: float = 0.0
    dp_exposed_wire_bytes: float = 0.0
    #: Error-feedback residual memory held at the end of the probe.
    residual_memory_bytes: int = 0
    final_loss: float = 0.0

    @property
    def pipeline_wire_bytes(self) -> float:
        return (
            self.axis_wire_bytes.get("pipeline_forward", 0.0)
            + self.axis_wire_bytes.get("pipeline_backward", 0.0)
        )

    @property
    def data_parallel_wire_bytes(self) -> float:
        return self.axis_wire_bytes.get("data_parallel", 0.0)

    @property
    def dp_overlapped_fraction(self) -> float:
        """Fraction of DP wire bytes hidden inside the pipeline cool-down."""
        total = self.dp_overlapped_wire_bytes + self.dp_exposed_wire_bytes
        if total <= 0:
            return 0.0
        return self.dp_overlapped_wire_bytes / total


def measure_engine_traffic(
    label: str, plan: ParallelPlan, iterations: int = 2, seed: int = 0
) -> EngineTrafficSample:
    """Train a tiny proxy through the unified engine and report its traffic.

    The topology, schedule, executor and every boundary's compression come
    from ``plan`` (``plan.with_topology(...)`` for another shape); the probe
    model has one transformer layer per pipeline stage.
    """
    topology = plan.topology
    model = functional_config(
        vocab_size=64, sequence_length=16, num_layers=topology.pp, hidden_size=16, num_heads=2
    )
    corpus = SyntheticCorpus(SyntheticCorpusConfig(vocab_size=64, seed=321))
    loader = LanguageModelingDataLoader(
        corpus,
        sequence_length=12,
        micro_batch_size=2,
        num_micro_batches=topology.micro_batches,
        data_parallel_degree=topology.dp,
    )
    engine = ThreeDParallelEngine(model, plan, seed=seed)
    optimizer = engine.build_optimizer(lr=1e-3)

    axis_totals: dict[str, float] = {}
    compressed: dict[str, float] = {}
    boundaries: dict[int, float] = {}
    dp_overlapped = 0.0
    dp_exposed = 0.0
    last_loss = 0.0
    try:
        for iteration in range(iterations):
            optimizer.zero_grad()
            result = engine.run_iteration(loader.iteration_batches(iteration))
            optimizer.step()
            last_loss = result.mean_loss
            for axis, value in result.axis_wire_bytes.items():
                axis_totals[axis] = axis_totals.get(axis, 0.0) + value
                compressed[axis] = result.axis_compressed_fraction[axis]
            for boundary, value in result.pipeline_boundary_wire_bytes.items():
                boundaries[boundary] = boundaries.get(boundary, 0.0) + value
            dp_overlapped += result.dp_overlapped_wire_bytes
            dp_exposed += result.dp_exposed_wire_bytes
    finally:
        # Joins/cleans the process executor's workers when the plan asked for
        # one; a no-op for serial engines.
        engine.close()

    return EngineTrafficSample(
        label=label,
        num_stages=topology.pp,
        data_parallel_degree=topology.dp,
        tensor_parallel_degree=topology.tp,
        iterations=iterations,
        axis_wire_bytes=axis_totals,
        axis_compressed_fraction=compressed,
        pipeline_boundary_wire_bytes=boundaries,
        dp_bytes_saved_fraction=engine.dp_reduce.bytes_saved_fraction(),
        dp_overlapped_wire_bytes=dp_overlapped,
        dp_exposed_wire_bytes=dp_exposed,
        residual_memory_bytes=engine.residual_memory_bytes(),
        final_loss=last_loss,
    )


def render_traffic_samples(samples: list[EngineTrafficSample], title: str) -> str:
    """Per-axis traffic table for a list of samples (KB, measured)."""
    table = Table(
        title=title,
        columns=[
            "Config",
            "PPxDPxTP",
            "PP fwd KB",
            "PP bwd KB",
            "DP KB",
            "EMB KB",
            "TP KB",
            "PP bwd compressed",
            "DP saved",
            "DP overlapped",
        ],
    )
    for sample in samples:
        table.add_row(
            [
                sample.label,
                f"{sample.num_stages}x{sample.data_parallel_degree}x{sample.tensor_parallel_degree}",
                format_float(sample.axis_wire_bytes.get("pipeline_forward", 0.0) / 1024, 1),
                format_float(sample.axis_wire_bytes.get("pipeline_backward", 0.0) / 1024, 1),
                format_float(sample.data_parallel_wire_bytes / 1024, 1),
                format_float(sample.axis_wire_bytes.get("embedding", 0.0) / 1024, 1),
                format_float(sample.axis_wire_bytes.get("tensor_parallel", 0.0) / 1024, 1),
                f"{sample.axis_compressed_fraction.get('pipeline_backward', 0.0):.0%}",
                f"{sample.dp_bytes_saved_fraction:.0%}",
                f"{sample.dp_overlapped_fraction:.0%}",
            ]
        )
    return table.render()

"""Per-axis traffic measurement through the unified 3D-parallel engine.

Several figures need the *measured* (not modelled) communication volume of a
training iteration split by parallelism axis — pipeline forward/backward,
data-parallel all-reduce, embedding synchronisation, tensor parallel — under a
given :class:`~repro.plan.ParallelPlan`.  :func:`probe_trainer` builds the one
tiny functional probe (a :class:`~repro.training.trainer.Pretrainer` over a
one-layer-per-stage model and its synthetic corpus); ``repro train``, the
schedule-parity probe and :func:`measure_engine_traffic` all train it through
``Pretrainer.train_iteration``, and :func:`traffic_sample` reports exactly what
its engine's :class:`~repro.parallel.collectives.CommunicationLog` recorded.

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
from repro.parallel.engine import axis_report
from repro.plan import ParallelPlan
from repro.training.trainer import Pretrainer
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
    #: Fraction of the DP payload bytes the codec saved (0.0 when uncompressed).
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


def probe_trainer(plan: ParallelPlan, seed: int = 0) -> Pretrainer:
    """The tiny functional probe: one transformer layer per pipeline stage.

    The topology, schedule, executor, resilience and every boundary's
    compression come from ``plan`` (``plan.with_topology(...)`` for another
    shape).  The caller closes it (``with probe_trainer(plan) as trainer``).
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
    return Pretrainer(model, loader, plan=plan, seed=seed)


def traffic_sample(label: str, trainer: Pretrainer, iterations: int) -> EngineTrafficSample:
    """What ``trainer``'s engine moved over the ``iterations`` it has run."""
    engine = trainer.engine
    topology = trainer.plan.topology
    wire, fractions, saved, boundaries, dp_overlapped = axis_report(engine.log.records)
    return EngineTrafficSample(
        label=label,
        num_stages=topology.pp,
        data_parallel_degree=topology.dp,
        tensor_parallel_degree=topology.tp,
        iterations=iterations,
        axis_wire_bytes=wire,
        axis_compressed_fraction=fractions,
        pipeline_boundary_wire_bytes=boundaries,
        dp_bytes_saved_fraction=saved["data_parallel"],
        dp_overlapped_wire_bytes=dp_overlapped,
        dp_exposed_wire_bytes=wire["data_parallel"] - dp_overlapped,
        residual_memory_bytes=engine.residual_memory_bytes(),
        final_loss=trainer.history.train_losses[-1],
    )


def measure_engine_traffic(
    label: str, plan: ParallelPlan, iterations: int = 2, seed: int = 0
) -> EngineTrafficSample:
    """Train :func:`probe_trainer` for ``iterations`` and report its traffic."""
    with probe_trainer(plan, seed) as trainer:
        for _ in range(iterations):
            trainer.train_iteration()
        return traffic_sample(label, trainer, iterations)


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

"""Compression-kernel and schedule throughput (paper Fig. 15 + schedule sweeps).

Three views are provided:

* an **analytic model** driven by :class:`repro.simulator.cost_model.CostModel`,
  which reproduces the paper's trends — throughput far above the 200 Gb/s
  interconnect, higher for larger models (fixed overheads amortise), and *lower*
  for higher ranks (the sequential orthogonalisation grows with the rank);
* a **measured path** that times the actual NumPy PowerSGD kernels in this library,
  so the benchmark reports a real measurement alongside the model;
* a **per-schedule-kind throughput report** (:func:`schedule_throughput`) that
  replays the same job under each pipeline schedule (1F1B vs zero-bubble ZB-H1)
  and reports iteration time, bubble fraction, and end-to-end tokens/s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.compression.powersgd import PowerSGDCompressor
from repro.plan import validate_schedule_kind
from repro.simulator.cost_model import CostModel, TrainingJob


@dataclass
class ThroughputPoint:
    """Throughput of compression and decompression at one rank."""

    rank: int
    compress_gbps: float
    decompress_gbps: float


class CompressionThroughputModel:
    """Analytic throughput of the PowerSGD kernels for inter-stage tensors."""

    def __init__(self, job: TrainingJob) -> None:
        self.job = job
        self.cost = CostModel(job)

    def _tensor_shape(self) -> tuple[int, int]:
        rows = self.job.micro_batch_size * self.job.seq_length
        cols = self.job.model.hidden_size
        return rows, cols

    def uncompressed_bits(self) -> float:
        """Size of the uncompressed tensor in bits (fp16 wire format)."""
        rows, cols = self._tensor_shape()
        return rows * cols * self.cost.constants.activation_wire_bytes * 8.0

    def compress_throughput_gbps(self, rank: int) -> float:
        """Compression throughput in Gbit/s of uncompressed data processed."""
        rows, cols = self._tensor_shape()
        seconds = self.cost.powersgd_compress_time(rows, cols, rank)
        return self.uncompressed_bits() / seconds / 1e9

    def decompress_throughput_gbps(self, rank: int) -> float:
        """Decompression throughput in Gbit/s of reconstructed data produced."""
        rows, cols = self._tensor_shape()
        seconds = self.cost.powersgd_decompress_time(rows, cols, rank)
        return self.uncompressed_bits() / seconds / 1e9

    def sweep(self, ranks: list[int]) -> list[ThroughputPoint]:
        """Throughput at each rank in ``ranks``."""
        return [
            ThroughputPoint(
                rank=rank,
                compress_gbps=self.compress_throughput_gbps(rank),
                decompress_gbps=self.decompress_throughput_gbps(rank),
            )
            for rank in ranks
        ]

    def interconnect_gbps(self) -> float:
        """The inter-node link bandwidth the paper plots as the reference line."""
        return self.job.cluster.topology.inter_node_bandwidth_gbps


@dataclass(frozen=True)
class SchedulePoint:
    """One schedule kind's simulated throughput on a fixed job."""

    kind: str
    iteration_time_s: float
    bubble_fraction: float
    tokens_per_second: float
    #: Activation-memory cap the point ran under (``"auto"`` only; the
    #: handcrafted schedules have no cap knob, so ``None`` there).
    memory_cap_factor: float | None = None

    def speedup_over(self, other: "SchedulePoint") -> float:
        """Relative speedup versus another schedule (old/new - 1)."""
        return other.iteration_time_s / self.iteration_time_s - 1.0


def schedule_throughput(
    job: TrainingJob,
    plan=None,
    kinds: tuple[str, ...] = ("1f1b", "zb1", "auto"),
) -> list[SchedulePoint]:
    """Simulate ``job`` under each pipeline schedule kind and report throughput.

    ``plan`` is an optional :class:`~repro.plan.ParallelPlan` whose compression
    specs apply to every point (compression is orthogonal to the schedule
    sweep; the plan's own schedule is not read).  The job's own
    ``schedule_kind`` is overridden per point.  ``job`` must be plain
    (``num_model_chunks == 1``): the split-backward schedule cannot interleave,
    and silently un-interleaving the 1f1b baseline would overstate zb1's win.
    """
    from repro.simulator.executor import PipelineTimingSimulator

    if job.num_model_chunks != 1:
        raise ValueError(
            "schedule_throughput compares plain schedules; pass a job with "
            f"num_model_chunks=1 (got {job.num_model_chunks})"
        )
    tokens = job.global_batch_size * job.seq_length
    points = []
    for kind in kinds:
        # Loud rejection of unknown kinds: an unrecognized string must never
        # fall through to 1f1b behavior and masquerade as a real sweep point.
        validate_schedule_kind(kind, context="schedule_throughput")
        swept = replace(job, schedule_kind=kind)
        timing = PipelineTimingSimulator(swept, plan).run()
        points.append(
            SchedulePoint(
                kind=kind,
                iteration_time_s=timing.iteration_time,
                bubble_fraction=timing.bubble_fraction,
                tokens_per_second=tokens / timing.iteration_time,
                memory_cap_factor=swept.memory_cap_factor if kind == "auto" else None,
            )
        )
    return points


def schedule_cap_sweep(
    job: TrainingJob,
    caps: tuple[float, ...] = (1.0, 1.5, 2.0),
    plan=None,
) -> list[SchedulePoint]:
    """Sweep the synthesizer's memory cap on one job (all points ``kind="auto"``).

    Each point re-synthesizes the schedule with ``memory_cap_factor`` set to the
    sweep value, so the list shows how the bubble fraction melts as the cap
    rises from 1× (ZB-H1-equivalent) toward 2× (near zero bubble).  The bubble
    fraction is monotone non-increasing in the cap by construction of the
    synthesizer's candidate ladder.
    """
    from repro.simulator.executor import PipelineTimingSimulator

    if job.num_model_chunks != 1:
        raise ValueError(
            "schedule_cap_sweep needs a plain job; pass num_model_chunks=1 "
            f"(got {job.num_model_chunks})"
        )
    tokens = job.global_batch_size * job.seq_length
    points = []
    for cap in caps:
        swept = replace(job, schedule_kind="auto", memory_cap_factor=cap)
        timing = PipelineTimingSimulator(swept, plan).run()
        points.append(
            SchedulePoint(
                kind="auto",
                iteration_time_s=timing.iteration_time,
                bubble_fraction=timing.bubble_fraction,
                tokens_per_second=tokens / timing.iteration_time,
                memory_cap_factor=cap,
            )
        )
    return points


def measured_numpy_throughput(
    rows: int = 512, cols: int = 256, rank: int = 16, repeats: int = 3, seed: int = 0
) -> ThroughputPoint:
    """Time the actual NumPy PowerSGD kernels on a random matrix.

    The absolute numbers reflect this machine's CPU (not an A100), but they give the
    benchmark a genuinely measured point to report next to the analytic model.
    """
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((rows, cols))
    compressor = PowerSGDCompressor(rank=rank, min_compression_elements=0)

    # Warm up both directions (initialises the Q factor, the per-key workspace,
    # and any lazily-allocated BLAS scratch) so the timed passes are steady-state.
    payload = compressor.compress(matrix, key="bench")
    compressor.decompress(payload)

    # Best-of-N: wall-clock minima reject scheduler noise that a 2-sample mean
    # lets straight through into the committed artifact.
    compress_seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        payload = compressor.compress(matrix, key="bench")
        compress_seconds = min(compress_seconds, time.perf_counter() - start)

    decompress_seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        compressor.decompress(payload)
        decompress_seconds = min(decompress_seconds, time.perf_counter() - start)

    bits = matrix.size * 2 * 8.0
    return ThroughputPoint(
        rank=rank,
        compress_gbps=bits / max(compress_seconds, 1e-9) / 1e9,
        decompress_gbps=bits / max(decompress_seconds, 1e-9) / 1e9,
    )

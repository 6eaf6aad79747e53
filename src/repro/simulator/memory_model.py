"""Per-GPU peak-memory model (paper Fig. 12).

Fig. 12 compares the peak memory of compressed backpropagation with and without lazy
error propagation: the PowerSGD low-rank buffers add 5–10 % over the baseline and the
lazy-error residuals add roughly one more percent.  The model here accounts for the
same components:

* parameter, gradient, and optimizer state (Megatron mixed-precision recipe);
* activations of the in-flight micro-batches — under 1F1B the analytic
  ``count_in_flight_micro_batches`` peak, under the split-backward schedules
  (zb1/auto) the peak read off the actual op lists;
* the split-backward **W stash**: between a micro-batch's B and W passes the
  Linear inputs and output gradients stay alive
  (:data:`~repro.simulator.cost_model.WEIGHT_STASH_BYTES_PER_TOKEN_HIDDEN`);
  1F1B's fused backward never stashes, so the term is zero there;
* PowerSGD ``P``/``Q`` work buffers when compression is enabled;
* one activation-gradient-sized residual per outgoing boundary when lazy error
  propagation is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel.pipeline_schedule import count_in_flight_micro_batches
from repro.parallel.scheduler import stage_memory_profile
from repro.plan import SPLIT_BACKWARD_KINDS, Boundary, ParallelPlan
from repro.simulator.cost_model import (
    ACTIVATION_BYTES_PER_TOKEN_HIDDEN,
    BYTES_PER_PARAMETER_WITH_OPTIMIZER,
    WEIGHT_STASH_BYTES_PER_TOKEN_HIDDEN,
    CostModel,
    TrainingJob,
)
from repro.simulator.executor import build_job_schedule

__all__ = [
    "ACTIVATION_BYTES_PER_TOKEN_HIDDEN",
    "BYTES_PER_PARAMETER_WITH_OPTIMIZER",
    "WEIGHT_STASH_BYTES_PER_TOKEN_HIDDEN",
    "MemoryModel",
    "MemoryReport",
]


@dataclass
class MemoryReport:
    """Peak-memory estimate of one pipeline stage (bytes)."""

    stage: int
    parameters_and_optimizer: float
    activations: float
    compression_buffers: float
    lazy_error_buffers: float
    #: Split-backward (zb1/auto) only: the peak of the per-micro-batch W
    #: stashes held between B and W passes.  Zero under 1F1B.
    weight_stash: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.parameters_and_optimizer
            + self.activations
            + self.weight_stash
            + self.compression_buffers
            + self.lazy_error_buffers
        )

    @property
    def total_gb(self) -> float:
        return self.total / 1e9

    def overhead_over(self, baseline: "MemoryReport") -> float:
        """Relative peak-memory increase versus a baseline report."""
        if baseline.total <= 0:
            return 0.0
        return self.total / baseline.total - 1.0


class MemoryModel:
    """Estimates the peak memory of each pipeline stage under a plan's compression."""

    def __init__(self, job: TrainingJob, plan: ParallelPlan | None = None) -> None:
        self.job = job
        self.plan = plan if plan is not None else ParallelPlan.baseline()
        self.cost = CostModel(job)
        #: Per-stage ``(peak in-flight activations, peak pending W stashes)``
        #: of the split-backward op lists; ``None`` until first needed (and
        #: never built for fused-backward schedules).
        self._split_profiles: list[tuple[int, int]] | None = None

    def _parameters_per_gpu(self, stage: int) -> float:
        total = self.job.model.parameters_per_stage(self.job.num_stages, stage)
        return total / self.job.layout.tensor_parallel

    def _activation_bytes_per_microbatch(self, stage: int) -> float:
        return self.cost.activation_bytes_per_microbatch(stage)

    def _stage_memory_profile(self, stage: int) -> tuple[int, int]:
        """``(peak in-flight activations, peak pending W stashes)`` of ``stage``.

        For the split-backward kinds both counts are read off the actual op
        lists (for ``"auto"`` that means synthesizing the schedule the
        simulator would replay, so the report and the replay agree); for the
        fused-backward schedules the in-flight peak is the analytic 1F1B count
        and the stash is zero.
        """
        if self.job.schedule_kind not in SPLIT_BACKWARD_KINDS:
            in_flight = count_in_flight_micro_batches(
                stage, self.job.num_stages, self.job.num_micro_batches
            )
            return in_flight, 0
        if self._split_profiles is None:
            schedule = build_job_schedule(self.job)
            self._split_profiles = [stage_memory_profile(ops) for ops in schedule]
        return self._split_profiles[stage]

    def _compression_buffer_bytes(self, stage: int) -> float:
        """Work buffers (fp32) of the compression paths active on this stage.

        Compressed backpropagation keeps, per in-flight micro-batch, a full-size
        fp32 staging buffer for the activation gradient being compressed (the
        PowerSGD implementation's send/workspace buffer) plus the low-rank ``P``/``Q``
        factors — the paper's "separate memory region ... for low-rank matrices"
        that accounts for its 5-10 % overhead (Fig. 12).  Selective stage compression
        adds per-weight-matrix ``P``/``Q`` factors on the compressed stages.
        """
        pp = self.plan.spec(Boundary.PP)
        dp = self.plan.spec(Boundary.DP)
        total = 0.0
        if pp.compresses and self.job.num_stages > 1:
            rows = self.job.micro_batch_size * self.job.seq_length
            cols = self.job.model.hidden_size
            rank = max(1, min(pp.rank, rows, cols))
            in_flight, _ = self._stage_memory_profile(stage)
            total += in_flight * rows * cols * 4  # fp32 staging buffers
            total += rank * (rows + cols) * 4 * 2  # P and Q, previous Q kept for reuse
        if stage in dp.compressed_stages(self.job.num_stages):
            for rows, cols in self.cost.stage_weight_matrices(stage):
                rank = max(1, min(dp.rank, rows, cols))
                total += rank * (rows + cols) * 4 * 2 / self.job.layout.tensor_parallel
        return total

    def _lazy_error_bytes(self, stage: int, lazy_error: bool) -> float:
        """Residual storage added by lazy error propagation (one buffer per boundary)."""
        if (
            not lazy_error
            or not self.plan.spec(Boundary.PP).compresses
            or self.job.num_stages <= 1
        ):
            return 0.0
        elements = self.job.micro_batch_size * self.job.seq_length * self.job.model.hidden_size
        return elements * 4.0  # fp32 residual of the previous micro-batch

    def stage_report(self, stage: int, lazy_error_propagation: bool = True) -> MemoryReport:
        """Peak-memory report of one stage."""
        in_flight, pending_w = self._stage_memory_profile(stage)
        return MemoryReport(
            stage=stage,
            parameters_and_optimizer=self._parameters_per_gpu(stage)
            * BYTES_PER_PARAMETER_WITH_OPTIMIZER,
            activations=self._activation_bytes_per_microbatch(stage) * in_flight,
            weight_stash=self.cost.weight_stash_bytes_per_microbatch(stage) * pending_w,
            compression_buffers=self._compression_buffer_bytes(stage),
            lazy_error_buffers=self._lazy_error_bytes(stage, lazy_error_propagation),
        )

    def peak_report(self, lazy_error_propagation: bool = True) -> MemoryReport:
        """Report of the stage with the largest peak memory."""
        reports = [
            self.stage_report(stage, lazy_error_propagation)
            for stage in range(self.job.num_stages)
        ]
        return max(reports, key=lambda report: report.total)

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

Of a plan the report reads four things only — whether the PP boundary
compresses and at which rank, the DP rank, and which stages the DP codec
touches — so the peak is memoised per ``(job, those four, lazy error)`` class
in one bounded table (:func:`_peak_report`): a plan sweep holds far fewer
classes than plans (600 of the flagship query's 2,800).  The per-stage
schedule profile is memoised per job (:func:`_stage_memory_profiles`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.parallel.pipeline_schedule import count_in_flight_micro_batches
from repro.parallel.scheduler import stage_memory_profile
from repro.plan import SPLIT_BACKWARD_KINDS, Boundary, ParallelPlan
from repro.simulator.cost_model import (
    ACTIVATION_BYTES_PER_TOKEN_HIDDEN,
    BYTES_PER_PARAMETER_WITH_OPTIMIZER,
    CLASS_MEMO_SIZE,
    WEIGHT_STASH_BYTES_PER_TOKEN_HIDDEN,
    TrainingJob,
    job_cost_model,
)
from repro.simulator.executor import build_job_schedule

__all__ = [
    "ACTIVATION_BYTES_PER_TOKEN_HIDDEN",
    "BYTES_PER_PARAMETER_WITH_OPTIMIZER",
    "WEIGHT_STASH_BYTES_PER_TOKEN_HIDDEN",
    "MemoryModel",
    "MemoryReport",
]


@dataclass(frozen=True)
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


@functools.lru_cache(maxsize=CLASS_MEMO_SIZE)
def _stage_memory_profiles(job: TrainingJob) -> tuple[tuple[int, int], ...]:
    """Per-stage ``(peak in-flight activations, peak pending W stashes)`` of ``job``.

    For the split-backward kinds both counts are read off the actual op lists
    (for ``"auto"`` that means synthesizing the schedule the simulator would
    replay, so the report and the replay agree); for the fused-backward
    schedules the in-flight peak is the analytic 1F1B count and the stash is
    zero.
    """
    if job.schedule_kind in SPLIT_BACKWARD_KINDS:
        return tuple(stage_memory_profile(ops) for ops in build_job_schedule(job))
    return tuple(
        (count_in_flight_micro_batches(stage, job.num_stages, job.num_micro_batches), 0)
        for stage in range(job.num_stages)
    )


def _compression_buffer_bytes(
    job: TrainingJob, stage: int, pp_rank: int | None, dp_rank: int | None
) -> float:
    """Work buffers (fp32) of the compression paths active on this stage.

    ``pp_rank`` is the PP boundary's rank where it compresses (``None`` where
    it does not), ``dp_rank`` the DP boundary's where its codec touches this
    stage.  Compressed backpropagation keeps, per in-flight micro-batch, a
    full-size fp32 staging buffer for the activation gradient being compressed
    (the PowerSGD implementation's send/workspace buffer) plus the low-rank
    ``P``/``Q`` factors — the paper's "separate memory region ... for low-rank
    matrices" that accounts for its 5-10 % overhead (Fig. 12).  Selective stage
    compression adds per-weight-matrix ``P``/``Q`` factors on the compressed
    stages.
    """
    total = 0.0
    if pp_rank is not None:
        rows = job.micro_batch_size * job.seq_length
        cols = job.model.hidden_size
        rank = max(1, min(pp_rank, rows, cols))
        in_flight, _ = _stage_memory_profiles(job)[stage]
        total += in_flight * rows * cols * 4  # fp32 staging buffers
        total += rank * (rows + cols) * 4 * 2  # P and Q, previous Q kept for reuse
    if dp_rank is not None:
        for rows, cols in job_cost_model(job).stage_weight_matrices(stage):
            rank = max(1, min(dp_rank, rows, cols))
            total += rank * (rows + cols) * 4 * 2 / job.layout.tensor_parallel
    return total


def _stage_report(
    job: TrainingJob, stage: int, pp_rank: int | None, dp_rank: int | None, lazy_error: bool
) -> MemoryReport:
    """Peak-memory report of one stage (arguments as :func:`_compression_buffer_bytes`)."""
    cost = job_cost_model(job)
    in_flight, pending_w = _stage_memory_profiles(job)[stage]
    parameters = job.model.parameters_per_stage(job.num_stages, stage) / job.layout.tensor_parallel
    lazy_error_bytes = 0.0
    if lazy_error and pp_rank is not None:
        # One fp32 residual of the previous micro-batch per outgoing boundary.
        lazy_error_bytes = job.micro_batch_size * job.seq_length * job.model.hidden_size * 4.0
    return MemoryReport(
        stage=stage,
        parameters_and_optimizer=parameters * BYTES_PER_PARAMETER_WITH_OPTIMIZER,
        activations=cost.activation_bytes_per_microbatch(stage) * in_flight,
        weight_stash=cost.weight_stash_bytes_per_microbatch(stage) * pending_w,
        compression_buffers=_compression_buffer_bytes(job, stage, pp_rank, dp_rank),
        lazy_error_buffers=lazy_error_bytes,
    )


@functools.lru_cache(maxsize=CLASS_MEMO_SIZE)
def _peak_report(
    job: TrainingJob,
    pp_rank: int | None,
    dp_rank: int,
    dp_stages: frozenset[int],
    lazy_error: bool,
) -> MemoryReport:
    """Report of the stage with the largest peak memory, once per class.

    The key is everything the stage reports read: the job, the PP rank where
    the PP boundary compresses, the DP rank and the stages the DP codec
    touches, and the lazy-error switch.
    """
    reports = [
        _stage_report(job, stage, pp_rank, dp_rank if stage in dp_stages else None, lazy_error)
        for stage in range(job.num_stages)
    ]
    return max(reports, key=lambda report: report.total)


class MemoryModel:
    """Estimates the peak memory of each pipeline stage under a plan's compression."""

    def __init__(self, job: TrainingJob, plan: ParallelPlan | None = None) -> None:
        self.job = job
        self.plan = plan if plan is not None else ParallelPlan.baseline()
        self.cost = job_cost_model(job)
        pp = self.plan.spec(Boundary.PP)
        dp = self.plan.spec(Boundary.DP)
        #: What the reports read of the plan (the memo class of :func:`_peak_report`).
        self._pp_rank = pp.rank if pp.compresses and job.num_stages > 1 else None
        self._dp_rank = dp.rank
        self._dp_stages = frozenset(dp.compressed_stages(job.num_stages))

    def stage_report(self, stage: int, lazy_error_propagation: bool = True) -> MemoryReport:
        """Peak-memory report of one stage."""
        dp_rank = self._dp_rank if stage in self._dp_stages else None
        return _stage_report(self.job, stage, self._pp_rank, dp_rank, lazy_error_propagation)

    def peak_report(self, lazy_error_propagation: bool = True) -> MemoryReport:
        """Report of the stage with the largest peak memory."""
        return _peak_report(
            self.job, self._pp_rank, self._dp_rank, self._dp_stages, lazy_error_propagation
        )

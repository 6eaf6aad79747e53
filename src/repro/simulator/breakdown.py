"""CPI-stack style execution-time breakdown.

The paper's Fig. 3 and Fig. 10 decompose iteration time into FWD, BWD, DP
communication, inter-stage communication, and embedding-synchronisation components
by selectively turning each component off and measuring the difference (the CPI
stack methodology of Emma 1997, as cited in Section 3).  This module applies exactly
that procedure to the timing simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plan import ParallelPlan
from repro.simulator.cost_model import TrainingJob
from repro.simulator.executor import PipelineTimingSimulator


@dataclass
class ExecutionBreakdown:
    """Iteration-time components (seconds).

    ``overlap_residual`` is the part of the iteration time not attributed to any
    single component by the turn-off methodology (pipeline bubbles and overlapped
    work); it can be negative in principle but is clamped at zero for reporting.
    """

    total: float
    forward: float
    backward: float
    interstage_comm: float
    data_parallel_comm: float
    embedding_comm: float
    compression_overhead: float
    overlap_residual: float

    def as_dict(self) -> dict[str, float]:
        """Component name → seconds (for table rendering)."""
        return {
            "FWD": self.forward,
            "BWD": self.backward,
            "Inter-stage Comm.": self.interstage_comm,
            "DP Comm.": self.data_parallel_comm,
            "EMB Comm.": self.embedding_comm,
            "Compression": self.compression_overhead,
            "Bubble/Overlap": self.overlap_residual,
        }

    def communication_fraction(self) -> float:
        """Share of the iteration spent on exposed inter-node communication."""
        if self.total <= 0:
            return 0.0
        return (self.interstage_comm + self.data_parallel_comm + self.embedding_comm) / self.total


def compute_breakdown(job: TrainingJob, plan: ParallelPlan | None = None) -> ExecutionBreakdown:
    """Decompose the iteration time of ``job`` under ``plan`` into components."""
    simulator = PipelineTimingSimulator(job, plan)
    full = simulator.run()

    def time_without(**kwargs: float) -> float:
        return simulator.with_toggles(**kwargs).run().iteration_time

    interstage = max(0.0, full.iteration_time - time_without(interstage=0.0))
    data_parallel = max(0.0, full.iteration_time - time_without(data_parallel=0.0))
    embedding = max(0.0, full.iteration_time - time_without(embedding=0.0))
    forward = max(0.0, full.iteration_time - time_without(forward=0.0))
    backward = max(0.0, full.iteration_time - time_without(backward=0.0))

    attributed = interstage + data_parallel + embedding + forward + backward
    residual = max(0.0, full.iteration_time - attributed)

    return ExecutionBreakdown(
        total=full.iteration_time,
        forward=forward,
        backward=backward,
        interstage_comm=interstage,
        data_parallel_comm=data_parallel,
        embedding_comm=embedding,
        compression_overhead=full.compression_overhead,
        overlap_residual=residual,
    )

"""Event-driven performance simulator for 3D-parallel training.

The simulator reproduces the *speed* side of the paper: given a paper-scale model
specification, a parallel layout, and a cluster topology it computes per-iteration
execution time and its breakdown (forward/backward compute, exposed inter-stage
communication, exposed data-parallel communication, embedding synchronisation,
compression overhead), with or without the Optimus-CC techniques enabled.

The methodology mirrors the paper's: iteration time comes from replaying the 1F1B
schedule with an α–β communication cost model, and the component breakdown is
obtained CPI-stack style by selectively disabling cost components and measuring the
difference (Section 3 of the paper).
"""

from repro.simulator.hardware import (
    A100,
    GPUSpec,
    SimulationConstants,
)
from repro.simulator.cost_model import COST_MODEL_VERSION, CostModel, TrainingJob
from repro.simulator.executor import IterationTiming, PipelineTimingSimulator
from repro.simulator.breakdown import ExecutionBreakdown, compute_breakdown
from repro.simulator.evaluate import PlanEvaluation, evaluate_plan
from repro.simulator.memory_model import MemoryModel, MemoryReport
from repro.simulator.throughput import (
    CompressionThroughputModel,
    SchedulePoint,
    measured_numpy_throughput,
    schedule_throughput,
)

__all__ = [
    "GPUSpec",
    "A100",
    "SimulationConstants",
    "COST_MODEL_VERSION",
    "CostModel",
    "TrainingJob",
    "PlanEvaluation",
    "evaluate_plan",
    "IterationTiming",
    "PipelineTimingSimulator",
    "ExecutionBreakdown",
    "compute_breakdown",
    "MemoryModel",
    "MemoryReport",
    "CompressionThroughputModel",
    "SchedulePoint",
    "measured_numpy_throughput",
    "schedule_throughput",
]

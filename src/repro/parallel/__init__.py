"""3D-parallelism substrate: topology, process groups, collectives, and engines.

The package provides two kinds of building blocks:

* *mechanism* — cluster topology, Megatron-style rank grids, simulated (numerically
  exact, traffic-logged) collectives, pipeline schedules, and functional engines for
  pipeline / data / tensor parallelism;
* *hook points* — the engines accept compression hooks so that the paper's
  techniques (in :mod:`repro.core`) can plug in without the engines knowing about
  any specific compressor.

The unified :class:`repro.parallel.engine.ThreeDParallelEngine` composes these
building blocks *with* the :mod:`repro.core` techniques, which are themselves
built on the primitives here — so it is imported from its own module, not
re-exported from this package: ``repro.parallel`` stays below ``repro.core``
in the import graph and ``repro.parallel.engine`` above it.
"""

from repro.parallel.topology import ClusterTopology, DeviceId
from repro.parallel.process_groups import ParallelLayout, ProcessGrid
from repro.parallel.collectives import CommunicationLog, SimulatedProcessGroup, TrafficRecord
from repro.parallel.pipeline_schedule import (
    PipelineOp,
    build_1f1b_schedule,
    build_gpipe_schedule,
    build_interleaved_1f1b_schedule,
    build_zb1_schedule,
    epilogue_micro_batches,
)
from repro.parallel.pipeline_engine import InterStageChannel, PipelineParallelEngine
from repro.parallel.tensor_parallel import ColumnParallelLinear, RowParallelLinear

__all__ = [
    "ClusterTopology",
    "DeviceId",
    "ParallelLayout",
    "ProcessGrid",
    "CommunicationLog",
    "SimulatedProcessGroup",
    "TrafficRecord",
    "PipelineOp",
    "build_gpipe_schedule",
    "build_1f1b_schedule",
    "build_interleaved_1f1b_schedule",
    "build_zb1_schedule",
    "epilogue_micro_batches",
    "PipelineParallelEngine",
    "InterStageChannel",
    "ColumnParallelLinear",
    "RowParallelLinear",
]

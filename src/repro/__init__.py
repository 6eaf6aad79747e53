"""Optimus-CC reproduction library.

A from-scratch Python implementation of *Optimus-CC: Efficient Large NLP Model
Training with 3D Parallelism Aware Communication Compression* (ASPLOS 2023),
including every substrate the paper depends on: a NumPy GPT with manual
backpropagation, 3D-parallel training engines (data / tensor / pipeline), gradient
and activation-gradient compressors (PowerSGD, top-k, quantisation), a cluster
performance simulator, and the paper's three techniques — compressed
backpropagation with lazy error propagation and epilogue-only compression, fused
embedding synchronisation, and selective stage compression.

Quick start
-----------
>>> from repro import ParallelPlan
>>> from repro.models import GPT_8_3B
>>> from repro.simulator import PipelineTimingSimulator, TrainingJob
>>> job = TrainingJob(model=GPT_8_3B)
>>> timing = PipelineTimingSimulator(job, ParallelPlan.preset("cb_fe_sc")).run()
>>> speedup = timing.speedup_over(PipelineTimingSimulator(job).run())

See ``examples/`` for functional-training quick starts and the ``benchmarks/``
directory for the scripts that regenerate every table and figure of the paper.
"""

from repro.plan import Boundary, CompressionSpec, ParallelPlan, Schedule, Topology

__version__ = "1.1.0"

__all__ = [
    "ParallelPlan",
    "Boundary",
    "CompressionSpec",
    "Schedule",
    "Topology",
    "__version__",
]

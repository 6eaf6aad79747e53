"""Optimus-CC core: the paper's three techniques.

* :mod:`repro.core.compressed_backprop` — compressed backpropagation (CB) with lazy
  error propagation (LEP) and epilogue-only compression (Section 5).
* :mod:`repro.core.fused_embedding` — fused embedding synchronisation (FE) and its
  analytic cost model (Section 6).
* :mod:`repro.core.selective_stage` — selective stage compression (SC) of the
  data-parallel traffic (Section 7).

Which technique runs on which boundary is declared by a
:class:`repro.plan.ParallelPlan`; :class:`repro.parallel.engine.ThreeDParallelEngine`
builds these hooks from the plan's boundary specs.
"""

from repro.core.compressed_backprop import CompressedBackpropagation, ErrorIndependenceRecord
from repro.core.fused_embedding import (
    EmbeddingSynchronizer,
    baseline_embedding_cost,
    embedding_sync_improvement,
    fused_embedding_cost,
)
from repro.core.selective_stage import SelectiveStageCompression

__all__ = [
    "CompressedBackpropagation",
    "ErrorIndependenceRecord",
    "EmbeddingSynchronizer",
    "baseline_embedding_cost",
    "fused_embedding_cost",
    "embedding_sync_improvement",
    "SelectiveStageCompression",
]

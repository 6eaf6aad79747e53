"""Gradient / activation-gradient compressors.

This subpackage implements the codecs a :class:`~repro.plan.ParallelPlan` can
name (``plan.DP_CODECS`` and ``plan.PP_CODECS``; codec ``"none"`` is no
compressor at all):

* :class:`~repro.compression.powersgd.PowerSGDCompressor` — rank-r low-rank
  approximation with a single power-iteration step and Q-matrix reuse
  (Vogels et al., 2019), the compressor Optimus-CC adopts for both data-parallel
  gradients and inter-stage activation gradients.
* :class:`~repro.compression.topk.TopKCompressor` — the sparsification baseline
  of the paper's Fig. 3, on either boundary.
* :class:`~repro.compression.qsgd.QSGDCompressor` — stochastic quantisation of
  data-parallel gradients.
* :class:`~repro.compression.error_feedback.ErrorFeedback` — the residual-carrying
  wrapper used for classic error feedback (data parallel) and re-used by the paper's
  lazy error propagation (pipeline parallel).

All compressors share the :class:`~repro.compression.base.Compressor` interface and
report the exact number of *bytes on the wire* for their payload, which is what the
performance simulator charges to the interconnect.
"""

from repro.compression.base import CompressedPayload, Compressor
from repro.compression.powersgd import PowerSGDCompressor
from repro.compression.topk import TopKCompressor
from repro.compression.qsgd import QSGDCompressor
from repro.compression.error_feedback import ErrorFeedback

__all__ = [
    "Compressor",
    "CompressedPayload",
    "PowerSGDCompressor",
    "TopKCompressor",
    "QSGDCompressor",
    "ErrorFeedback",
]

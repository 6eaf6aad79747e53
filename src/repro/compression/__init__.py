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

All compressors share the :class:`~repro.compression.base.Compressor` interface.
Each owns its wire format: :meth:`~repro.compression.base.Compressor.wire_bytes`
and ``collective`` say what one rank sends for a tensor and how it travels, and
both the engine's payloads and the performance simulator's charges come from
them (:func:`codec_for` builds the codec a plan's spec names).
"""

from repro.compression.base import CompressedPayload, Compressor
from repro.compression.powersgd import PowerSGDCompressor
from repro.compression.topk import TopKCompressor
from repro.compression.qsgd import QSGDCompressor
from repro.compression.error_feedback import ErrorFeedback


def codec_for(spec, seed: int = 0) -> Compressor:
    """The codec a :class:`~repro.plan.CompressionSpec` names, with its knobs."""
    if spec.codec == "powersgd":
        return PowerSGDCompressor(
            rank=spec.rank, min_compression_elements=spec.min_elements, seed=seed
        )
    if spec.codec == "qsgd":
        return QSGDCompressor(bits=spec.bits, seed=seed)
    if spec.codec == "topk":
        return TopKCompressor(fraction=spec.fraction, min_elements=spec.min_elements)
    raise ValueError(f"codec {spec.codec!r} names no compressor")

__all__ = [
    "Compressor",
    "CompressedPayload",
    "PowerSGDCompressor",
    "TopKCompressor",
    "QSGDCompressor",
    "ErrorFeedback",
]

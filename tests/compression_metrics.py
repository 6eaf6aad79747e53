"""Approximation-error measures the compression tests read.

Frozen here from the retired ``repro.compression.metrics``: the program itself
reads a payload's ratio from ``CompressedPayload.compression_ratio`` and
measures no approximation error.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedPayload


def compression_ratio(payload: CompressedPayload) -> float:
    """Uncompressed-to-compressed byte ratio of a payload."""
    return payload.compression_ratio


def compression_error(original: np.ndarray, approximation: np.ndarray) -> float:
    """Frobenius norm of the approximation error."""
    return float(np.linalg.norm(np.asarray(original) - np.asarray(approximation)))


def relative_error(original: np.ndarray, approximation: np.ndarray, eps: float = 1e-12) -> float:
    """Approximation error normalised by the norm of the original tensor."""
    original = np.asarray(original, dtype=np.float64)
    denominator = float(np.linalg.norm(original))
    return compression_error(original, approximation) / max(denominator, eps)

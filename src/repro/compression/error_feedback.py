"""Error feedback (residual accumulation) around any compressor.

Classic error feedback keeps the difference between the original tensor and its
compressed approximation and adds it to the *next* tensor sent under the same key.
For data-parallel gradients the "next tensor" belongs to the next iteration, which
the paper points out introduces weight staleness (Section 7).  The paper's lazy
error propagation (Section 5.1) reuses the same mechanism but within a single
iteration: the residual of one micro-batch's activation gradient is added to the
next micro-batch's, before the weight update happens.  Both usages are served by
this class; only the keying discipline differs.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedPayload, Compressor


class ErrorFeedback:
    """Residual-carrying wrapper around a :class:`Compressor`.

    Parameters
    ----------
    compressor:
        The lossy compressor to wrap.
    enabled:
        When ``False`` the wrapper is transparent (no residual is added or stored),
        which is how the "Non-LEP" ablation of Table 4 is expressed.
    """

    def __init__(self, compressor: Compressor, enabled: bool = True) -> None:
        self.compressor = compressor
        self.enabled = bool(enabled)
        self._residuals: dict[str, np.ndarray] = {}

    # -- residual bookkeeping --------------------------------------------------

    def residual(self, key: str) -> np.ndarray | None:
        """Return the stored residual for ``key`` (or ``None``)."""
        return self._residuals.get(key)

    def residual_bytes(self) -> int:
        """Total memory footprint of stored residuals (fp32 accounting).

        Used by the memory model for Fig. 12: lazy error propagation adds one
        residual buffer per in-flight micro-batch per stage boundary.
        """
        return sum(residual.size * 4 for residual in self._residuals.values())

    def clear(self, key: str | None = None) -> None:
        """Drop one residual (or all of them when ``key`` is ``None``)."""
        if key is None:
            self._residuals.clear()
        else:
            self._residuals.pop(key, None)

    # -- main entry point --------------------------------------------------------

    def compress_with_feedback(
        self, tensor: np.ndarray, key: str
    ) -> tuple[np.ndarray, CompressedPayload, np.ndarray]:
        """Compress ``tensor`` with the stored residual added first.

        Returns ``(approximation, payload, new_residual)``.  The approximation is
        what the receiver reconstructs; the new residual (original + old residual −
        approximation) is stored under ``key`` for the next call.
        """
        tensor = np.asarray(tensor, dtype=np.float64)
        if self.enabled:
            residual = self._residuals.get(key)
            corrected = tensor if residual is None else tensor + residual
        else:
            corrected = tensor
        approximation, payload = self.compressor.roundtrip(corrected, key=key)
        new_residual = corrected - approximation
        if self.enabled:
            self._residuals[key] = new_residual
        return approximation, payload, new_residual

    def reset(self) -> None:
        """Drop residuals and the wrapped compressor's internal state."""
        self._residuals.clear()
        self.compressor.reset()

    def state_dict(self) -> dict:
        """The live residuals plus the wrapped compressor's state.

        References, not copies — one seam for the checkpoint writer (which
        streams them to disk) and the recovery point (which detaches them
        through ``capture_tree``).
        """
        return {
            "residuals": dict(self._residuals),
            "compressor": self.compressor.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self._residuals = {
            str(key): np.array(value, dtype=np.float64)
            for key, value in state["residuals"].items()
        }
        self.compressor.load_state_dict(state["compressor"])

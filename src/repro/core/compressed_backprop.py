"""Compressed backpropagation (paper Section 5).

Compressed backpropagation (CB) targets the pipeline-parallel *backward* traffic:
the activation gradients sent from stage ``s+1`` to stage ``s`` after each
micro-batch's backward pass.  Two enabler techniques keep the model quality intact:

* **Lazy error propagation (LEP, Section 5.1)** — the compression residual of
  micro-batch ``i`` is stored at the sender and added to micro-batch ``i+1``'s
  activation gradient *before* it is compressed.  Because the weight update only
  happens after all micro-batches, the deferred error does not introduce weight
  staleness; the paper's Eq. (14) shows the approximation is unbiased when the
  errors are independent of the activation differences, a condition this module can
  record empirically (Fig. 11).
* **Epilogue-only compression (Section 5.2)** — only the transfers whose receiver is
  in its pipeline cool-down (the epilogue) are compressed; the rest are hidden by
  computation anyway, so compressing them would only add error.

The class implements the :data:`repro.parallel.pipeline_engine.BackwardCommHook`
protocol, so it plugs directly into :class:`~repro.parallel.pipeline_engine.InterStageChannel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.base import Compressor
from repro.compression.error_feedback import ErrorFeedback
from repro.compression.metrics import cosine_similarity
from repro.compression.powersgd import PowerSGDCompressor
from repro.compression.topk import TopKCompressor
from repro.parallel.pipeline_schedule import epilogue_micro_batches


@dataclass
class ErrorIndependenceRecord:
    """One observation of the Eq. (14) independence condition (paper Fig. 11).

    The paper plots, over training, the mean of the compression error, the mean of
    the difference between the tensors of consecutive micro-batches, and the cosine
    similarity between the two — all of which stay near zero.  We record the same
    statistics on the activation *gradients* (the tensors CB actually compresses).
    """

    boundary: int
    micro_batch: int
    error_mean: float
    activation_diff_mean: float
    cosine: float


@dataclass
class CompressionEvent:
    """Bookkeeping for one backward transfer (compressed or not)."""

    boundary: int
    micro_batch: int
    compressed: bool
    payload_bytes: int
    original_bytes: int


class CompressedBackpropagation:
    """Backward inter-stage communication hook implementing CB + LEP + epilogue-only.

    Parameters
    ----------
    num_stages:
        Pipeline depth (needed for the epilogue analysis).
    rank:
        PowerSGD rank (paper default 16); ignored for the top-k variant.
    lazy_error_propagation:
        Enable LEP (Table 4 ablates this).
    epilogue_only:
        Compress only epilogue transfers; ``False`` reproduces "naive CB".
    compressor:
        ``"powersgd"`` or ``"topk"``; an already-constructed
        :class:`~repro.compression.base.Compressor` may also be passed.
    topk_fraction:
        Kept fraction for the top-k variant.
    collect_diagnostics:
        Record :class:`ErrorIndependenceRecord` entries for Fig. 11.  Each
        record compares a boundary's tensor with the previous one this hook
        object saw (``_previous_tensor``), which stays out of
        :meth:`state_dict`.  Under the process executor that baseline lives
        in the worker, so a respawned worker starts without it and its first
        records after the respawn may differ from a serial run's; fault-free
        runs match.
    """

    def __init__(
        self,
        num_stages: int,
        rank: int = 16,
        lazy_error_propagation: bool = True,
        epilogue_only: bool = True,
        compressor: str | Compressor = "powersgd",
        topk_fraction: float = 0.01,
        collect_diagnostics: bool = False,
        seed: int = 0,
    ) -> None:
        if num_stages <= 0:
            raise ValueError(f"num_stages must be positive, got {num_stages}")
        self.num_stages = int(num_stages)
        self.rank = int(rank)
        self.lazy_error_propagation = bool(lazy_error_propagation)
        self.epilogue_only = bool(epilogue_only)
        self.collect_diagnostics = bool(collect_diagnostics)

        if isinstance(compressor, Compressor):
            base_compressor = compressor
        elif compressor == "powersgd":
            base_compressor = PowerSGDCompressor(
                rank=rank, min_compression_elements=256, seed=seed
            )
        elif compressor == "topk":
            base_compressor = TopKCompressor(fraction=topk_fraction)
        else:
            raise ValueError(f"unknown compressor {compressor!r}")
        self.feedback = ErrorFeedback(base_compressor, enabled=self.lazy_error_propagation)

        self.events: list[CompressionEvent] = []
        self.diagnostics: list[ErrorIndependenceRecord] = []
        self._previous_tensor: dict[str, np.ndarray] = {}

    # -- policy -------------------------------------------------------------------

    def should_compress(self, boundary: int, micro_batch: int, num_micro_batches: int) -> bool:
        """Whether the transfer into stage ``boundary`` for ``micro_batch`` is compressed."""
        if not self.epilogue_only:
            return True
        return micro_batch in epilogue_micro_batches(
            boundary, self.num_stages, num_micro_batches
        )

    # -- hook (BackwardCommHook protocol) -------------------------------------------

    def __call__(
        self,
        gradient: np.ndarray,
        boundary: int,
        micro_batch: int,
        num_micro_batches: int,
    ) -> tuple[np.ndarray, int, bool]:
        """Compress (or pass through) one backward transfer.

        Returns ``(delivered_tensor, payload_bytes, compressed)`` as required by the
        pipeline engine's hook protocol.
        """
        gradient = np.asarray(gradient, dtype=np.float64)
        original_bytes = int(gradient.size * 2)
        key = f"boundary{boundary}"

        if not self.should_compress(boundary, micro_batch, num_micro_batches):
            self.events.append(
                CompressionEvent(
                    boundary=boundary,
                    micro_batch=micro_batch,
                    compressed=False,
                    payload_bytes=original_bytes,
                    original_bytes=original_bytes,
                )
            )
            return gradient, original_bytes, False

        approximation, payload, residual = self.feedback.compress_with_feedback(gradient, key)
        self.events.append(
            CompressionEvent(
                boundary=boundary,
                micro_batch=micro_batch,
                compressed=True,
                payload_bytes=payload.payload_bytes,
                original_bytes=original_bytes,
            )
        )

        if self.collect_diagnostics:
            self._record_diagnostics(key, boundary, micro_batch, gradient, residual)

        return approximation, payload.payload_bytes, True

    # -- diagnostics (Fig. 11) -----------------------------------------------------

    def _record_diagnostics(
        self,
        key: str,
        boundary: int,
        micro_batch: int,
        tensor: np.ndarray,
        residual: np.ndarray,
    ) -> None:
        previous = self._previous_tensor.get(key)
        if previous is not None and previous.shape == tensor.shape:
            difference = previous - tensor
            self.diagnostics.append(
                ErrorIndependenceRecord(
                    boundary=boundary,
                    micro_batch=micro_batch,
                    error_mean=float(np.mean(residual)),
                    activation_diff_mean=float(np.mean(difference)),
                    cosine=cosine_similarity(residual, difference),
                )
            )
        self._previous_tensor[key] = tensor.copy()

    # -- reporting -------------------------------------------------------------------

    def compression_summary(self) -> dict[str, float]:
        """Aggregate statistics over all recorded transfers."""
        if not self.events:
            return {
                "transfers": 0,
                "compressed_transfers": 0,
                "compressed_fraction": 0.0,
                "bytes_saved_fraction": 0.0,
            }
        total = len(self.events)
        compressed = sum(1 for event in self.events if event.compressed)
        original = sum(event.original_bytes for event in self.events)
        actual = sum(event.payload_bytes for event in self.events)
        return {
            "transfers": total,
            "compressed_transfers": compressed,
            "compressed_fraction": compressed / total,
            "bytes_saved_fraction": 1.0 - actual / original if original else 0.0,
        }

    def summary_by_boundary(self) -> dict[int, dict[str, float]]:
        """Per-pipeline-boundary compression statistics.

        The unified 3D-parallel engine uses this to report which inter-stage
        boundaries actually carried compressed traffic (epilogue-only compression
        makes the split non-uniform across boundaries).
        """
        summaries: dict[int, dict[str, float]] = {}
        for event in self.events:
            entry = summaries.setdefault(
                event.boundary,
                {
                    "transfers": 0,
                    "compressed_transfers": 0,
                    "original_bytes": 0,
                    "payload_bytes": 0,
                },
            )
            entry["transfers"] += 1
            entry["compressed_transfers"] += 1 if event.compressed else 0
            entry["original_bytes"] += event.original_bytes
            entry["payload_bytes"] += event.payload_bytes
        for entry in summaries.values():
            entry["bytes_saved_fraction"] = (
                1.0 - entry["payload_bytes"] / entry["original_bytes"]
                if entry["original_bytes"]
                else 0.0
            )
        return summaries

    def reset(self) -> None:
        """Clear residuals, warm-started factors, and recorded events."""
        self.feedback.reset()
        self.events.clear()
        self.diagnostics.clear()
        self._previous_tensor.clear()

    def state_dict(self) -> dict:
        """The per-boundary residuals + compressor warm starts.

        These persist across iterations (``boundary{b}`` keys), so they belong
        in checkpoints and rollback snapshots.  ``events``/``diagnostics``/
        ``_previous_tensor`` are diagnostics-only and excluded.
        """
        return {"feedback": self.feedback.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        self.feedback.load_state_dict(state["feedback"])

    def residual_memory_bytes(self) -> int:
        """Memory held by the lazy-error residuals (for the memory experiments)."""
        return self.feedback.residual_bytes()

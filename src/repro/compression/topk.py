"""Top-k sparsification compressor (the Fig. 3 baseline).

The paper's motivational study (Fig. 3, 'Opt-CC (TopK)') shows that top-k
sparsification is a poor fit for point-to-point inter-stage traffic: every rank
selects its own indices, so an extra index payload has to be shipped and the
reconstruction error is larger than low-rank approximation at the same budget.
This compressor exists to reproduce that comparison.

Selection is *deterministic*: elements are ranked by the lexicographic key
``(|value| descending, index ascending)``.  A plain ``np.argpartition`` leaves the
order of equal magnitudes unspecified (and it differs across numpy versions), so
the kernel instead finds the k-th magnitude with one ``partition`` pass and then
takes every element strictly above it plus the lowest-indexed ties — same O(n)
cost, reproducible everywhere, and independent of the order tensors are visited
(which the bucketed/per-parameter DP parity relies on).
"""

from __future__ import annotations

import copy
import math
from typing import Iterable

import numpy as np

from repro.compression.base import (
    CompressedPayload,
    Compressor,
    Workspace,
    writable_flat_view,
)
from repro.parallel.collectives import WIRE_BYTES_PER_ELEMENT

#: Bytes used to encode one index on the wire (int32, as in common implementations).
INDEX_BYTES = 4


def num_kept(fraction: float, size: int) -> int:
    """Elements top-k keeps of ``size``: ``round(fraction * size)``, at least one, at most all.

    :meth:`TopKCompressor.wire_bytes` counts with it, in the engine and the
    simulator alike.
    """
    return max(1, min(size, int(round(fraction * size))))


def stable_topk_indices(
    magnitudes: np.ndarray, kept: int, partition: np.ndarray | None = None
) -> np.ndarray:
    """Indices of the ``kept`` largest magnitudes, ties broken by lowest index.

    Equivalent to sorting by ``(-magnitude, index)`` and taking the first ``kept``
    entries, but in O(n): one ``partition`` to find the k-th order statistic, then
    a strict-greater mask plus the first ties at the threshold.  The result is
    sorted ascending (a deterministic payload layout).  ``partition`` is
    scratch of ``magnitudes``' size that the partition pass reorders a copy
    in; a fresh array when omitted.
    """
    size = magnitudes.size
    if kept >= size:
        return np.arange(size, dtype=np.int64)
    if partition is None:
        partition = np.empty(size)
    np.copyto(partition, magnitudes)
    cut = size - kept
    partition.partition(cut)
    threshold = partition[cut]
    above = np.nonzero(magnitudes > threshold)[0]
    need = kept - above.size
    if need > 0:
        ties = np.nonzero(magnitudes == threshold)[0]
        if ties.size < need:
            # Only NaN does this: it compares false with everything.  Rank it
            # as the largest magnitude (where ``partition`` put it), so a
            # poisoned tensor still yields ``kept`` indices and the poison
            # travels on to the guard instead of crashing the kernel.
            return stable_topk_indices(
                np.where(np.isnan(magnitudes), np.inf, magnitudes), kept, partition
            )
        above = np.concatenate([above, ties[:need]])
        above.sort()
    return above.astype(np.int64, copy=False)


class TopKCompressor(Compressor):
    """Keep the ``fraction`` largest-magnitude elements of the tensor."""

    name = "topk"
    #: Every rank keeps its own indices, so the pairs cannot be summed in flight.
    collective = "all_gather"

    def __init__(self, fraction: float = 0.01, min_elements: int = 16) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = float(fraction)
        self.min_elements = int(min_elements)
        self._workspace = Workspace()

    def with_own_scratch(self) -> "TopKCompressor":
        """The same codec with a workspace of its own, for a second thread.

        Top-k keeps no state between calls: :meth:`compress` uses no scratch,
        so any thread may call it, and two threads may :meth:`compress_into`
        at once as long as their workspaces differ.
        """
        twin = copy.copy(self)
        twin._workspace = Workspace()
        return twin

    def wire_bytes(self, shape: tuple[int, ...], element_bytes: int) -> int:
        """The kept (value, int32 index) pairs, values at ``element_bytes``."""
        return num_kept(self.fraction, math.prod(shape)) * (element_bytes + INDEX_BYTES)

    def _select(self, tensor: np.ndarray, scratch) -> CompressedPayload:
        """The kernel: the kept (index, value) pairs, through ``scratch(name, size)`` arrays."""
        tensor = np.asarray(tensor, dtype=np.float64)
        flat = tensor.reshape(-1)
        if flat.size <= self.min_elements:
            return CompressedPayload(
                kind="topk-passthrough",
                data={"tensor": tensor},
                original_shape=tuple(tensor.shape),
                payload_bytes=tensor.size * WIRE_BYTES_PER_ELEMENT,
                metadata={"kept": flat.size, "compressed": False},
            )
        kept = num_kept(self.fraction, flat.size)
        magnitudes = scratch("magnitudes", flat.size)
        np.abs(flat, out=magnitudes)
        indices = stable_topk_indices(magnitudes, kept, scratch("partition", flat.size))
        values = scratch("values", kept)
        np.take(flat, indices, out=values)
        return CompressedPayload(
            kind=self.name,
            data={"indices": indices, "values": values},
            original_shape=tuple(tensor.shape),
            payload_bytes=self.wire_bytes(tensor.shape, WIRE_BYTES_PER_ELEMENT),
            metadata={"kept": kept, "compressed": True},
        )

    def reserve(self, size: int, keys: Iterable[str] = ()) -> None:
        """Grow the workspace to a ``size``-element tensor's (top-k keeps no per-key state)."""
        if size > self.min_elements:
            for name, elements in (
                ("magnitudes", size), ("partition", size), ("values", num_kept(self.fraction, size))
            ):
                self._workspace.flat("*", name, elements)

    def compress_into(self, tensor: np.ndarray, key: str | None = None) -> CompressedPayload:
        """Select into the codec's one magnitudes/partition/values scratch, grown to the widest tensor.

        The payload's values alias that scratch, whatever the key: it is valid
        until this codec's next ``compress_into``, so decompress it before
        compressing anything else, and on one thread at a time.
        """
        return self._select(tensor, lambda name, size: self._workspace.flat("*", name, size))

    def compress(self, tensor: np.ndarray, key: str | None = None) -> CompressedPayload:
        """A payload of arrays of its own, so concurrent calls (a walk's boundaries) are safe."""
        payload = self._select(tensor, lambda name, size: np.empty(size))
        if payload.kind == "topk-passthrough":
            payload.data = {"tensor": payload.data["tensor"].copy()}
        return payload

    def decompress_into(self, payload: CompressedPayload, out: np.ndarray) -> np.ndarray:
        if payload.kind == "topk-passthrough":
            out[...] = payload.data["tensor"]
            return out
        if payload.kind != self.name:
            raise ValueError(f"cannot decompress payload of kind {payload.kind!r}")
        flat = writable_flat_view(out)
        flat[...] = 0.0
        flat[payload.data["indices"]] = payload.data["values"]
        return out

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        out = np.empty(payload.original_shape, dtype=np.float64)
        return self.decompress_into(payload, out)

    def reset(self) -> None:
        self._workspace.clear()


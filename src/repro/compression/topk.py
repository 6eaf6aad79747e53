"""Top-k and random-k sparsification compressors (baselines).

The paper's motivational study (Fig. 3, 'Opt-CC (TopK)') shows that top-k
sparsification is a poor fit for point-to-point inter-stage traffic: every rank
selects its own indices, so an extra index payload has to be shipped and the
reconstruction error is larger than low-rank approximation at the same budget.
These compressors exist to reproduce that comparison.

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

import numpy as np

from repro.compression.base import (
    UNCOMPRESSED_BYTES_PER_ELEMENT,
    CompressedPayload,
    Compressor,
    Workspace,
    writable_flat_view,
)
from repro.compression.powersgd import stable_key_hash
from repro.utils.random import CounterRNG

#: Bytes used to encode one index on the wire (int32, as in common implementations).
INDEX_BYTES = 4


def stable_topk_indices(magnitudes: np.ndarray, kept: int) -> np.ndarray:
    """Indices of the ``kept`` largest magnitudes, ties broken by lowest index.

    Equivalent to sorting by ``(-magnitude, index)`` and taking the first ``kept``
    entries, but in O(n): one ``partition`` to find the k-th order statistic, then
    a strict-greater mask plus the first ties at the threshold.  The result is
    sorted ascending (a deterministic payload layout).
    """
    size = magnitudes.size
    if kept >= size:
        return np.arange(size, dtype=np.int64)
    scratch = magnitudes.copy()
    cut = size - kept
    scratch.partition(cut)
    threshold = scratch[cut]
    above = np.nonzero(magnitudes > threshold)[0]
    need = kept - above.size
    if need > 0:
        ties = np.nonzero(magnitudes == threshold)[0]
        if ties.size < need:
            # Only NaN does this: it compares false with everything.  Rank it
            # as the largest magnitude (where ``partition`` put it), so a
            # poisoned tensor still yields ``kept`` indices and the poison
            # travels on to the guard instead of crashing the kernel.
            return stable_topk_indices(np.where(np.isnan(magnitudes), np.inf, magnitudes), kept)
        above = np.concatenate([above, ties[:need]])
        above.sort()
    return above.astype(np.int64, copy=False)


class TopKCompressor(Compressor):
    """Keep the ``fraction`` largest-magnitude elements of the tensor."""

    name = "topk"

    def __init__(self, fraction: float = 0.01, min_elements: int = 16) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = float(fraction)
        self.min_elements = int(min_elements)
        self._workspace = Workspace()

    def with_own_scratch(self) -> "TopKCompressor":
        """The same codec with a workspace of its own, for a second thread.

        Top-k keeps no state between calls, so two threads may compress at
        once as long as their payload scratch differs.
        """
        twin = copy.copy(self)
        twin._workspace = Workspace()
        return twin

    def _num_kept(self, size: int) -> int:
        return max(1, min(size, int(round(self.fraction * size))))

    def compress_into(self, tensor: np.ndarray, key: str | None = None) -> CompressedPayload:
        tensor = np.asarray(tensor, dtype=np.float64)
        key = key if key is not None else "default"
        flat = tensor.reshape(-1)
        if flat.size <= self.min_elements:
            return CompressedPayload(
                kind="topk-passthrough",
                data={"tensor": tensor},
                original_shape=tuple(tensor.shape),
                payload_bytes=tensor.size * UNCOMPRESSED_BYTES_PER_ELEMENT,
                metadata={"kept": flat.size, "compressed": False},
            )
        kept = self._num_kept(flat.size)
        magnitudes = self._workspace.flat(key, "magnitudes", flat.size)
        np.abs(flat, out=magnitudes)
        indices = stable_topk_indices(magnitudes, kept)
        values = self._workspace.flat(key, "values", kept)
        np.take(flat, indices, out=values)
        payload_bytes = kept * (UNCOMPRESSED_BYTES_PER_ELEMENT + INDEX_BYTES)
        return CompressedPayload(
            kind=self.name,
            data={"indices": indices, "values": values},
            original_shape=tuple(tensor.shape),
            payload_bytes=payload_bytes,
            metadata={"kept": kept, "compressed": True},
        )

    def compress(self, tensor: np.ndarray, key: str | None = None) -> CompressedPayload:
        payload = self.compress_into(tensor, key=key)
        payload.data = {name: array.copy() for name, array in payload.data.items()}
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


class RandomKCompressor(Compressor):
    """Keep a uniformly random ``fraction`` of elements (cheap, noisier baseline)."""

    name = "randomk"

    def __init__(self, fraction: float = 0.01, seed: int = 0, min_elements: int = 16) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = float(fraction)
        self.seed = int(seed)
        self.min_elements = int(min_elements)
        self._rng = CounterRNG(self.seed)
        self._call_counts: dict[str, int] = {}

    def compress(self, tensor: np.ndarray, key: str | None = None) -> CompressedPayload:
        tensor = np.asarray(tensor, dtype=np.float64)
        key = key if key is not None else "default"
        flat = tensor.reshape(-1)
        if flat.size <= self.min_elements:
            return CompressedPayload(
                kind="randomk-passthrough",
                data={"tensor": tensor.copy()},
                original_shape=tuple(tensor.shape),
                payload_bytes=tensor.size * UNCOMPRESSED_BYTES_PER_ELEMENT,
                metadata={"kept": flat.size, "compressed": False},
            )
        kept = max(1, int(round(self.fraction * flat.size)))
        count = self._call_counts.get(key, 0)
        self._call_counts[key] = count + 1
        rng = self._rng.at(stable_key_hash(key), count)
        indices = rng.choice(flat.size, size=kept, replace=False)
        values = flat[indices]
        # Random-k is an unbiased estimator when scaled by 1/fraction.
        scale = flat.size / kept
        payload_bytes = kept * (UNCOMPRESSED_BYTES_PER_ELEMENT + INDEX_BYTES)
        return CompressedPayload(
            kind=self.name,
            data={"indices": indices.astype(np.int64), "values": values, "scale": scale},
            original_shape=tuple(tensor.shape),
            payload_bytes=payload_bytes,
            metadata={"kept": kept, "compressed": True},
        )

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        if payload.kind == "randomk-passthrough":
            return payload.data["tensor"].copy()
        if payload.kind != self.name:
            raise ValueError(f"cannot decompress payload of kind {payload.kind!r}")
        size = 1
        for dim in payload.original_shape:
            size *= dim
        flat = np.zeros(size, dtype=np.float64)
        flat[payload.data["indices"]] = payload.data["values"] * payload.data["scale"]
        return flat.reshape(payload.original_shape)

    def reset(self) -> None:
        self._call_counts.clear()

    def state_dict(self) -> dict:
        return {"call_counts": dict(self._call_counts)}

    def load_state_dict(self, state: dict) -> None:
        self._call_counts = {
            str(key): int(count) for key, count in state["call_counts"].items()
        }

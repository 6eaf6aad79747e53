"""Compressor interface shared by every compression algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

#: Bytes per element assumed for uncompressed traffic.  Megatron-LM communicates
#: fp16/bf16 activations and fp32 (or fp16 + fp32 master) gradients; we follow the
#: paper's setting of half-precision on the wire for activations and gradients.
UNCOMPRESSED_BYTES_PER_ELEMENT = 2


@dataclass
class CompressedPayload:
    """The result of compressing one tensor.

    Attributes
    ----------
    kind:
        Short identifier of the producing algorithm (``"powersgd"``, ``"topk"``, ...).
    data:
        Algorithm-specific contents (factors, indices/values, quantised codes, ...).
    original_shape:
        Shape of the tensor before compression, needed for decompression.
    payload_bytes:
        Exact number of bytes this payload occupies on the wire.  This is the
        quantity the performance simulator charges to the network links.
    metadata:
        Optional extra information (e.g. the rank used), for diagnostics.
    """

    kind: str
    data: dict[str, Any]
    original_shape: tuple[int, ...]
    payload_bytes: int
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def original_bytes(self) -> int:
        """Size of the uncompressed tensor on the wire."""
        count = 1
        for dim in self.original_shape:
            count *= dim
        return count * UNCOMPRESSED_BYTES_PER_ELEMENT

    @property
    def compression_ratio(self) -> float:
        """Uncompressed bytes divided by payload bytes (>1 means smaller traffic)."""
        if self.payload_bytes <= 0:
            return float("inf")
        return self.original_bytes / self.payload_bytes


class Workspace:
    """Per-key cache of preallocated scratch arrays for the codec kernels.

    The zero-allocation compression path (``compress_into``/``decompress_into``)
    reuses the same scratch buffers on every call with the same ``key``, so the
    steady-state hot loop performs no array allocation at all.  Buffers are keyed
    by ``(key, name)`` and grown (never shrunk) when a tensor arrives larger than
    the cached buffer, so a key that sees varying sizes converges to its maximum.
    A codec whose payloads are consumed before its next call (QSGD, top-k)
    files every tensor under one key, ``"*"``: one buffer per name, grown to
    the widest tensor.  PowerSGD keys by tensor: its stored query outlives
    the call.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, str], np.ndarray] = {}

    def flat(self, key: str, name: str, size: int, dtype=np.float64) -> np.ndarray:
        """A flat scratch array of at least ``size`` elements, sliced to ``size``."""
        slot = (key, name)
        buffer = self._buffers.get(slot)
        if buffer is None or buffer.size < size or buffer.dtype != np.dtype(dtype):
            buffer = np.empty(max(size, 1), dtype=dtype)
            self._buffers[slot] = buffer
        return buffer[:size]

    def nbytes(self) -> int:
        """Total memory held by the cached scratch buffers."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def clear(self) -> None:
        self._buffers.clear()


def writable_flat_view(out: np.ndarray) -> np.ndarray:
    """Flat view of ``out`` for an in-place decompression kernel.

    ``reshape`` on a non-contiguous array silently returns a *copy*, so a kernel
    writing through it would leave ``out`` untouched and return stale data.  The
    zero-allocation ``decompress_into`` overrides therefore accept only
    C-contiguous outputs (arena views and workspace buffers always are) and
    reject anything else loudly instead of corrupting gradients quietly.
    """
    if not out.flags.c_contiguous:
        raise ValueError(
            "an in-place kernel requires a C-contiguous output buffer "
            f"(got shape {out.shape} with strides {out.strides})"
        )
    return out.reshape(-1)


class Compressor:
    """Abstract compressor.

    Concrete compressors may keep internal state keyed by a caller-supplied ``key``
    (PowerSGD reuses the previous Q factor per tensor, for example), so the same
    compressor instance must be used consistently for the same logical tensor.

    Two entry points exist for each direction:

    * ``compress``/``decompress`` — the safe API: the returned payload owns its
      arrays and stays valid indefinitely.
    * ``compress_into``/``decompress_into`` — the zero-allocation kernels: payload
      arrays may be *views into the compressor's per-key workspace*, valid only
      until the next call with the same key, and decompression writes into a
      caller-provided output buffer.  Numerically both APIs are bit-identical;
      the hot loops (the bucketed DP all-reduce) use the ``_into`` spellings.
    """

    #: Short algorithm name used in payloads and reports.
    name = "identity"

    def compress(self, tensor: np.ndarray, key: str | None = None) -> CompressedPayload:
        """Compress ``tensor`` and return the wire payload."""
        raise NotImplementedError

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        """Reconstruct the (lossy) tensor from a payload."""
        raise NotImplementedError

    def compress_into(self, tensor: np.ndarray, key: str | None = None) -> CompressedPayload:
        """Compress using the per-key cached workspace (zero allocation).

        The payload's arrays may alias workspace memory — or, on the passthrough
        branches (tensors too small to compress), the *input tensor itself* —
        so consume (decompress / account) the payload before the codec's next
        ``compress_into`` (the QSGD and top-k codecs share one scratch across
        keys) and before mutating ``tensor``.
        The default falls back to :meth:`compress`; kernel-optimised codecs
        override it.  Bit-identical to :meth:`compress`.
        """
        return self.compress(tensor, key=key)

    def decompress_into(self, payload: CompressedPayload, out: np.ndarray) -> np.ndarray:
        """Reconstruct into ``out`` (shape must match) and return it.

        The default routes through :meth:`decompress`; kernel-optimised codecs
        override it with an allocation-free path.  Bit-identical to
        :meth:`decompress`.
        """
        out[...] = self.decompress(payload)
        return out

    def reserve(self, size: int, keys: Iterable[str] = ()) -> None:
        """Allocate what ``compress_into`` of tensors up to ``size`` elements under ``keys`` uses.

        A threaded reduce calls it on the calling thread before its helper
        threads start, so their calls allocate nothing.  A no-op by default.
        """

    def roundtrip(self, tensor: np.ndarray, key: str | None = None) -> tuple[np.ndarray, CompressedPayload]:
        """Compress then decompress; returns ``(approximation, payload)``."""
        payload = self.compress(tensor, key=key)
        return self.decompress(payload), payload

    def reset(self) -> None:
        """Drop any per-tensor state (Q reuse, residuals held by subclasses)."""

    def state_dict(self) -> dict:
        """Cross-call mutable state for bit-exact checkpoint/rollback.

        Array leaves are *live* references: the checkpoint writer streams them
        out and the recovery point detaches them (``repro.utils.state``).
        Workspace scratch buffers are *not* state: they are fully overwritten
        on every call.  Stateless compressors return ``{}``; subclasses with
        warm starts or RNG call counts override both methods.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        if state:
            raise ValueError(
                f"{type(self).__name__} holds no cross-call state; "
                f"got unexpected entries {sorted(state)}"
            )


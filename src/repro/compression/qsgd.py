"""QSGD-style stochastic quantisation and AdaComp-style adaptive residual compression.

These two compressors round out the quantisation/sparsification families the paper
surveys in Section 2.3:

* :class:`QSGDCompressor` — stochastic uniform quantisation to ``2^bits`` levels per
  tensor with an unbiased rounding rule (Alistarh et al., 2017).
* :class:`AdaCompCompressor` — AdaComp-like adaptive sparsification: an element is
  transmitted when adding it to the local residual would change the local maximum by
  more than a sensitivity threshold; everything else stays in the residual (Chen et
  al., 2018).  The residual handling is internal, so the compressor can be used
  directly or wrapped by :class:`repro.compression.error_feedback.ErrorFeedback`
  (with its own feedback disabled).

Both follow the :class:`repro.compression.base.Compressor` interface so they can be
dropped into compressed backpropagation or the data-parallel path for comparisons.

The QSGD hot path is a zero-allocation kernel that works in a fixed, cache-sized
working set.  Each key owns only its packed codes (one two's-complement level per
element, int8 up to 7 bits), which the payload aliases.  After one full-tensor
pass for the scale, the tensor is quantised in tiles of :data:`QUANTISE_TILE`
elements through one float64 ``scaled`` and one float32 ``uniform`` tile that
every key shares; the stochastic rounding is the single fused
``floor(x * L/scale + u)`` pass per tile.  The uniforms come from a cached
counter-based Philox generator (:class:`repro.utils.random.CounterRNG`) whose
stream is keyed by the tensor key — so the draw is independent of the order in
which tensors are compressed, which is what makes the bucketed and per-parameter
DP paths bit-identical — and drawing that stream tile by tile continues it
exactly, so the codes equal a one-shot draw's.  Decoding is one ufunc straight
from the codes (``codes / L``) and one in-place ``*= scale``.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.compression.base import (
    UNCOMPRESSED_BYTES_PER_ELEMENT,
    CompressedPayload,
    Compressor,
    Workspace,
    writable_flat_view,
)
from repro.compression.topk import INDEX_BYTES
from repro.parallel.op_order import OpOrderedDict
from repro.utils.random import CounterRNG

from repro.compression.powersgd import stable_key_hash

#: Elements quantised per pass: the float64 ``scaled`` and float32 ``uniform``
#: tiles (12 B per element, 192 KiB together) stay in cache between passes.
QUANTISE_TILE = 1 << 14


class QSGDCompressor(Compressor):
    """Stochastic uniform quantisation to ``2^bits`` levels (per-tensor scale).

    Each element ``x`` is mapped to ``scale * q / L`` where ``L = 2^bits - 1`` and
    the signed level ``q = floor(x * L / scale + u)`` with ``u ~ U[0, 1)`` — the
    classic unbiased stochastic-rounding rule expressed as one fused pass.  Codes
    are *packed*: a single two's-complement integer per element (int8 for up to
    7 bits, int16 for 8) instead of a separate magnitude + sign pair, which is
    also exactly the ``bits + 1`` bits/element the wire model charges.
    """

    name = "qsgd"

    def __init__(self, bits: int = 4, seed: int = 0, deterministic: bool = False) -> None:
        if not 1 <= bits <= 8:
            raise ValueError(f"bits must be in [1, 8], got {bits}")
        self.bits = int(bits)
        self.seed = int(seed)
        self.deterministic = bool(deterministic)
        self._rng = CounterRNG(self.seed)
        #: Per-key call counters: the RNG stream of a call depends only on
        #: ``(seed, key, how many times this key was compressed)``, never on the
        #: global call order.  Keys added on threads of a DP sync take the
        #: one-thread order (:class:`~repro.parallel.op_order.OpOrderedDict`).
        self._call_counts: dict[str, int] = OpOrderedDict()
        self._workspace = Workspace()
        self._code_dtype = np.int8 if self.bits <= 7 else np.int16

    def with_own_scratch(self) -> "QSGDCompressor":
        """A codec sharing this one's call counters but owning its workspace and generator.

        What lets two threads compress disjoint keys at once: the counters
        are per key, so each thread touches its own, while the tile scratch
        and the reseeked Philox generator are used by whole calls.
        """
        twin = copy.copy(self)
        twin._rng = CounterRNG(self.seed)
        twin._workspace = Workspace()
        return twin

    @property
    def num_levels(self) -> int:
        return 2**self.bits - 1

    def _payload_bytes(self, size: int) -> int:
        return max(int(math.ceil(size * (self.bits + 1) / 8)) + 4, 1)

    def _quantise_into(self, flat: np.ndarray, key: str, codes: np.ndarray) -> float:
        """The kernel: write packed signed levels of ``flat`` into ``codes``, tile by tile."""
        size = flat.size
        if size == 0:
            return 0.0
        scale = float(max(flat.max(), -flat.min()))
        if scale == 0.0:
            codes[...] = 0
            return 0.0
        ratio = self.num_levels / scale
        rng = None
        if not self.deterministic:
            count = self._call_counts.get(key, 0)
            self._call_counts[key] = count + 1
            rng = self._rng.at(stable_key_hash(key), count)
        # Every key shares one tile of scratch: its slot names are not
        # "codes", so no tensor key can alias it.
        tile = min(size, QUANTISE_TILE)
        scaled_tile = self._workspace.flat("*", "scaled", tile)
        uniform_tile = self._workspace.flat("*", "uniform", tile, dtype=np.float32)
        for start in range(0, size, tile):
            stop = min(start + tile, size)
            scaled = scaled_tile[: stop - start]
            np.multiply(flat[start:stop], ratio, out=scaled)
            if rng is None:
                np.rint(scaled, out=scaled)
            else:
                uniform = uniform_tile[: stop - start]
                # The generator carries its position across calls, so tile
                # after tile continues the key's stream exactly.
                rng.random(out=uniform, dtype=np.float32)
                # floor(x + u) rounds x up with probability frac(x): the whole
                # stochastic-rounding branch is one add + one floor, no temporaries.
                scaled += uniform
                np.floor(scaled, out=scaled)
            np.copyto(codes[start:stop], scaled, casting="unsafe")
        return scale

    def compress_into(self, tensor: np.ndarray, key: str | None = None) -> CompressedPayload:
        tensor = np.asarray(tensor, dtype=np.float64)
        key = key if key is not None else "default"
        flat = tensor.reshape(-1)
        codes = self._workspace.flat(key, "codes", flat.size, dtype=self._code_dtype)
        scale = self._quantise_into(flat, key, codes)
        return CompressedPayload(
            kind=self.name,
            data={"codes": codes, "scale": scale},
            original_shape=tuple(tensor.shape),
            payload_bytes=self._payload_bytes(tensor.size),
            metadata={"bits": self.bits, "compressed": True},
        )

    def compress(self, tensor: np.ndarray, key: str | None = None) -> CompressedPayload:
        payload = self.compress_into(tensor, key=key)
        payload.data = dict(payload.data, codes=payload.data["codes"].copy())
        return payload

    def decompress_into(self, payload: CompressedPayload, out: np.ndarray) -> np.ndarray:
        if payload.kind != self.name:
            raise ValueError(f"cannot decompress payload of kind {payload.kind!r}")
        flat = writable_flat_view(out)
        np.divide(payload.data["codes"], self.num_levels, out=flat)
        flat *= payload.data["scale"]
        return out

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        out = np.empty(payload.original_shape, dtype=np.float64)
        return self.decompress_into(payload, out)

    def reset(self) -> None:
        self._call_counts.clear()
        self._workspace.clear()

    def state_dict(self) -> dict:
        # The call counters are the only cross-call state: they pick each
        # key's next stochastic-rounding stream, so a bit-exact resume must
        # continue them rather than restart at zero.
        return {"call_counts": dict(self._call_counts)}

    def load_state_dict(self, state: dict) -> None:
        # In place: a twin from :meth:`with_own_scratch` shares the dict.
        self._call_counts.clear()
        self._call_counts.update(
            (str(key), int(count)) for key, count in state["call_counts"].items()
        )

    def workspace_bytes(self) -> int:
        """Memory held by the per-key codes and the shared tile (diagnostics)."""
        return self._workspace.nbytes()


class AdaCompCompressor(Compressor):
    """AdaComp-like adaptive residual sparsification.

    The compressor accumulates a local residual per ``key``.  On each call it adds
    the new tensor to the residual and transmits the elements whose magnitude exceeds
    ``sensitivity`` times the current maximum magnitude; transmitted elements are
    removed from the residual, the rest stay for later calls.
    """

    name = "adacomp"

    def __init__(self, sensitivity: float = 0.4, min_elements: int = 16) -> None:
        if not 0.0 < sensitivity <= 1.0:
            raise ValueError(f"sensitivity must be in (0, 1], got {sensitivity}")
        self.sensitivity = float(sensitivity)
        self.min_elements = int(min_elements)
        self._residuals: dict[str, np.ndarray] = {}

    def residual(self, key: str) -> np.ndarray | None:
        """Internal residual for ``key`` (diagnostics)."""
        return self._residuals.get(key)

    def compress(self, tensor: np.ndarray, key: str | None = None) -> CompressedPayload:
        tensor = np.asarray(tensor, dtype=np.float64)
        key = key if key is not None else "default"
        flat = tensor.reshape(-1)
        if flat.size <= self.min_elements:
            return CompressedPayload(
                kind="adacomp-passthrough",
                data={"tensor": tensor.copy()},
                original_shape=tuple(tensor.shape),
                payload_bytes=tensor.size * UNCOMPRESSED_BYTES_PER_ELEMENT,
                metadata={"kept": flat.size, "compressed": False},
            )

        residual = self._residuals.get(key)
        if residual is None or residual.shape != flat.shape:
            residual = np.zeros_like(flat)
        accumulated = residual + flat

        threshold = self.sensitivity * float(np.max(np.abs(accumulated))) if accumulated.size else 0.0
        mask = np.abs(accumulated) >= max(threshold, 1e-30)
        indices = np.nonzero(mask)[0]
        values = accumulated[indices]

        new_residual = accumulated.copy()
        new_residual[indices] = 0.0
        self._residuals[key] = new_residual

        payload_bytes = int(indices.size * (UNCOMPRESSED_BYTES_PER_ELEMENT + INDEX_BYTES))
        return CompressedPayload(
            kind=self.name,
            data={"indices": indices.astype(np.int64), "values": values},
            original_shape=tuple(tensor.shape),
            payload_bytes=max(payload_bytes, 1),
            metadata={"kept": int(indices.size), "compressed": True},
        )

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        if payload.kind == "adacomp-passthrough":
            return payload.data["tensor"].copy()
        if payload.kind != self.name:
            raise ValueError(f"cannot decompress payload of kind {payload.kind!r}")
        size = 1
        for dim in payload.original_shape:
            size *= dim
        flat = np.zeros(size, dtype=np.float64)
        flat[payload.data["indices"]] = payload.data["values"]
        return flat.reshape(payload.original_shape)

    def reset(self) -> None:
        self._residuals.clear()

    def state_dict(self) -> dict:
        return {"residuals": dict(self._residuals)}

    def load_state_dict(self, state: dict) -> None:
        self._residuals = {
            str(key): np.array(value, dtype=np.float64)
            for key, value in state["residuals"].items()
        }

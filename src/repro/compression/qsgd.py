"""QSGD-style stochastic quantisation, the plan's ``qsgd`` data-parallel codec.

:class:`QSGDCompressor` quantises each tensor stochastically to ``2^bits``
levels with an unbiased rounding rule (Alistarh et al., 2017), one of the
quantisation families the paper surveys in Section 2.3.  It follows the
:class:`repro.compression.base.Compressor` interface, so the bucketed DP
all-reduce drives it like the other codecs.

The QSGD hot path is a zero-allocation kernel that works in a fixed, cache-sized
working set.  The codec owns one buffer of packed codes (one two's-complement
level per element, int8 up to 7 bits), grown to the widest tensor it has
compressed, which every key's payload aliases.  After one full-tensor
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
from typing import Iterable

import numpy as np

from repro.compression.base import (
    CompressedPayload,
    Compressor,
    Workspace,
    writable_flat_view,
)
from repro.parallel.collectives import WIRE_BYTES_PER_ELEMENT
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
    7 bits, int16 for 8) instead of a separate magnitude + sign pair; the wire
    carries them at ``bits + 1`` bits each (:meth:`wire_bytes`).
    """

    name = "qsgd"
    #: Each replica's codes carry its own scale, so they cannot be summed in flight.
    collective = "all_gather"

    def __init__(self, bits: int = 4, seed: int = 0, deterministic: bool = False) -> None:
        if not 1 <= bits <= 8:
            raise ValueError(f"bits must be in [1, 8], got {bits}")
        self.bits = int(bits)
        self.seed = int(seed)
        self.deterministic = bool(deterministic)
        #: Built on the first stochastic draw: a codec only asked for its wire
        #: rule (the simulator's) never allocates a generator.
        self._rng: CounterRNG | None = None
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

    def reserve(self, size: int, keys: Iterable[str] = ()) -> None:
        """Grow the workspace to a ``size``-element tensor's and start the call counters of ``keys``.

        Counters start at zero, as on a key's first compression, in the order
        given: a reduce that reserves its keys on the calling thread never
        inserts one on a helper thread.
        """
        self._workspace.flat("*", "codes", size, dtype=self._code_dtype)
        self._workspace.flat("*", "scaled", min(size, QUANTISE_TILE))
        self._workspace.flat("*", "uniform", min(size, QUANTISE_TILE), dtype=np.float32)
        if not self.deterministic:
            for key in keys:
                if key not in self._call_counts:
                    self._call_counts[key] = 0

    @property
    def num_levels(self) -> int:
        return 2**self.bits - 1

    def wire_bytes(self, shape: tuple[int, ...], element_bytes: int) -> int:
        """``bits + 1`` bits per element, packed, plus the 4-byte fp32 scale.

        The element width does not enter: quantised codes replace the elements.
        """
        return math.ceil(math.prod(shape) * (self.bits + 1) / 8) + 4

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
            if self._rng is None:
                self._rng = CounterRNG(self.seed)
            rng = self._rng.at(stable_key_hash(key), count)
        # Every key shares one tile of scratch, in slots of its own.
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
        """Quantise ``tensor`` into the codec's one codes buffer (zero allocation once grown).

        The payload's codes alias that buffer, whatever the key: it is valid
        until this codec's next compress, so decompress it before compressing
        anything else.
        """
        tensor = np.asarray(tensor, dtype=np.float64)
        key = key if key is not None else "default"
        flat = tensor.reshape(-1)
        codes = self._workspace.flat("*", "codes", flat.size, dtype=self._code_dtype)
        scale = self._quantise_into(flat, key, codes)
        return CompressedPayload(
            kind=self.name,
            data={"codes": codes, "scale": scale},
            original_shape=tuple(tensor.shape),
            payload_bytes=self.wire_bytes(tensor.shape, WIRE_BYTES_PER_ELEMENT),
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
        """Memory held by the codes buffer and the tile scratch (diagnostics)."""
        return self._workspace.nbytes()


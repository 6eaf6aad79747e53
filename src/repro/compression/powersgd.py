"""PowerSGD low-rank gradient compression (Vogels et al., NeurIPS 2019).

This is the compressor Optimus-CC adopts (paper Section 8): a tensor is reshaped
into a matrix ``M`` of shape ``(n, m)`` and approximated as ``P @ Q.T`` where ``P``
has shape ``(n, r)`` and ``Q`` has shape ``(m, r)`` for rank ``r``.  One power
iteration per step is used:

1. ``P = M @ Q_prev`` (using the Q factor remembered from the previous call),
2. ``P = orthogonalise(P)`` (Gram-Schmidt),
3. ``Q = M.T @ P``,
4. transmit ``P`` and ``Q``; the receiver reconstructs ``M ≈ P @ Q.T``.

Reusing ``Q`` across steps ("warm start") is what makes a single power iteration
accurate enough in practice.  Tensors with fewer than ``min_compression_elements``
elements, or rank-deficient shapes where low-rank would not reduce traffic, are sent
uncompressed exactly as in the reference implementation.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from repro.compression.base import (
    CompressedPayload,
    Compressor,
    Workspace,
    writable_flat_view,
)
from repro.parallel.collectives import WIRE_BYTES_PER_ELEMENT
from repro.parallel.op_order import OpOrderedDict
from repro.utils.random import seeded_rng


def stable_key_hash(key: str) -> int:
    """Process-independent hash of a tensor key (Python's ``hash`` is salted).

    Used to derive per-tensor RNG seeds so that compressed runs are bit-identical
    across interpreter invocations.
    """
    return zlib.crc32(key.encode("utf-8"))


def orthogonalise(matrix: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Orthogonalise the columns of ``matrix`` in place (modified Gram-Schmidt).

    This mirrors the ``orthogonalize`` kernel in the reference PowerSGD code, which
    the paper identifies as ~80 % of the compression cost (Section 9.6).
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    num_cols = matrix.shape[1]
    for col in range(num_cols):
        column = matrix[:, col]
        norm = np.linalg.norm(column)
        if norm < eps:
            # Degenerate column: replace with a unit vector to keep the basis usable.
            column[:] = 0.0
            column[col % matrix.shape[0]] = 1.0
        else:
            # A poisoned column (inf gradient, e.g. under fault injection) has an
            # inf norm: inf / inf is NaN on purpose, so the poison keeps
            # propagating to the guard that rolls the step back.
            with np.errstate(invalid="ignore"):
                column /= norm
        if col + 1 < num_cols:
            rest = matrix[:, col + 1 :]
            rest -= np.outer(column, column @ rest)
    return matrix


def factor_wire_bytes(shape: tuple[int, ...], rank: int, element_bytes: int) -> int:
    """PowerSGD's wire rule: bytes of the ``P (rows x r)`` and ``Q (cols x r)`` factors.

    ``shape`` is flattened as :func:`matrix_view` does and ``r`` is ``rank``
    capped by both dimensions.  The factors are counted whatever their size:
    routing a matrix they would outgrow around the codec is the caller's call.
    """
    cols = shape[-1]
    rows = math.prod(shape) // cols
    return max(1, min(rank, rows, cols)) * (rows + cols) * element_bytes


def matrix_view(tensor: np.ndarray) -> np.ndarray:
    """Reshape an arbitrary tensor into the 2-D matrix PowerSGD factorises.

    * 1-D tensors stay 1-D (they are transmitted uncompressed).
    * 2-D tensors are used as-is.
    * Higher-rank tensors (e.g. ``(batch, seq, hidden)`` activation gradients) are
      flattened to ``(prod(leading dims), last dim)``.
    """
    if tensor.ndim <= 1:
        return tensor
    if tensor.ndim == 2:
        return tensor
    return tensor.reshape(-1, tensor.shape[-1])


class PowerSGDCompressor(Compressor):
    """Rank-``r`` PowerSGD compressor with warm-started Q factors.

    Parameters
    ----------
    rank:
        Approximation rank.  The paper uses 128 for data-parallel gradients and 16
        for compressed backpropagation (Section 9.1).
    reuse_query:
        Warm-start the Q factor from the previous call with the same ``key``.
    min_compression_elements:
        Tensors smaller than this are sent uncompressed (biases, LayerNorm gains).
    seed:
        Seed for the random initial Q factors.
    """

    name = "powersgd"

    def __init__(
        self,
        rank: int = 4,
        reuse_query: bool = True,
        min_compression_elements: int = 4096,
        seed: int = 0,
    ) -> None:
        if rank <= 0:
            raise ValueError(f"rank must be positive, got {rank}")
        self.rank = int(rank)
        self.reuse_query = bool(reuse_query)
        self.min_compression_elements = int(min_compression_elements)
        self.seed = int(seed)
        # Keys first stored on threads of a pipeline walk take the one-thread order.
        self._queries: dict[str, np.ndarray] = OpOrderedDict()
        self._workspace = Workspace()

    # -- internal helpers ------------------------------------------------------

    def _initial_query(self, num_cols: int, rank: int, key: str) -> np.ndarray:
        rng = seeded_rng(self.seed + stable_key_hash(key))
        return rng.standard_normal((num_cols, rank))

    def _should_compress(self, matrix: np.ndarray) -> bool:
        if matrix.ndim < 2:
            return False
        if matrix.size < self.min_compression_elements:
            return False
        return factor_wire_bytes(matrix.shape, self.rank, 1) < matrix.size

    def wire_bytes(self, shape: tuple[int, ...], element_bytes: int) -> int:
        return factor_wire_bytes(shape, self.rank, element_bytes)

    # -- Compressor interface --------------------------------------------------

    def compress_into(self, tensor: np.ndarray, key: str | None = None) -> CompressedPayload:
        """One power iteration into the per-key workspace (zero allocation).

        The payload's ``p``/``q`` factors are views into the workspace, valid
        until the next ``compress_into`` with the same key; the warm-started
        query is kept in its own buffer so the reuse survives the aliasing.
        """
        tensor = np.asarray(tensor, dtype=np.float64)
        key = key if key is not None else "default"
        matrix = matrix_view(tensor)

        if not self._should_compress(matrix):
            return CompressedPayload(
                kind="powersgd-passthrough",
                data={"tensor": tensor},
                original_shape=tuple(tensor.shape),
                payload_bytes=tensor.size * WIRE_BYTES_PER_ELEMENT,
                metadata={"rank": 0, "compressed": False},
            )

        rows, cols = matrix.shape
        rank = max(1, min(self.rank, rows, cols))

        query = self._queries.get(key)
        if query is None or query.shape != (cols, rank) or not self.reuse_query:
            query = self._initial_query(cols, rank, key)

        # Single power iteration with orthogonalisation, written into the
        # preallocated P/Q factor buffers (the same dgemm calls as the
        # allocating spelling, so the factors are bit-identical).
        p_factor = self._workspace.flat(key, "p", rows * rank).reshape(rows, rank)
        q_factor = self._workspace.flat(key, "q", cols * rank).reshape(cols, rank)
        np.matmul(matrix, query, out=p_factor)
        p_factor = orthogonalise(p_factor)
        np.matmul(matrix.T, p_factor, out=q_factor)

        if self.reuse_query:
            stored = self._workspace.flat(key, "query", cols * rank).reshape(cols, rank)
            stored[...] = q_factor
            self._queries[key] = stored

        return CompressedPayload(
            kind=self.name,
            data={"p": p_factor, "q": q_factor},
            original_shape=tuple(tensor.shape),
            payload_bytes=self.wire_bytes(matrix.shape, WIRE_BYTES_PER_ELEMENT),
            metadata={"rank": rank, "compressed": True, "matrix_shape": (rows, cols)},
        )

    def compress(self, tensor: np.ndarray, key: str | None = None) -> CompressedPayload:
        payload = self.compress_into(tensor, key=key)
        payload.data = {name: array.copy() for name, array in payload.data.items()}
        return payload

    def decompress_into(self, payload: CompressedPayload, out: np.ndarray) -> np.ndarray:
        if payload.kind == "powersgd-passthrough":
            out[...] = payload.data["tensor"]
            return out
        if payload.kind != self.name:
            raise ValueError(f"cannot decompress payload of kind {payload.kind!r}")
        rows, cols = payload.metadata["matrix_shape"]
        matrix = writable_flat_view(out).reshape(rows, cols)
        np.matmul(payload.data["p"], payload.data["q"].T, out=matrix)
        return out

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        if payload.kind == "powersgd-passthrough":
            return payload.data["tensor"].copy()
        out = np.empty(payload.original_shape, dtype=np.float64)
        return self.decompress_into(payload, out)

    def reset(self) -> None:
        self._queries.clear()
        self._workspace.clear()

    def state_dict(self) -> dict:
        # The warm-started Q factors are live views into the workspace (the
        # consumer writes or detaches them).  Restoring plain copies is
        # bit-safe: the next compress_into reads the stored query first, then
        # rebinds the slot back into the workspace buffer.
        return {"queries": dict(self._queries)}

    def load_state_dict(self, state: dict) -> None:
        self._queries = OpOrderedDict(
            (str(key), np.array(query, dtype=np.float64))
            for key, query in state["queries"].items()
        )

    # -- diagnostics -----------------------------------------------------------

    def stored_query(self, key: str) -> np.ndarray | None:
        """Return the warm-started Q factor for ``key`` (testing/diagnostics)."""
        return self._queries.get(key)

"""Parameter container used by every module in :mod:`repro.nn`.

A :class:`Parameter` bundles a weight array with its gradient accumulator and a
stable, fully-qualified name.  Names matter in this reproduction because the paper's
fused embedding synchronisation identifies the shared embedding weight by searching
for ``word_embeddings`` in the parameter name (Section 8 of the paper); we keep the
same convention.

Gradient lifecycle
------------------
Outside a producer run every ``accumulate_*`` call adds into the gradient
buffer.  A pipeline iteration opens a :func:`gradient_epoch` over its
parameters instead: the first write of each parameter's gradient in the epoch
*assigns* — the W GEMM lands straight in the buffer, with no temporary and no
zero-fill before it — and later writes add exactly as outside one.  When the
epoch ends, every parameter nothing wrote is zero-filled, so what the buffer
holds afterwards never depends on what it held before; nobody has to clear it
first.  Assigning ``g`` where the old path added ``0.0 + g`` differs only when
``g`` is ``-0.0``: a BLAS accumulator starts at ``+0.0``, and the DP mean and the
Adam moments absorb a signed zero, so the weights are the same bits.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np


class Parameter:
    """A trainable weight with an attached gradient buffer.

    Parameters
    ----------
    data:
        Initial weight values.  Stored as ``float64`` by default for numerical
        fidelity of the functional experiments (the scale is small enough that
        memory is not a concern).
    name:
        Fully-qualified parameter name, e.g. ``"stage0.layer1.attention.qkv.weight"``.
    requires_grad:
        When ``False`` the parameter is excluded from gradient synchronisation and
        optimiser updates (used for frozen buffers in some ablations).
    """

    def __init__(self, data: np.ndarray, name: str = "", requires_grad: bool = True) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name
        self.requires_grad = bool(requires_grad)
        #: Set by :func:`gradient_epoch` until the epoch's first gradient write:
        #: the buffer's contents are dead, so that write assigns instead of adds.
        self.grad_stale = False

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying weight array."""
        return tuple(self.data.shape)

    @property
    def size(self) -> int:
        """Total number of scalar elements."""
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Reset the gradient accumulator to zero in place."""
        self.grad[...] = 0.0

    def _first_write(self, shape: tuple[int, ...]) -> bool:
        """Check a gradient's shape; True if it is the epoch's first write (which assigns)."""
        if shape != self.data.shape:
            raise ValueError(
                f"gradient shape {shape} does not match parameter "
                f"'{self.name}' shape {self.data.shape}"
            )
        stale = self.grad_stale
        self.grad_stale = False
        return stale

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into the gradient buffer (micro-batch accumulation)."""
        if self._first_write(grad.shape):
            np.copyto(self.grad, grad)
        else:
            self.grad += grad

    def accumulate_matmul(self, left: np.ndarray, right: np.ndarray) -> None:
        """Accumulate ``left @ right``: an epoch's first write is the GEMM into the buffer."""
        if self._first_write((left.shape[0], right.shape[1])):
            np.matmul(left, right, out=self.grad)
        else:
            self.grad += left @ right

    def accumulate_sum(self, rows: np.ndarray) -> None:
        """Accumulate ``rows.sum(axis=0)``: an epoch's first write reduces into the buffer."""
        if self._first_write(rows.shape[1:]):
            np.sum(rows, axis=0, out=self.grad)
        else:
            self.grad += rows.sum(axis=0)

    def accumulate_rows(self, indices: np.ndarray, rows: np.ndarray) -> None:
        """Scatter-add ``rows`` at row ``indices`` (repeated indices sum).

        An epoch's first write zero-fills the buffer and scatters into it; a
        later one scatters into a zeroed temporary and adds that, so each
        micro-batch's contribution is summed on its own first, as always.
        """
        if self._first_write(self.data.shape[:1] + rows.shape[1:]):
            self.grad.fill(0.0)
            np.add.at(self.grad, indices, rows)
        else:
            scattered = np.zeros_like(self.grad)
            np.add.at(scattered, indices, rows)
            self.grad += scattered

    def copy_(self, other: "Parameter") -> None:
        """Copy another parameter's weights into this one (shapes must match)."""
        if other.data.shape != self.data.shape:
            raise ValueError(
                f"cannot copy parameter of shape {other.data.shape} into shape {self.data.shape}"
            )
        self.data[...] = other.data

    def clone(self) -> "Parameter":
        """Return a deep copy (weights and gradient) with the same name."""
        duplicate = Parameter(self.data.copy(), name=self.name, requires_grad=self.requires_grad)
        duplicate.grad = self.grad.copy()
        return duplicate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.shape})"


@contextmanager
def gradient_epoch(parameters: Sequence[Parameter]) -> Iterator[None]:
    """One producer run over ``parameters``: first writes assign, later ones add.

    On exit (normal or not) every parameter nothing wrote in the epoch is
    zero-filled, so afterwards each gradient buffer holds exactly what the run
    produced, whatever it held before.
    """
    for parameter in parameters:
        parameter.grad_stale = True
    try:
        yield
    finally:
        for parameter in parameters:
            if parameter.grad_stale:
                parameter.grad_stale = False
                parameter.grad.fill(0.0)

"""Fused Adam over a flat parameter arena, the one optimiser of the training loop.

Where a per-parameter Adam loops over every parameter and pays the NumPy
dispatch overhead thousands of times per step, :class:`FusedAdam` keeps its Adam
moments in two flat arrays aligned with a
:class:`repro.parallel.arena.ParameterArena` and applies the whole update as a
handful of in-place vectorised ops over the trainable prefix of the arena.  Every
operation is elementwise with the same evaluation order as the per-parameter
loop, so the two produce bit-for-bit identical weights (``tests/test_arena.py``
holds it to a frozen copy of that loop) — only the constant factors change.

The update runs tile by tile: the whole chain of ufuncs is applied to one
cache-sized slice of weights, gradient and moments before the next slice is
touched, so each of them streams from memory once per step instead of once per
ufunc.  Elementwise ops do not care where the slices are cut, so any tile size
gives the same bits.

Data-parallel replicas share one weight buffer (a
:meth:`~repro.parallel.arena.ParameterArena.replicated` group), so a group gets
**one** optimiser and one pair of moments: :meth:`FusedAdam.step` updates the
shared weights from the first replica's synchronised gradient (every replica
holds the same one after the DP sync) and :meth:`FusedAdam.zero_grad` clears
every replica's gradient buffer.  The training loop does not call it: each
iteration's pipeline run writes every gradient afresh
(:func:`~repro.tensor.parameter.gradient_epoch`), so there is nothing to clear
first; it is for callers that want clean buffers outside an iteration.  An
optimiser over part of a group would apply the update once per member, so the
constructor refuses it.

The step runs on the iteration's threads (``step(threads)``, which the
training loop passes from the engine's result): the trainable prefix is cut
into that many contiguous spans, each updated on its own thread with its own
tile scratch through :func:`~repro.parallel.op_order.fork_join`.  Being
elementwise, the split gives the one-range step's bits; one thread starts no
thread and uses only the scratch above.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.parallel.arena import ParameterArena
from repro.parallel.op_order import fork_join
from repro.utils.state import capture_tree

#: Elements per tile of :meth:`FusedAdam.step`.  Six float64 slices are live per
#: tile (weights, gradient, two moments, two scratch): 768 KiB, well inside a
#: per-core L2, while keeping the Python-level loop to a few hundred trips on a
#: multi-million-element arena.
_TILE_ELEMENTS = 16384


class FusedAdam:
    """Adam/AdamW whose state and update live in flat arena-aligned buffers.

    Parameters
    ----------
    arenas:
        The parameter arena to optimise (its trainable prefix is updated), or
        the whole weight-sharing group of a data-parallel engine — which
        :meth:`repro.parallel.engine.ThreeDParallelEngine.build_optimizer`
        passes.  The group list is held live: a replica that leaves it stops
        being zeroed, and the step reads whichever replica is first *now*.
    lr, betas, eps, weight_decay:
        Standard Adam hyper-parameters.  ``weight_decay`` is L2 regularisation
        added to the gradient (Adam's L2 rule) unless
        ``decoupled_weight_decay`` selects the AdamW rule.
    decoupled_weight_decay:
        Apply the decay directly to the weights (AdamW, Loshchilov & Hutter,
        2019) instead of through the gradient.
    """

    def __init__(
        self,
        arenas: ParameterArena | Sequence[ParameterArena],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        decoupled_weight_decay: bool = False,
    ) -> None:
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"lr must be finite and positive, got {lr}")
        for name, value in (("eps", eps), ("weight_decay", weight_decay)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        given = [arenas] if isinstance(arenas, ParameterArena) else list(arenas)
        group = given[0].group
        if len(given) != len(group) or any(a is not b for a, b in zip(given, group)):
            raise ValueError(
                f"FusedAdam was given {len(given)} of the {len(group)} arenas that share one "
                "weight buffer: stepping it would update the shared weights once per such "
                "optimiser and zero only its own arenas' gradients — build the group's one "
                "optimiser with ThreeDParallelEngine.build_optimizer(**adam_kwargs)"
            )
        self.arenas = group
        arena = group[0]
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.decoupled_weight_decay = bool(decoupled_weight_decay)
        self._step_count = 0
        size = arena.num_trainable_elements
        self._exp_avg_flat = np.zeros(size, dtype=arena.data.dtype)
        self._exp_avg_sq_flat = np.zeros(size, dtype=arena.data.dtype)
        tile = max(1, min(size, _TILE_ELEMENTS))
        self._scratch = np.empty(tile, dtype=arena.data.dtype)
        self._scratch2 = np.empty(tile, dtype=arena.data.dtype)
        #: Per span of a split step (one per thread), its pair of tile
        #: scratches: span 0's is the pair above, the others are allocated, on
        #: the calling thread, by the first step split that far.
        self._span_scratch: list[tuple[np.ndarray, np.ndarray]] = [
            (self._scratch, self._scratch2)
        ]

    @property
    def arena(self) -> ParameterArena:
        """The group's first live arena: the shared weights and the gradient stepped from."""
        return self.arenas[0]

    # -- checkpoint state -------------------------------------------------------------

    def live_state(self) -> dict:
        """All mutable optimiser state, moments as the *live* flat buffers.

        A checkpoint writes the moments straight from these buffers,
        :meth:`state_dict` detaches them; the recovery point reads the step
        count, the proof that the weights and moments are unchanged.
        """
        return {
            "step_count": int(self._step_count),
            "lr": float(self.lr),
            "exp_avg": self._exp_avg_flat,
            "exp_avg_sq": self._exp_avg_sq_flat,
        }

    def state_dict(self) -> dict:
        """A detached copy of :meth:`live_state`."""
        return capture_tree(self.live_state())

    def load_state_dict(self, state: dict) -> None:
        exp_avg = np.asarray(state["exp_avg"])
        exp_avg_sq = np.asarray(state["exp_avg_sq"])
        if exp_avg.shape != self._exp_avg_flat.shape or exp_avg_sq.shape != self._exp_avg_sq_flat.shape:
            raise ValueError(
                "optimizer state does not match this arena: "
                f"got moments of {exp_avg.shape}/{exp_avg_sq.shape}, "
                f"expected {self._exp_avg_flat.shape}"
            )
        self._step_count = int(state["step_count"])
        self.lr = float(state["lr"])
        self._exp_avg_flat[...] = exp_avg
        self._exp_avg_sq_flat[...] = exp_avg_sq

    # -- optimisation ----------------------------------------------------------------

    def zero_grad(self) -> None:
        """Zero every replica's gradients, one buffer-wide write each.

        Not needed between iterations: the pipeline run overwrites them.
        """
        for arena in self.arenas:
            arena.zero_grad()

    def step(self, threads: int = 1) -> None:
        """Apply one Adam update to the whole trainable prefix in place, tile by tile.

        On ``threads`` threads the prefix is cut into that many contiguous
        spans, thread ``t`` updating span ``t`` with its own tile scratch;
        every op is elementwise, so the weights and moments are the same bits
        wherever the spans are cut.
        """
        self._step_count += 1
        size = self.arena.num_trainable_elements
        threads = max(1, min(threads, size))
        bounds = [size * index // threads for index in range(threads + 1)]
        while len(self._span_scratch) < threads:
            self._span_scratch.append((np.empty_like(self._scratch), np.empty_like(self._scratch)))
        fork_join(self._step_span, list(zip(bounds, bounds[1:])), name="adam-step")

    def _step_span(self, index: int, span: tuple[int, int]) -> None:
        """The update of the trainable elements ``span``, the ``index``-th span, with its scratch."""
        bias_correction1 = 1.0 - self.beta1**self._step_count
        bias_correction2 = 1.0 - self.beta2**self._step_count
        first, last = span
        all_data = self.arena.trainable_data[first:last]
        all_grad = self.arena.trainable_grad[first:last]
        all_exp_avg = self._exp_avg_flat[first:last]
        all_exp_avg_sq = self._exp_avg_sq_flat[first:last]
        scratch, scratch2 = self._span_scratch[index]
        tile = scratch.size
        for start in range(0, all_data.size, tile):
            part = slice(start, start + tile)
            data = all_data[part]
            grad = all_grad[part]
            exp_avg = all_exp_avg[part]
            exp_avg_sq = all_exp_avg_sq[part]
            tmp = scratch[: data.size]
            tmp2 = scratch2[: data.size]

            if self.weight_decay and not self.decoupled_weight_decay:
                np.multiply(data, self.weight_decay, out=tmp)
                tmp += grad  # grad + wd * data (addition commutes bitwise)
                grad = tmp

            exp_avg *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=tmp2)
            exp_avg += tmp2
            exp_avg_sq *= self.beta2
            np.multiply(grad, 1.0 - self.beta2, out=tmp2)
            tmp2 *= grad
            exp_avg_sq += tmp2

            np.divide(exp_avg_sq, bias_correction2, out=tmp)  # grad scratch is free now
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            np.divide(exp_avg, bias_correction1, out=tmp2)
            tmp2 *= self.lr
            tmp2 /= tmp
            if self.weight_decay and self.decoupled_weight_decay:
                np.multiply(data, self.lr * self.weight_decay, out=tmp)
                data -= tmp
            data -= tmp2

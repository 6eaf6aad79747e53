"""The per-iteration recovery point: one capture, two ways back.

Everything a training iteration can mutate lives in exactly three places, and
this is the one list of them:

========================  ==========================================  =========================
source                    what it holds                               detached by / restored by
========================  ==========================================  =========================
``engine.arenas``         the DP group's one flat weight buffer       ``snapshot`` / ``restore``
                          (captured by the first arena only); each    of every arena
                          replica's gradients are not captured: the
                          iteration's pipeline run overwrites them,
                          and ``restore`` zero-fills them
``optimizers`` (one)      Adam moments, step count, current LR —      ``state_dict`` / ``load_state_dict``
                          one pair per DP group
``engine`` (the rest)     DP error-feedback residuals and slabs,      ``mutable_state`` /
                          PowerSGD warm starts, RNG call counts,      ``load_mutable_state``
                          per-replica compressed-backprop hook state
                          — held by the parent's hooks only, also
                          under the process executor
========================  ==========================================  =========================

:class:`RecoveryPoint` copies all three into buffers it allocates on the first
capture and refills (``np.copyto``) on every later one.  The engine captures
once, at the top of ``run_iteration``; the guarded trainer's rollback
(:meth:`RecoveryPoint.restore`) and the worker supervisor's rewind
(:meth:`RecoveryPoint.restore_arenas`: a failed iteration never wrote the
parent's hooks) both go back to that one capture.  The checkpoint writer
(:mod:`repro.training.checkpoint`) writes the same three sources, read through
their live forms (``arenas[0].data``, ``FusedAdam.live_state``,
``engine.live_mutable_state``) — so rollback, rewind and checkpoint cannot
drift apart.
"""

from __future__ import annotations

from itertools import chain, repeat


def _with_previous(live, previous):
    """Pair each live object with the buffer set its last capture filled (or ``None``)."""
    return zip(live, chain(previous, repeat(None)))


class RecoveryPoint:
    """Reusable capture of every mutable training buffer of one engine.

    ``optimizers`` is the trainer's list (of the group's one optimiser); an
    engine driven without a trainer passes none and gets the arena +
    engine-state capture its supervisor rewinds to.  Weights and moments are
    copied once per capture; gradients are not copied at all.
    Capturing only reads live state, which is what keeps fault-free guarded
    runs bit-identical to unguarded ones.
    """

    def __init__(self, engine, optimizers=()) -> None:
        self.engine = engine
        self.optimizers = optimizers
        self.arenas: list[dict] = []
        self.optimizer_states: list[dict] = []
        self.engine_state: dict | None = None

    def capture(self) -> None:
        """Copy the current state into the recovery buffers (allocated on first use)."""
        self.arenas = [
            arena.snapshot(out=previous)
            for arena, previous in _with_previous(self.engine.arenas, self.arenas)
        ]
        self.optimizer_states = [
            optimizer.state_dict(out=previous)
            for optimizer, previous in _with_previous(self.optimizers, self.optimizer_states)
        ]
        self.engine_state = self.engine.mutable_state(out=self.engine_state)

    def restore_arenas(self) -> None:
        """Write the captured weights back, bit-for-bit, and zero every replica's gradients."""
        for arena, snapshot in zip(self.engine.arenas, self.arenas, strict=True):
            arena.restore(snapshot)

    def restore(self) -> None:
        """Put every captured buffer back (the capture itself stays valid)."""
        self.restore_arenas()
        for optimizer, state in zip(self.optimizers, self.optimizer_states, strict=True):
            optimizer.load_state_dict(state)
        self.engine.load_mutable_state(self.engine_state)

"""The per-iteration recovery point of the guarded loop.

Everything a training iteration can mutate lives in exactly three places, and
this is the one list of them:

========================  ==========================================  ==========================
source                    what it holds                               captured as / restored by
========================  ==========================================  ==========================
``engine.arenas``         the DP group's one flat weight buffer and   nothing / every replica's
                          each replica's gradients                    gradients zero-filled
``optimizer``             Adam moments, step count, current LR —      the step count / checked
                          one set per DP group                        unchanged, else raise
``engine`` (the rest)     DP error-feedback residuals and slabs,      ``mutable_state`` /
                          PowerSGD warm starts, RNG call counts,      ``load_mutable_state``
                          per-replica compressed-backprop hook state
                          — held by the parent's hooks only, also
                          under the process executor
========================  ==========================================  ==========================

Only the third is copied: the DP reduce changes it before the guard runs.
The weights and moments need no copy: the optimiser step is their only writer
and the rollback (:meth:`RecoveryPoint.restore`) runs before it, which the
captured step count proves (a restore after a step raises).  Gradients need
no copy either, as the next pipeline run overwrites them; a restore
zero-fills them.  The worker supervisor's rewind runs before the parent's
hooks or the DP reduce are written, so it captures nothing and only
zero-fills the gradients.

The engine captures once per ``run_iteration``, into buffers allocated on
first use and refilled (``np.copyto``) after.  The checkpoint writer
(:mod:`repro.training.checkpoint`) writes the same three sources through
their live forms (``arenas[0].data``, ``FusedAdam.live_state``,
``engine.live_mutable_state``), so rollback and checkpoint cannot drift apart.
"""

from __future__ import annotations

from repro.utils.state import tree_arrays


class RecoveryPoint:
    """Reusable capture of what one engine's iteration changes before its step.

    ``optimizer`` is the trainer's (the DP group's one optimiser), whose step
    count the capture records.  Capturing only reads live state, which is
    what keeps fault-free guarded runs bit-identical to unguarded ones.
    """

    def __init__(self, engine, optimizer) -> None:
        self.engine = engine
        self.optimizer = optimizer
        self.step_count: int | None = None
        self.engine_state: dict | None = None

    def capture(self) -> None:
        """Copy the engine state into the recovery buffers (allocated on first use)."""
        self.step_count = self.optimizer.live_state()["step_count"]
        self.engine_state = self.engine.mutable_state(out=self.engine_state)

    def nbytes(self) -> int:
        """Bytes of the arrays the last capture holds."""
        return sum(array.nbytes for array in tree_arrays(self.engine_state))

    def restore(self) -> None:
        """Go back to the capture (which stays valid); raises if the optimiser stepped since."""
        steps = self.optimizer.live_state()["step_count"]
        if steps != self.step_count:
            raise RuntimeError(
                f"cannot restore the recovery point captured at optimizer step "
                f"{self.step_count}: the optimizer is at step {steps}, "
                "and the weights and moments it wrote since are not captured"
            )
        for arena in self.engine.arenas:
            arena.zero_grad()
        self.engine.load_mutable_state(self.engine_state)

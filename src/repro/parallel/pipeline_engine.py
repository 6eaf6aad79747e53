"""Functional pipeline-parallel training engine.

The engine runs one pipeline (one data-parallel replica) over a mini-batch split
into micro-batches, producing exactly the gradients the single-device reference
model would produce when no compression is enabled.  All inter-stage traffic flows
through an :class:`InterStageChannel`, whose backward path exposes the hook that the
paper's compressed backpropagation plugs into.

Execution order
---------------
Within a single iteration no weights change, so the numerical result depends only on
(1) which micro-batches are processed and (2) the per-boundary *order* of backward
communications (which matters when lazy error propagation carries residuals from one
micro-batch to the next).  Both are identical between a real 1F1B execution and the
simpler "all forwards in micro-batch order, then all backwards in micro-batch order"
loop used here, so the functional engine uses the simpler loop; the 1F1B timing
behaviour is modelled separately by :mod:`repro.simulator`.

The split-backward schedules (``schedule_kind="zb1"`` and the synthesized
``"auto"``) *do* change the execution structure — each backward is split into
an activation-gradient pass
(:meth:`~repro.nn.gpt_stage.GPTStage.backward_input`) and a deferred
weight-gradient pass (:meth:`~repro.nn.gpt_stage.GPTStage.backward_weight`) —
so the engine executes the actual per-stage op lists (the handcrafted ZB-H1
order for ``"zb1"``, the synthesizer's output for ``"auto"``) in the order
:func:`~repro.parallel.pipeline_schedule.replay_ops` visits them.  That walk is
the one the synthesizer's evaluator and the timing simulator fold over, and
its order depends only on which producers have run, never on op times, so
the order the engine executes is the order they time.  Because every valid op
list still presents each boundary's backward transfers in ascending
micro-batch order and runs each stage's W passes in ascending micro-batch
order, the weights remain bit-for-bit identical to the 1F1B loop regardless of
which valid schedule is replayed (asserted by the parity tests).

Interleaved lists (``num_model_chunks > 1``) are not executed here:
:class:`~repro.parallel.engine.ThreeDParallelEngine` refuses them at
``pp > 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.nn.gpt_stage import GPTStage, StageCache
from repro.parallel.collectives import (
    WIRE_BYTES_PER_ELEMENT,
    CommunicationLog,
    TrafficRecord,
)
from repro.parallel.pipeline_schedule import (
    OP_KINDS,
    PipelineOp,
    build_zb1_schedule,
    replay_ops,
)
from repro.plan import SPLIT_BACKWARD_KINDS, validate_schedule_kind

#: Hook applied to every backward inter-stage transfer.
#:
#: ``hook(grad, boundary, micro_batch, num_micro_batches) -> (delivered, payload_bytes, compressed)``
#: where ``boundary`` is the index of the *receiving* stage (the gradient flows from
#: stage ``boundary + 1`` to stage ``boundary``).
BackwardCommHook = Callable[
    [np.ndarray, int, int, int], tuple[np.ndarray, int, bool]
]

#: Hook applied to every forward inter-stage transfer (same signature).
ForwardCommHook = Callable[
    [np.ndarray, int, int, int], tuple[np.ndarray, int, bool]
]

@dataclass
class IterationResult:
    """Outcome of one pipeline iteration (before the optimiser step)."""

    mean_loss: float
    num_micro_batches: int
    forward_bytes: int
    backward_bytes: int


class InterStageChannel:
    """Carries activations (forward) and activation gradients (backward) between stages."""

    def __init__(
        self,
        log: CommunicationLog | None = None,
        backward_hook: BackwardCommHook | None = None,
        forward_hook: ForwardCommHook | None = None,
    ) -> None:
        self.log = log if log is not None else CommunicationLog()
        self.backward_hook = backward_hook
        self.forward_hook = forward_hook

    def send_forward(
        self, activation: np.ndarray, boundary: int, micro_batch: int, num_micro_batches: int
    ) -> np.ndarray:
        """Transfer an activation from stage ``boundary`` to stage ``boundary + 1``."""
        delivered = activation
        payload_bytes = int(activation.size * WIRE_BYTES_PER_ELEMENT)
        compressed = False
        if self.forward_hook is not None:
            delivered, payload_bytes, compressed = self.forward_hook(
                activation, boundary, micro_batch, num_micro_batches
            )
        self.log.add(
            TrafficRecord(
                operation="p2p",
                category="inter_stage_forward",
                payload_bytes=payload_bytes,
                wire_bytes=float(payload_bytes),
                ranks=(boundary, boundary + 1),
                compressed=compressed,
                description=f"fwd activation mb={micro_batch}",
            )
        )
        return delivered

    def send_backward(
        self, gradient: np.ndarray, boundary: int, micro_batch: int, num_micro_batches: int
    ) -> np.ndarray:
        """Transfer an activation gradient from stage ``boundary + 1`` to stage ``boundary``."""
        delivered = gradient
        payload_bytes = int(gradient.size * WIRE_BYTES_PER_ELEMENT)
        compressed = False
        if self.backward_hook is not None:
            delivered, payload_bytes, compressed = self.backward_hook(
                gradient, boundary, micro_batch, num_micro_batches
            )
        self.log.add(
            TrafficRecord(
                operation="p2p",
                category="inter_stage_backward",
                payload_bytes=payload_bytes,
                wire_bytes=float(payload_bytes),
                ranks=(boundary + 1, boundary),
                compressed=compressed,
                description=f"bwd gradient mb={micro_batch}",
            )
        )
        return delivered


class PipelineParallelEngine:
    """Runs forward/backward over a list of :class:`GPTStage` objects.

    Parameters
    ----------
    stages:
        The pipeline stages in order (stage 0 first).
    channel:
        The inter-stage channel (owns the compression hooks and the traffic log).
    schedule_kind:
        ``"1f1b"``/``"serial"`` run the phase-ordered loop; ``"zb1"`` replays the
        ZB-H1 split-backward op lists and ``"auto"`` the synthesized ones
        (bit-for-bit identical weights either way).
    memory_cap_factor:
        Activation-memory cap handed to the synthesizer when
        ``schedule_kind == "auto"`` (1.0 = ZB-H1's footprint; ignored otherwise).
    """

    def __init__(
        self,
        stages: Sequence[GPTStage],
        channel: InterStageChannel | None = None,
        schedule_kind: str = "1f1b",
        memory_cap_factor: float = 1.0,
    ) -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        if not stages[0].is_first or not stages[-1].is_last:
            raise ValueError("stages[0] must be the first stage and stages[-1] the last stage")
        validate_schedule_kind(schedule_kind, context="PipelineParallelEngine")
        if memory_cap_factor < 1.0:
            raise ValueError(f"memory_cap_factor must be >= 1.0, got {memory_cap_factor}")
        self.stages: list[GPTStage] = list(stages)
        self.channel = channel if channel is not None else InterStageChannel()
        self.schedule_kind = schedule_kind
        self.memory_cap_factor = memory_cap_factor

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def parameters(self):
        """All parameters of every stage (stable order: stage 0 first)."""
        params = []
        for stage in self.stages:
            params.extend(stage.parameters())
        return params

    def zero_grad(self) -> None:
        """Zero gradients on every stage."""
        for stage in self.stages:
            stage.zero_grad()

    # -- training -----------------------------------------------------------------

    def run_iteration(
        self, micro_batches: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> IterationResult:
        """Run forward+backward for one mini-batch split into micro-batches.

        ``micro_batches`` is a list of ``(token_ids, targets)`` pairs.  Gradients are
        accumulated into the stage parameters (already averaged over the whole
        mini-batch via the ``1/num_micro_batches`` loss scale).
        """
        num_micro_batches = len(micro_batches)
        if num_micro_batches == 0:
            raise ValueError("run_iteration requires at least one micro-batch")
        if self.schedule_kind in SPLIT_BACKWARD_KINDS:
            return self._run_iteration_split(micro_batches, self._build_split_schedule(num_micro_batches))
        loss_scale = 1.0 / num_micro_batches
        record_mark = len(self.channel.log.records)

        # Per-stage, per-micro-batch caches; index [stage][micro_batch].
        caches: list[list[StageCache | None]] = [
            [None] * num_micro_batches for _ in range(self.num_stages)
        ]
        losses: list[float] = []

        # Forward phase (micro-batch order).
        for micro_batch, (tokens, targets) in enumerate(micro_batches):
            activation: np.ndarray = np.asarray(tokens)
            for stage_index, stage in enumerate(self.stages):
                if stage.is_last:
                    loss, cache = stage.forward(activation, targets=targets)
                    losses.append(float(loss))
                else:
                    activation, cache = stage.forward(activation)
                    activation = self.channel.send_forward(
                        activation, stage_index, micro_batch, num_micro_batches
                    )
                caches[stage_index][micro_batch] = cache

        # Backward phase (micro-batch order, stages in reverse).
        for micro_batch in range(num_micro_batches):
            grad: np.ndarray | None = None
            for stage_index in range(self.num_stages - 1, -1, -1):
                stage = self.stages[stage_index]
                cache = caches[stage_index][micro_batch]
                if stage.is_last:
                    grad = stage.backward(None, cache, loss_scale=loss_scale)
                else:
                    grad = stage.backward(grad, cache)
                caches[stage_index][micro_batch] = None  # release activation memory
                if stage_index > 0 and grad is not None:
                    grad = self.channel.send_backward(
                        grad, stage_index - 1, micro_batch, num_micro_batches
                    )

        return self._iteration_result(losses, record_mark)

    def _build_split_schedule(self, num_micro_batches: int) -> list[list[PipelineOp]]:
        """Per-stage split-backward op lists for the engine's schedule kind.

        ``"zb1"`` is the handcrafted ZB-H1 order; ``"auto"`` runs the
        synthesizer with the analytic unit-cost split (F=1, B=2, W=1 — the
        recompute-free transformer ratio) and the engine's memory cap.  The
        functional engine is timing-free, so any dependency-valid list yields
        identical weights; the costs only shape which valid list is chosen.
        """
        if self.schedule_kind == "auto":
            from repro.parallel.scheduler import StageCosts, SynthesisSpec, synthesize_schedule

            spec = SynthesisSpec(
                num_stages=self.num_stages,
                num_micro_batches=num_micro_batches,
                costs=tuple(StageCosts(1.0, 2.0, 1.0) for _ in range(self.num_stages)),
                memory_cap_factor=self.memory_cap_factor,
            )
            return synthesize_schedule(spec).stage_ops()
        return build_zb1_schedule(self.num_stages, num_micro_batches)

    def _run_iteration_split(
        self,
        micro_batches: Sequence[tuple[np.ndarray, np.ndarray]],
        schedule: list[list[PipelineOp]],
    ) -> IterationResult:
        """Execute split-backward (B/W) op lists in the order the one walk visits them.

        :func:`~repro.parallel.pipeline_schedule.replay_ops` — the walk the
        synthesizer's evaluator and the timing simulator fold over — yields
        each op once its input has been produced; the engine runs the ops in
        that order and ignores the times.  Any valid list (zb1 or
        synthesized) leaves the weights bit-for-bit the phase-ordered loop's
        (see the module docstring).
        """
        num_micro_batches = len(micro_batches)
        num_stages = self.num_stages
        loss_scale = 1.0 / num_micro_batches
        record_mark = len(self.channel.log.records)

        caches: list[list[StageCache | None]] = [
            [None] * num_micro_batches for _ in range(num_stages)
        ]
        # losses[mb] — filled by the last stage's forward ops (ascending mb).
        losses: list[float | None] = [None] * num_micro_batches
        activations: dict[tuple[int, int], np.ndarray] = {
            (0, mb): np.asarray(tokens) for mb, (tokens, _) in enumerate(micro_batches)
        }
        gradients: dict[tuple[int, int], np.ndarray | None] = {
            (num_stages - 1, mb): None for mb in range(num_micro_batches)
        }

        untimed = dict.fromkeys(OP_KINDS, (0.0,) * num_stages)
        for stage_index, op, _, _ in replay_ops(schedule, untimed, lambda op, consumer: 0.0):
            stage = self.stages[stage_index]
            micro_batch = op.micro_batch
            if op.kind == "forward":
                activation = activations.pop((stage_index, micro_batch))
                if stage.is_last:
                    loss, cache = stage.forward(activation, targets=micro_batches[micro_batch][1])
                    losses[micro_batch] = float(loss)
                else:
                    activation, cache = stage.forward(activation)
                    activations[(stage_index + 1, micro_batch)] = self.channel.send_forward(
                        activation, stage_index, micro_batch, num_micro_batches
                    )
                caches[stage_index][micro_batch] = cache
            elif op.kind == "backward_input":
                grad = gradients.pop((stage_index, micro_batch))
                cache = caches[stage_index][micro_batch]
                if stage.is_last:
                    grad = stage.backward_input(None, cache, loss_scale=loss_scale)
                else:
                    grad = stage.backward_input(grad, cache)
                if stage_index > 0 and grad is not None:
                    gradients[(stage_index - 1, micro_batch)] = self.channel.send_backward(
                        grad, stage_index - 1, micro_batch, num_micro_batches
                    )
            else:  # backward_weight
                stage.backward_weight(caches[stage_index][micro_batch])
                caches[stage_index][micro_batch] = None  # release activations

        return self._iteration_result(losses, record_mark)

    def _iteration_result(self, losses: Sequence[float], record_mark: int) -> IterationResult:
        """Mean loss plus the inter-stage bytes of the records logged since ``record_mark``.

        Only this iteration's slice of the (run-long, possibly shared) log is
        scanned, so the cost of an iteration does not grow with the run.
        """
        iteration_log = CommunicationLog(records=self.channel.log.records[record_mark:])
        return IterationResult(
            mean_loss=float(np.mean(losses)),
            num_micro_batches=len(losses),
            forward_bytes=int(iteration_log.total_wire_bytes("inter_stage_forward")),
            backward_bytes=int(iteration_log.total_wire_bytes("inter_stage_backward")),
        )

    # -- inference ------------------------------------------------------------------

    def evaluate_loss(self, token_ids: np.ndarray, targets: np.ndarray) -> float:
        """Compute the loss of a batch without touching gradients."""
        for stage in self.stages:
            stage.eval()
        activation: np.ndarray = np.asarray(token_ids)
        try:
            for stage in self.stages:
                if stage.is_last:
                    loss, _ = stage.forward(activation, targets=targets)
                    return float(loss)
                activation, _ = stage.forward(activation)
        finally:
            for stage in self.stages:
                stage.train()
        raise RuntimeError("pipeline had no last stage")  # pragma: no cover - guarded in __init__

    def forward_logits(self, token_ids: np.ndarray) -> np.ndarray:
        """Full inference pass returning logits (used by zero-shot evaluation)."""
        activation: np.ndarray = np.asarray(token_ids)
        for stage in self.stages:
            activation = stage.forward_only(activation)
        return activation

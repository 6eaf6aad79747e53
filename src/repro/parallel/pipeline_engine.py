"""Functional pipeline-parallel training engine.

The engine runs one pipeline (one data-parallel replica) over a mini-batch split
into micro-batches, producing exactly the gradients the single-device reference
model would produce when no compression is enabled.  All inter-stage traffic flows
through an :class:`InterStageChannel`, whose backward path exposes the hook that the
paper's compressed backpropagation plugs into.

Execution order
---------------
Every schedule kind runs one executor.  :meth:`PipelineParallelEngine.run_iteration`
builds the kind's per-stage op lists (:func:`~repro.parallel.scheduler.schedule_ops`:
1F1B for ``"1f1b"``/``"serial"``, the handcrafted ZB-H1 for ``"zb1"``, the
synthesizer's output for ``"auto"``) and executes them in the order
:func:`~repro.parallel.pipeline_schedule.replay_ops` visits them.  That walk is
the one the synthesizer's evaluator and the timing simulator fold over, and its
order depends only on which producers have run, never on op times, so the order
the engine executes is the order they time.  A fused ``"backward"`` op is
:meth:`~repro.nn.gpt_stage.GPTStage.backward`; the split-backward kinds run its
two halves as separate ops, an activation-gradient pass
(:meth:`~repro.nn.gpt_stage.GPTStage.backward_input`, B) and a deferred
weight-gradient pass (:meth:`~repro.nn.gpt_stage.GPTStage.backward_weight`, W).
A stage therefore holds exactly the forward activations its op list has in
flight — ``min(pp - stage, mb)`` under 1F1B, not every micro-batch's.

Within one iteration no weights change, so the numerical result depends on two
orders only, and every valid op list keeps both ascending in micro-batch: each
boundary's backward transfers (lazy error propagation carries a residual from
one micro-batch's transfer to the next across that boundary) and each stage's
gradient accumulation (floating-point sums are order-sensitive).  The weights
are therefore bit-for-bit identical whichever valid schedule is walked (the
parity tests hold every kind to a frozen phase-ordered loop).

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
from repro.parallel.pipeline_schedule import OP_KINDS, replay_ops
from repro.parallel.scheduler import StageCosts, SynthesisSpec, schedule_ops
from repro.plan import validate_memory_cap_factor, validate_schedule_kind
from repro.tensor.parameter import gradient_epoch

#: Hook applied to every backward inter-stage transfer.
#:
#: ``hook(grad, boundary, micro_batch, num_micro_batches) -> (delivered, payload_bytes, compressed)``
#: where ``boundary`` is the index of the *receiving* stage (the gradient flows from
#: stage ``boundary + 1`` to stage ``boundary``).
BackwardCommHook = Callable[
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
    """Carries activations (forward) and activation gradients (backward) between stages.

    Only the backward direction has a compression hook: activations always
    travel uncompressed.
    """

    def __init__(
        self,
        log: CommunicationLog | None = None,
        backward_hook: BackwardCommHook | None = None,
    ) -> None:
        self.log = log if log is not None else CommunicationLog()
        self.backward_hook = backward_hook

    def send_forward(self, activation: np.ndarray, boundary: int, micro_batch: int) -> np.ndarray:
        """Transfer an activation from stage ``boundary`` to stage ``boundary + 1``."""
        payload_bytes = int(activation.size * WIRE_BYTES_PER_ELEMENT)
        self.log.add(
            TrafficRecord(
                operation="p2p",
                category="inter_stage_forward",
                payload_bytes=payload_bytes,
                wire_bytes=float(payload_bytes),
                ranks=(boundary, boundary + 1),
                compressed=False,
                description=f"fwd activation mb={micro_batch}",
            )
        )
        return activation

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
        Which op lists every iteration walks: the 1F1B lists for
        ``"1f1b"``/``"serial"`` (the two differ only in DP firing, which is not
        this engine's concern), the ZB-H1 split-backward lists for ``"zb1"``
        and the synthesized ones for ``"auto"`` (bit-for-bit identical weights
        whichever).  Read at every iteration, so it may be reassigned.
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
        validate_memory_cap_factor(memory_cap_factor)
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

        ``micro_batches`` is a list of ``(token_ids, targets)`` pairs.  This run
        is the one producer of the stage parameters' gradients: it opens a
        :func:`~repro.tensor.parameter.gradient_epoch` over them, so each
        parameter's first write assigns into its buffer, later micro-batches
        add, and a parameter no op wrote is zero-filled at the end.  The
        buffers then hold exactly this mini-batch's gradient (averaged via the
        ``1/num_micro_batches`` loss scale) whatever they held before, so
        callers never clear them first.  The ops of this
        iteration's schedule run in the order
        :func:`~repro.parallel.pipeline_schedule.replay_ops` yields them; the
        times it yields are ignored.
        """
        num_micro_batches = len(micro_batches)
        if num_micro_batches == 0:
            raise ValueError("run_iteration requires at least one micro-batch")
        num_stages = self.num_stages
        # "auto" runs the synthesizer with the analytic unit-cost split (F=1,
        # B=2, W=1 — the recompute-free transformer ratio) and the engine's
        # memory cap.  The engine is timing-free, so any dependency-valid list
        # yields identical weights; the costs only shape which one is chosen.
        schedule = schedule_ops(
            self.schedule_kind,
            num_stages,
            num_micro_batches,
            lambda: SynthesisSpec(
                num_stages=num_stages,
                num_micro_batches=num_micro_batches,
                costs=(StageCosts(1.0, 2.0, 1.0),) * num_stages,
                memory_cap_factor=self.memory_cap_factor,
            ),
        )
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
        # The last stage seeds its backward from the loss (loss_scale applies there only).
        gradients: dict[tuple[int, int], np.ndarray | None] = {
            (num_stages - 1, mb): None for mb in range(num_micro_batches)
        }

        untimed = dict.fromkeys(OP_KINDS, (0.0,) * num_stages)
        walk = replay_ops(schedule, untimed, lambda op, consumer: 0.0)
        with gradient_epoch(self.parameters()):
            for stage_index, op, _, _ in walk:
                stage = self.stages[stage_index]
                micro_batch = op.micro_batch
                if op.kind == "forward":
                    activation = activations.pop((stage_index, micro_batch))
                    if stage.is_last:
                        targets = micro_batches[micro_batch][1]
                        loss, cache = stage.forward(activation, targets=targets)
                        losses[micro_batch] = float(loss)
                    else:
                        activation, cache = stage.forward(activation)
                        activations[(stage_index + 1, micro_batch)] = self.channel.send_forward(
                            activation, stage_index, micro_batch
                        )
                    caches[stage_index][micro_batch] = cache
                elif op.kind == "backward_weight":
                    stage.backward_weight(caches[stage_index][micro_batch])
                    caches[stage_index][micro_batch] = None  # release activations
                else:  # "backward" (fused B + W) or "backward_input" (B)
                    backward = stage.backward if op.kind == "backward" else stage.backward_input
                    grad = backward(
                        gradients.pop((stage_index, micro_batch)),
                        caches[stage_index][micro_batch],
                        loss_scale=loss_scale,
                    )
                    if op.kind == "backward":
                        caches[stage_index][micro_batch] = None  # release activations
                    if stage_index > 0 and grad is not None:
                        gradients[(stage_index - 1, micro_batch)] = self.channel.send_backward(
                            grad, stage_index - 1, micro_batch, num_micro_batches
                        )

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

"""The phase-ordered pipeline loop, frozen as the oracle of the op-list walk.

The functional engine runs one executor: every schedule kind's per-stage op
lists walked by ``replay_ops`` (1F1B lists for ``1f1b``/``serial``, ZB-H1 for
``zb1``, the synthesizer's for ``auto``).  It replaced a second loop that ran
``1f1b``/``serial`` GPipe-style — every micro-batch's forward through every
stage, then every backward in micro-batch order with the stages reversed — and
held all micro-batches' activations live at once.  That loop is kept here,
frozen, so the walk stays held to it bit for bit: gradients, loss and
inter-stage traffic (the channel's log).

What is frozen is the visit order.  The stage kernels, the channel and its
hooks are the production ones.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.gpt_stage import StageCache
from repro.parallel.pipeline_engine import IterationResult, PipelineParallelEngine


def run_phase_loop(
    engine: PipelineParallelEngine, micro_batches: Sequence[tuple[np.ndarray, np.ndarray]]
) -> IterationResult:
    """One iteration of ``engine``'s stages and channel, all forwards then all backwards."""
    num_micro_batches = len(micro_batches)
    if num_micro_batches == 0:
        raise ValueError("run_phase_loop requires at least one micro-batch")
    stages = engine.stages
    channel = engine.channel
    loss_scale = 1.0 / num_micro_batches

    # Per-stage, per-micro-batch caches; index [stage][micro_batch].
    caches: list[list[StageCache | None]] = [[None] * num_micro_batches for _ in stages]
    losses: list[float] = []

    # Forward phase (micro-batch order).
    for micro_batch, (tokens, targets) in enumerate(micro_batches):
        activation: np.ndarray = np.asarray(tokens)
        for stage_index, stage in enumerate(stages):
            if stage.is_last:
                loss, cache = stage.forward(activation, targets=targets)
                losses.append(float(loss))
            else:
                activation, cache = stage.forward(activation)
                activation = channel.send_forward(activation, stage_index, micro_batch)
            caches[stage_index][micro_batch] = cache

    # Backward phase (micro-batch order, stages in reverse).
    for micro_batch in range(num_micro_batches):
        grad: np.ndarray | None = None
        for stage_index in range(len(stages) - 1, -1, -1):
            stage = stages[stage_index]
            cache = caches[stage_index][micro_batch]
            if stage.is_last:
                grad = stage.backward(None, cache, loss_scale=loss_scale)
            else:
                grad = stage.backward(grad, cache)
            caches[stage_index][micro_batch] = None
            if stage_index > 0 and grad is not None:
                grad = channel.send_backward(grad, stage_index - 1, micro_batch, num_micro_batches)

    return IterationResult(mean_loss=float(np.mean(losses)), num_micro_batches=len(losses))

"""Functional pretraining of a GPT model under simulated 3D parallelism.

The :class:`Pretrainer` is a thin training loop around the unified
:class:`repro.parallel.engine.ThreeDParallelEngine`, which owns the parallel
structure:

* ``data_parallel_degree`` replicas of a pipeline of :class:`repro.nn.gpt_stage.GPTStage`
  objects (identical initial weights, different data shards), each run by a
  :class:`repro.parallel.pipeline_engine.PipelineParallelEngine` whose backward
  channel carries the compressed-backpropagation hook when CB is enabled;
* the DP-boundary compressed all-reduce
  (:class:`repro.parallel.engine.CompressedGradientAllReduce`, PowerSGD by default
  when selective stage compression is on);
* an :class:`repro.core.fused_embedding.EmbeddingSynchronizer` (fused or baseline).

The trainer adds what a training loop needs on top: the DP group's **one**
optimiser (the replicas share one weight buffer, so one pair of Adam moments
steps it once per iteration from the synchronised gradient), the learning-rate
schedule, validation, and history recording.

Resilience (PR 7): when the plan carries a :class:`repro.plan.ResilienceSpec`
(``plan.with_resilience(...)``) the loop becomes *guarded*.  At the
top of each iteration the engine captures what the iteration changes before
its step (error-feedback residuals and warm starts, RNG call counts, hook
state, and the optimiser's step count) into one preallocated
:class:`repro.resilience.RecoveryPoint`; after the iteration a whole-buffer
``isfinite`` check over the flat gradient arenas (plus an optional global
grad-norm cap) decides whether to apply the update or roll the capture back
and skip the step.  Weights and moments need no copy: the rollback comes
before the step, their only writer.  Injected crashes surface as
:class:`repro.resilience.WorkerCrash`; permanent replica losses shrink the DP
group in place.  Fault-free guarded runs are bit-identical to unguarded runs —
the guards only *read* live state unless a violation fires.

Self-healing (PR 9): under ``executor="process"`` the crash/hang/replica-loss
faults route *into* the forked workers (real SIGKILL / wedge), and the
engine's :class:`repro.exec.WorkerSupervisor` respawns and replays them
bit-exactly.  The trainer only sees the escalation ladder's end:
:class:`repro.resilience.RespawnExhausted` either shrinks the DP group
(``on_exhausted="degrade"``, replaying the iteration on the survivors) or
writes a final checkpoint and raises (``on_exhausted="checkpoint_abort"``).

This is the "functional layer" of the reproduction: the models are small enough to
train on a CPU, but the parallel structure, the compression algebra, and therefore
the *quality* effects are the real thing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.data.dataloader import LanguageModelingDataLoader
from repro.data.tasks import ZeroShotTask
from repro.nn.loss import perplexity_from_loss
from repro.nn.transformer import GPTModelConfig
from repro.optim import LRSchedule
from repro.parallel.arena import distinct_buffers
from repro.parallel.collectives import REDUCE_TILE, CommunicationLog
from repro.parallel.engine import EngineIterationResult, ThreeDParallelEngine, axis_report
from repro.plan import ParallelPlan
from repro.resilience import (
    GuardrailPolicy,
    RecoveryPoint,
    ResilienceExhausted,
    ResilienceReport,
    RespawnExhausted,
    WorkerCrash,
)
from repro.training.metrics import TrainingHistory


@dataclass
class PretrainingResult:
    """Outcome of a pretraining run."""

    history: TrainingHistory
    final_validation_perplexity: float
    communication_log: CommunicationLog
    cb_diagnostics: list = field(default_factory=list)
    zero_shot_accuracy: dict[str, float] = field(default_factory=dict)
    #: Resilience ledger of the run; ``None`` when the loop ran unguarded.
    resilience: ResilienceReport | None = None


class Pretrainer:
    """Trains a GPT model with simulated 3D parallelism and Optimus-CC compression.

    Parameters
    ----------
    model_config:
        Architecture of the (small) GPT model to train.
    loader:
        The micro-batch loader; its ``data_parallel_degree`` and
        ``num_micro_batches`` must match the plan's topology.
    plan:
        The declarative :class:`repro.plan.ParallelPlan`: pipeline depth, every
        boundary's compression, schedule, executor, and — when it carries a
        ``resilience`` section — the guarded loop and fault injector.
    learning_rate, weight_decay:
        Adam hyper-parameters.
    lr_schedule:
        Optional learning-rate schedule applied every iteration.
    seed:
        Weight-initialisation seed (shared by all replicas, as in real DDP).
    collect_cb_diagnostics:
        Record the Fig. 11 error-independence statistics.
    """

    def __init__(
        self,
        model_config: GPTModelConfig,
        loader: LanguageModelingDataLoader,
        plan: ParallelPlan,
        *,
        learning_rate: float = 1e-3,
        weight_decay: float = 0.0,
        lr_schedule: LRSchedule | None = None,
        seed: int = 0,
        collect_cb_diagnostics: bool = False,
    ) -> None:
        if loader.data_parallel_degree != plan.topology.dp:
            raise ValueError(
                f"loader data_parallel_degree {loader.data_parallel_degree} does not "
                f"match plan topology dp={plan.topology.dp}"
            )
        if loader.num_micro_batches != plan.topology.micro_batches:
            raise ValueError(
                f"loader num_micro_batches {loader.num_micro_batches} does not "
                f"match plan topology micro_batches={plan.topology.micro_batches}"
            )
        self.plan = plan
        self.model_config = model_config
        self.loader = loader
        self.num_stages = plan.topology.pp
        self.lr_schedule = lr_schedule
        self.seed = int(seed)
        self.data_parallel_degree = loader.data_parallel_degree
        self.executor_kind = plan.executor

        self.engine = ThreeDParallelEngine(
            model_config,
            plan,
            seed=self.seed,
            collect_cb_diagnostics=collect_cb_diagnostics,
        )

        # One fused optimiser for the whole DP group: the Adam update is a
        # handful of whole-buffer ops over the replicas' shared weights.
        self.optimizer = self.engine.build_optimizer(lr=learning_rate, weight_decay=weight_decay)
        self.history = TrainingHistory()
        self.last_iteration_result: EngineIterationResult | None = None
        self._iteration = 0

        # Resilience wiring: the engine armed the fault injector, guardrail
        # budgets and worker supervision from the plan's section; the guarded
        # loop adds the recovery point its rollback restores (the engine
        # captures it once per iteration).
        self.guardrails: GuardrailPolicy | None = None
        if plan.resilience is not None:
            self.guardrails = self.engine.guardrails
            self.engine.recovery_point = RecoveryPoint(self.engine, self.optimizer)
        self.resilience_report = self.engine.resilience
        self._consecutive_skips = 0
        #: Checkpoint-abort escalation target; :meth:`train` keeps it current.
        self._checkpoint_dir = None
        self._keep_last = 3
        #: Original loader shard index of each surviving replica (graceful
        #: degradation drops entries; the loader keeps producing all shards).
        self._replica_ids = list(range(self.data_parallel_degree))

    # ---------------------------------------------------------------- training loop --

    def train_iteration(self) -> float:
        """Run one full training iteration; returns the mean training loss.

        Guarded mode (a resilience spec is armed) additionally: raises
        :class:`WorkerCrash` on a scheduled crash, degrades the DP group on a
        scheduled replica loss, and discards poisoned updates by rolling back
        the pre-iteration recovery point (the skipped iteration still advances the
        counter, but records no training loss and applies no optimiser step).
        """
        iteration = self._iteration
        injector = self.engine.fault_injector
        policy = self.guardrails
        if injector is not None and self.executor_kind != "process":
            # Serial executor: there is no worker to kill, so crash/replica_loss
            # fire parent-side — a crash is fatal (restart with --resume), a
            # replica loss shrinks the DP group up front.  Under the process
            # executor these same specs route into the forked workers (real
            # SIGKILL) and come back through the supervisor's escalation below.
            if injector.crash_due(iteration) is not None:
                self.resilience_report.record_fault("crash")
                raise WorkerCrash(iteration)
            loss_spec = injector.replica_loss_due(iteration)
            if loss_spec is not None:
                self._degrade(loss_spec.replica, iteration)

        if self.lr_schedule is not None:
            self.lr_schedule.apply(self.optimizer, iteration)

        while True:
            # Nothing to clear first: the pipeline run writes every gradient afresh.
            batches = self.loader.iteration_batches(iteration)
            if len(self._replica_ids) != self.loader.data_parallel_degree:
                batches = [batches[index] for index in self._replica_ids]
            try:
                result = self.engine.run_iteration(batches)
                break
            except RespawnExhausted as exhausted:
                # The supervisor already rewound to the pre-iteration state;
                # degrade shrinks the DP group and replays on the survivors.
                self._escalate(exhausted, iteration)
        self.last_iteration_result = result

        validate_started = perf_counter()
        healthy = policy is None or self._gradients_healthy(policy)
        result.validate_s = perf_counter() - validate_started
        if not healthy:
            self.engine.recovery_point.restore()  # engine state back, gradients zeroed
            self.resilience_report.skipped_steps += 1
            self.resilience_report.rollbacks += 1
            self._consecutive_skips += 1
            if self._consecutive_skips > policy.max_consecutive_skips:
                raise ResilienceExhausted(
                    f"{self._consecutive_skips} consecutive skipped steps "
                    f"(budget {policy.max_consecutive_skips}) — gradients keep failing validation"
                )
            self._iteration += 1
            return result.mean_loss
        self._consecutive_skips = 0

        # On the threads the iteration's walk and DP sync ran on.
        step_started = perf_counter()
        self.optimizer.step(result.threads)
        result.step_s = perf_counter() - step_started

        self.history.record_train(result.mean_loss)
        self._iteration += 1
        return result.mean_loss

    def train(
        self,
        num_iterations: int,
        validation_interval: int | None = None,
        validation_batches: int = 2,
        checkpoint_every: int | None = None,
        checkpoint_dir=None,
        keep_last: int = 3,
    ) -> PretrainingResult:
        """Run ``num_iterations`` iterations, validating every ``validation_interval``.

        ``checkpoint_every`` writes a rotating atomic checkpoint (format v8:
        stored members written straight from the live buffers, weights and
        moments once per DP group; last ``keep_last`` retained) into
        ``checkpoint_dir`` after every ``checkpoint_every``-th completed
        iteration.  The write is synchronous.
        """
        if num_iterations <= 0:
            raise ValueError("num_iterations must be positive")
        if checkpoint_every is not None:
            if checkpoint_every <= 0:
                raise ValueError("checkpoint_every must be positive")
            if checkpoint_dir is None:
                raise ValueError("checkpoint_every requires checkpoint_dir")
            # Lazy: the checkpoint module imports this one for type references.
            from repro.training.checkpoint import save_rotating_checkpoint
        if checkpoint_dir is not None:
            # Remembered so a checkpoint_abort escalation mid-run can write its
            # final checkpoint into the run's own rotation.
            self._checkpoint_dir = checkpoint_dir
            self._keep_last = keep_last
        interval = validation_interval if validation_interval is not None else max(1, num_iterations // 5)
        for _ in range(num_iterations):
            self.train_iteration()
            if checkpoint_every is not None and self._iteration % checkpoint_every == 0:
                save_rotating_checkpoint(self, checkpoint_dir, keep_last=keep_last)
            if self._iteration % interval == 0 or self._iteration == num_iterations:
                loss = self.validation_loss(num_batches=validation_batches)
                self.history.record_validation(self._iteration, loss)
        if not self.history.validation_points:
            self.history.record_validation(self._iteration, self.validation_loss(validation_batches))

        diagnostics = []
        hook = self.engine.cb_hooks[0]
        if hook is not None:
            diagnostics = list(hook.diagnostics)
        return PretrainingResult(
            history=self.history,
            final_validation_perplexity=self.history.final_validation_perplexity,
            communication_log=self.engine.log,
            cb_diagnostics=diagnostics,
            resilience=(
                self.resilience_report
                if (self.guardrails is not None or self.engine.fault_injector is not None)
                else None
            ),
        )

    # -------------------------------------------------------------------- guardrails --

    def _gradients_healthy(self, policy: GuardrailPolicy) -> bool:
        """Validation of the post-sync gradients (reads only).

        Finiteness is checked one tile at a time into one tile of flags, so no
        arena-sized bool array is allocated; the first non-finite tile decides.
        Replicas sharing a gradient buffer are one buffer to check.
        """
        if policy.skip_nonfinite:
            finite = np.empty(REDUCE_TILE, dtype=bool)
            for grad in distinct_buffers(arena.grad for arena in self.engine.arenas):
                for start in range(0, grad.size, REDUCE_TILE):
                    tile = grad[start : start + REDUCE_TILE]
                    if not np.isfinite(tile, out=finite[: tile.size]).all():
                        return False
        if policy.max_grad_norm is not None:
            # Replicas hold identical synchronised gradients; the first one
            # stands in for the global gradient.
            norm = float(np.linalg.norm(self.engine.arenas[0].trainable_grad))
            if not np.isfinite(norm) or norm > policy.max_grad_norm:
                return False
        return True

    def _escalate(self, exhausted: RespawnExhausted, iteration: int) -> None:
        """Resolve a :class:`RespawnExhausted` per its policy-chosen action.

        ``degrade`` drops the unrecoverable replica (the caller then replays
        the iteration on the survivors); ``checkpoint_abort`` writes a final
        checkpoint of the pre-iteration state (the supervisor already zeroed
        the gradients, and the weights and the parent's hooks never left it) and raises
        :class:`ResilienceExhausted`.
        """
        if exhausted.action == "checkpoint_abort":
            detail = "no checkpoint directory configured — final state not saved"
            if self._checkpoint_dir is not None:
                from repro.training.checkpoint import save_rotating_checkpoint

                path = save_rotating_checkpoint(
                    self, self._checkpoint_dir, keep_last=self._keep_last
                )
                detail = f"final checkpoint written to {path}"
            raise ResilienceExhausted(
                f"worker dp{exhausted.worker} is unrecoverable at iteration "
                f"{iteration} and on_exhausted='checkpoint_abort': {detail}"
            ) from exhausted
        # A budget-spent degrade is not an *injected* replica loss — only a
        # scheduled permanent loss lands in the injected-fault tally (the
        # worker-event ledger attributes the degrade either way).
        self._degrade(exhausted.replica, iteration, injected=exhausted.permanent)

    def _degrade(self, replica_index: int, iteration: int, injected: bool = True) -> None:
        """Permanently drop one replica: shrink the DP group and rescale."""
        if replica_index >= len(self._replica_ids):
            replica_index = len(self._replica_ids) - 1
        original = self._replica_ids[replica_index]
        self.engine.drop_replica(replica_index)
        del self._replica_ids[replica_index]
        self.data_parallel_degree = self.engine.data_parallel_degree
        if injected:
            self.resilience_report.record_fault("replica_loss")
        self.resilience_report.degraded.append(
            {
                "iteration": iteration,
                "replica": original,
                "data_parallel_degree": self.engine.data_parallel_degree,
            }
        )

    # ------------------------------------------------------------------- evaluation --

    # -------------------------------------------------------------------- lifecycle --

    def close(self) -> None:
        """Release the engine's process executor, if any (idempotent no-op otherwise)."""
        self.engine.close()

    def __enter__(self) -> "Pretrainer":
        return self

    def __exit__(self, exc_type, exc_value, exc_traceback) -> None:
        self.close()

    def validation_loss(self, num_batches: int = 2) -> float:
        """Mean validation loss of replica 0 over ``num_batches`` held-out batches."""
        losses = []
        for batch_index in range(num_batches):
            batch = self.loader.validation_batch(batch_index)
            losses.append(self.engine.evaluate_loss(batch.tokens, batch.targets))
        return float(np.mean(losses))

    def validation_perplexity(self, num_batches: int = 2) -> float:
        """Validation perplexity (the paper's model-quality metric)."""
        return perplexity_from_loss(self.validation_loss(num_batches))

    def evaluate_zero_shot(self, tasks: list[ZeroShotTask]) -> dict[str, float]:
        """Accuracy of the current model on each zero-shot task."""
        logits_fn = self.engine.forward_logits
        return {task.name: task.evaluate(logits_fn) for task in tasks}

    # ------------------------------------------------------------------ diagnostics --

    def weights_in_sync(self, tolerance: float = 1e-9) -> bool:
        """Whether all replicas (and both embedding copies) hold identical weights."""
        return self.engine.weights_in_sync(tolerance)

    @property
    def compression_summary(self) -> dict[str, float]:
        """Backward inter-stage compression over every replica's transfers so far.

        ``compressed_fraction`` of the transfers went compressed, saving
        ``bytes_saved_fraction`` of their uncompressed bytes (both 0.0 with CB
        off); read from the engine's log.
        """
        _, fractions, saved, _, _ = axis_report(self.engine.log.records)
        return {
            "compressed_fraction": fractions["pipeline_backward"],
            "bytes_saved_fraction": saved["pipeline_backward"],
        }

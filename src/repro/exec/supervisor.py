"""Self-healing supervision of the process executor's replica workers.

:class:`WorkerSupervisor` wraps :class:`~repro.exec.executor.ProcessExecutor`
with the recovery loop that turns worker failure from fatal into routine:

1. **Detection** — the executor's hang watchdog (``worker_timeout`` deadline
   in ``_receive``) surfaces a wedged worker as ``WorkerTimeout`` and a dead
   one as ``WorkerCrash``; ``run_collect`` drains every surviving worker
   first, so when the supervisor takes over nothing is still writing to the
   shared arenas.
2. **Recovery** — the engine captures the arenas (shared weights once,
   gradients per replica) into its :class:`~repro.resilience.RecoveryPoint`
   *before* each iteration (the same single capture the guarded trainer rolls
   back to — the supervisor takes none of its own).  The hook state needs no
   capture here: it lives in the parent's hooks between iterations, travels
   with each ``run`` message, and is written back only when the whole
   iteration succeeded, so after any failure the parent still holds the
   pre-iteration state.  On failure the supervisor kills the broken worker,
   re-forks it over the same :class:`~repro.exec.shm.SharedArenaSegment`
   objects (the parent's replica objects still alias the shared pages — the
   group's one weights segment and the replica's gradient segment — so the
   fresh fork inherits current weights for free, whichever worker died),
   verifies the new worker with a heartbeat ping, restores the arenas from
   the recovery point, and replays the iteration.  Replica forward/backward
   is deterministic in (weights, hook state, batches), so the recovered run
   is bit-identical to an undisturbed one — the same invariant style the
   serial/process parity suite asserts.  A worker that dies *between*
   iterations took nothing with it: the next ``run`` finds its broken pipe
   and heals it the same way.
3. **Escalation** — respawns are budgeted by
   :class:`~repro.resilience.SupervisionPolicy`.  A spent budget (or an
   injected permanent ``replica_loss``) raises
   :class:`~repro.resilience.RespawnExhausted` *after* restoring the
   pre-iteration state, so the trainer can degrade (elastic DP shrink through
   ``drop_replica`` and replay on the survivors) or checkpoint-and-abort —
   loudly, never silently.

Every incident is ledgered in the :class:`~repro.resilience.ResilienceReport`
with per-worker attribution (original shard id, iteration, cumulative respawn
count, action taken), and the ledger survives checkpoint round-trips.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.resilience import (
    RespawnExhausted,
    SupervisionPolicy,
    WorkerCrash,
    WorkerTimeout,
)

if TYPE_CHECKING:
    from repro.exec.executor import ProcessExecutor
    from repro.resilience import RecoveryPoint, ResilienceReport


class WorkerSupervisor:
    """Watchdog + respawn + escalation policy around one :class:`ProcessExecutor`."""

    def __init__(
        self,
        executor: "ProcessExecutor",
        policy: SupervisionPolicy | None = None,
        report: "ResilienceReport | None" = None,
    ) -> None:
        from repro.resilience import ResilienceReport

        self.executor = executor
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.report = report if report is not None else ResilienceReport()
        #: Cumulative respawns per original worker id (stable across drops).
        self.respawn_counts: dict[int, int] = {}
        self.total_respawns = 0

    # -- the supervised iteration ------------------------------------------------------

    def run(self, per_replica_micro_batches: Sequence[Sequence], iteration: int) -> list[float]:
        """One supervised iteration: run, and on worker failure recover + replay.

        The engine captured its recovery point just before calling this: any
        number of crash/hang failures within this iteration (or since the
        previous one ended) replays from it, so the returned losses — and the
        gradients left in the shared arenas — are bit-identical to an
        undisturbed run's.
        """
        point = self.executor.engine.recovery_point
        while True:
            losses, failures = self.executor.run_collect(per_replica_micro_batches, iteration)
            if not failures:
                return losses
            self._recover(failures, iteration, point)

    # -- recovery ----------------------------------------------------------------------

    def _recover(
        self,
        failures: dict[int, WorkerCrash],
        iteration: int,
        point: "RecoveryPoint",
    ) -> None:
        """Respawn every recoverable failed worker and rewind to the recovery point.

        Raises :class:`RespawnExhausted` (after the rewind) when any failure is
        permanent or over budget — the engine is left clean either way: arenas
        bit-equal to the pre-iteration capture, no worker mid-computation.
        """
        executor = self.executor
        injector = executor.engine.fault_injector
        policy = self.policy
        escalation: RespawnExhausted | None = None
        for replica_index in sorted(failures):
            crash = failures[replica_index]
            worker_id = executor.worker_ids[replica_index]
            kind = "hang" if isinstance(crash, WorkerTimeout) else "crash"
            if injector is not None and any(
                spec.replica == worker_id for spec in injector.specs_at(iteration, kind)
            ):
                # An injected worker-side fault lands in the ledger exactly
                # like its parent-side counterpart did.
                self.report.record_fault(kind)
            permanent = injector is not None and any(
                spec.replica == worker_id
                for spec in injector.specs_at(iteration, "replica_loss")
            )
            count = self.respawn_counts.get(worker_id, 0)
            over_budget = (
                count >= policy.max_respawns_per_worker
                or self.total_respawns >= policy.max_total_respawns
            )
            if permanent or over_budget:
                action = "degrade" if permanent else policy.on_exhausted
                executor.kill_worker(replica_index)
                self.report.record_worker_event(
                    kind=kind,
                    replica=worker_id,
                    iteration=iteration,
                    respawn_count=count,
                    action=action,
                )
                reason = (
                    "scheduled permanent replica loss"
                    if permanent
                    else f"respawn budget spent ({count}/worker, {self.total_respawns} total)"
                )
                escalation = RespawnExhausted(
                    iteration,
                    message=(
                        f"worker dp{worker_id} is unrecoverable at iteration "
                        f"{iteration} ({kind}: {reason}) — escalating to {action}"
                    ),
                    replica=replica_index,
                    worker=worker_id,
                    action=action,
                    permanent=permanent,
                )
                continue
            self.respawn_counts[worker_id] = count + 1
            self.total_respawns += 1
            self.report.respawns += 1
            self.report.record_worker_event(
                kind=kind,
                replica=worker_id,
                iteration=iteration,
                respawn_count=count + 1,
                action="respawn",
            )
            executor.respawn_worker(replica_index, iteration)
            # Heartbeat: the replacement must answer before we trust it with
            # the replay (a fork that died on arrival shows up here, not as a
            # mystery failure mid-iteration).
            executor.ping(replica_index)
        # Rewind: pre-step arenas back into shared memory — the replay (or the
        # escalation's degrade or final checkpoint) starts from exactly the
        # state the failed attempt started from.
        point.restore_arenas()
        if escalation is not None:
            raise escalation

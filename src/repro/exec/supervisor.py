"""Self-healing supervision of the process executor's replica workers.

:class:`WorkerSupervisor` wraps :class:`~repro.exec.executor.ProcessExecutor`
with the recovery loop that turns worker failure from fatal into routine:

1. **Detection** — the executor's hang watchdog (``worker_timeout`` deadline
   in ``_receive``) surfaces a wedged worker as ``WorkerTimeout`` and a dead
   one as ``WorkerCrash``; ``run_collect`` drains every surviving worker
   first, so when the supervisor takes over nothing is still writing to the
   shared arenas.
2. **Recovery** — the engine captures the arenas (shared weights once,
   gradients per replica) and every worker's CB hook state into its
   :class:`~repro.resilience.RecoveryPoint` *before* each
   iteration (the same single capture the guarded trainer rolls back to — the
   supervisor takes none of its own).  On failure the supervisor kills the
   broken worker, re-forks it over the same
   :class:`~repro.exec.shm.SharedArenaSegment` objects (the parent's replica
   objects still alias the shared pages — the group's one weights segment and
   the replica's gradient segment — so the fresh fork inherits current
   weights for free, whichever worker died), verifies the new worker with a
   heartbeat ping, pushes the captured CB states back into *every* worker,
   restores the arenas from the recovery point, and replays the iteration.
   Replica forward/backward is deterministic in (weights, CB state, batches), so the recovered run is bit-identical to an undisturbed
   one — the same invariant style the serial/process parity suite asserts.
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
        #: Each worker's CB-hook state as of the last completed iteration.
        #: This cache is the recovery point for a worker that dies *between*
        #: iterations (its live state is gone with the process, but equals the
        #: post-step state fetched here), and it serves the engine's
        #: ``live_mutable_state()`` without a pipe round-trip per capture.
        self._cb_states: list | None = None

    # -- the supervised iteration ------------------------------------------------------

    def run(self, per_replica_micro_batches: Sequence[Sequence], iteration: int) -> list[float]:
        """One supervised iteration: run, and on worker failure recover + replay.

        The engine captured its recovery point (arenas plus the cached
        post-previous-step CB states) just before calling this: any number of
        crash/hang failures within this iteration (or since the previous one
        ended) replays from it, so the returned losses — and the gradients left
        in the shared arenas — are bit-identical to an undisturbed run's.
        """
        engine = self.executor.engine
        point = engine.recovery_point
        record_mark = len(engine.log.records)
        while True:
            losses, failures = self.executor.run_collect(per_replica_micro_batches, iteration)
            if not failures:
                # Refresh the cache from the workers that just stepped.  A
                # worker dying in this tiny window took its post-step CB state
                # with it — rewind and replay like any mid-iteration failure
                # (dropping the records this attempt merged, so the replay
                # cannot duplicate them).
                states, failures = self._collect_cb_states()
                if not failures:
                    self._cb_states = states
                    return losses
                del engine.log.records[record_mark:]
            self._recover(failures, iteration, point)

    # -- worker CB-hook state ----------------------------------------------------------

    def cb_states(self) -> list:
        """Every worker's CB-hook state as of the last completed iteration.

        Fetched live on first use (freshly forked workers still equal the
        parent), served from the cache afterwards.
        """
        if self._cb_states is None:
            self._cb_states = self.executor.fetch_cb_states()
        return self._cb_states

    def set_cb_states(self, states: Sequence) -> None:
        """Reset the cache (engine rollback / checkpoint load pushed new state)."""
        self._cb_states = list(states)

    def drop_cb_state(self, index: int) -> None:
        """Retire one replica's cache slot (the engine dropped the replica)."""
        if self._cb_states is not None:
            del self._cb_states[index]

    def _collect_cb_states(self) -> tuple[list, dict[int, WorkerCrash]]:
        states: list = []
        failures: dict[int, WorkerCrash] = {}
        for index in range(self.executor.num_workers):
            try:
                states.append(self.executor.fetch_cb_state(index))
            except WorkerCrash as crash:
                states.append(None)
                failures[index] = crash
        return states, failures

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
        bit-equal to the pre-iteration capture, surviving workers holding the
        pre-iteration CB state, no worker mid-computation.
        """
        executor = self.executor
        engine = executor.engine
        injector = engine.fault_injector
        policy = self.policy
        escalation: RespawnExhausted | None = None
        dead: set[int] = set()
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
                dead.add(replica_index)
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
        if escalation is not None and escalation.action == "checkpoint_abort":
            # The final checkpoint must capture the *pre-iteration* state at
            # full DP, including the dead replica's CB hook.  Load the saved
            # states into the parent's hook copies and retire the executor —
            # ``live_mutable_state()`` then reads the (now correct) parent copies
            # instead of asking a dead worker.
            for replica_index in range(len(executor.worker_ids)):
                if replica_index not in dead:
                    executor.kill_worker(replica_index)
            point.restore_arenas()
            for hook, state in zip(engine.cb_hooks, point.cb_states):
                if hook is not None and state is not None:
                    hook.load_state_dict(state)
            executor.close()
            raise escalation
        # Rewind: pre-step arenas back into shared memory, pre-iteration CB
        # state into every live worker — the replay starts from exactly the
        # state the failed attempt started from.
        point.restore_arenas()
        for replica_index, state in enumerate(point.cb_states):
            if replica_index not in dead:
                executor.push_cb_state(replica_index, state)
        if escalation is not None:
            raise escalation

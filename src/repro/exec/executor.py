"""True process-parallel execution of the 3D engine's replica loop.

The sequential :class:`~repro.parallel.engine.ThreeDParallelEngine` *models*
DP×PP concurrency but runs every replica's pipeline one after another in one
Python process.  :class:`ProcessExecutor` makes the data-parallel axis real:
one forked worker process per DP replica owns that replica's
:class:`~repro.parallel.pipeline_engine.PipelineParallelEngine` — and with it
the dependency-ordered per-stage op lists the schedule layer emits
(``1f1b``/``zb1``/``auto``), which become the worker's instruction stream —
while the flat :class:`~repro.parallel.arena.ParameterArena` buffers live in
:class:`~repro.exec.shm.SharedArenaSegment` objects mapped by parent and
workers alike: one segment with the weights the whole DP group shares, one
gradient segment per replica.

Bit-for-bit parity with the serial oracle is by construction, not tolerance:

* the per-replica forward/backward is the *identical code on identical state* —
  workers are forked from the fully constructed engine, so weights, CB-hook
  residuals, and per-stage RNG streams start equal and, because each replica's
  state is touched by exactly one process, stay equal to what the serial loop
  would have computed;
* everything whose *order* matters — the DP codec all-reduce (Philox streams,
  per-key call counts), the bucketed sync's reduction order, embedding sync,
  fault injection, and the optimiser — runs in the parent, on the shared
  gradient buffers the workers just filled, exactly where the serial engine
  runs it.

The parent↔worker protocol is a pair of pipes per worker carrying tiny
messages (micro-batch arrays down, loss + traffic records up); the gradients
and weights themselves never travel — they are the shared segments.  Worker
death or an exception inside a worker surfaces as
:class:`repro.resilience.WorkerCrash`; shutdown is context-managed with a join
timeout, terminate/kill escalation, and a ``weakref`` finalizer so neither
processes nor ``/dev/shm`` segments outlive the executor (asserted in
``tests/test_process_executor.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
import weakref
from typing import TYPE_CHECKING, Sequence

from repro.exec.shm import SharedArenaSegment
from repro.resilience import DEFAULT_WORKER_TIMEOUT, WorkerCrash, WorkerTimeout
from repro.utils.logging import set_worker_tag

if TYPE_CHECKING:  # the engine imports this module lazily, not vice versa
    from repro.parallel.engine import ThreeDParallelEngine

#: How often the parent re-checks worker liveness while waiting on a reply.
_POLL_INTERVAL_SECONDS = 0.05


def _fire_worker_fault(spec) -> None:
    """Deliver one injected worker-side fault inside the forked child.

    ``crash``/``replica_loss`` take the *real* death path (SIGKILL to self —
    no Python cleanup, no reply, exactly what an OOM-killed worker looks
    like); ``hang`` wedges the process in a sleep loop that only a signal
    ends, which is what the parent's watchdog deadline exists to catch.
    """
    if spec.kind == "hang":
        while True:  # pragma: no cover - the parent kills the wedged worker
            time.sleep(3600.0)
    os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies instantly


def _replica_worker_main(
    replica_index, pipeline_engine, cb_hook, connection, worker_faults=()
) -> None:
    """Command loop of one replica worker (runs in the forked child).

    The worker inherited the replica's pipeline engine, stages, CB hook, and
    channel by fork; its arena views alias the parent's shared segments.  Every
    ``run`` replays the schedule's op stream for one iteration, leaves the
    gradients in shared memory, and ships back only the mean loss and the
    traffic records the channel logged (the parent merges them into the global
    log in replica order, matching the serial loop's record order).

    ``worker_faults`` is this replica's injected crash/hang/replica-loss
    schedule; a fault scheduled at the ``run`` command's iteration fires
    before any computation, at the start of the iteration — matching the
    serial executor's crash semantics.
    """
    set_worker_tag(f"dp{replica_index}")
    channel_log = pipeline_engine.channel.log
    try:
        while True:
            try:
                message = connection.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                break
            kind = message[0]
            try:
                if kind == "run":
                    iteration = message[2]
                    for spec in worker_faults:
                        if spec.iteration == iteration:
                            _fire_worker_fault(spec)
                    mark = len(channel_log.records)
                    result = pipeline_engine.run_iteration(message[1])
                    records = list(channel_log.records[mark:])
                    # Bound worker-side memory: records were shipped, drop them.
                    del channel_log.records[:]
                    connection.send(("ok", result.mean_loss, records))
                elif kind == "ping":
                    # Heartbeat: proves the command loop is live (used by the
                    # supervisor to verify a freshly respawned worker).
                    connection.send(("ok", "pong"))
                elif kind == "cb_state":
                    state = cb_hook.state_dict() if cb_hook is not None else None
                    connection.send(("ok", state))
                elif kind == "load_cb_state":
                    if cb_hook is not None:
                        cb_hook.load_state_dict(message[1])
                    connection.send(("ok", None))
                elif kind == "shutdown":
                    connection.send(("ok", None))
                    break
                else:  # protocol bug — fail loudly rather than hang the parent
                    connection.send(("error", f"unknown command {kind!r}"))
            except KeyboardInterrupt:
                break
            except BaseException:
                connection.send(("error", traceback.format_exc()))
    finally:
        connection.close()


def _cleanup(processes, connections, segments, join_timeout: float) -> None:
    """Terminate workers and destroy segments (finalizer-safe, never raises)."""
    for connection in connections:
        try:
            connection.close()
        except OSError:
            pass
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=join_timeout)
        if process.is_alive():
            process.kill()
            process.join(timeout=join_timeout)
    for segment in segments:
        segment.destroy()


class ProcessExecutor:
    """Runs the engine's per-replica pipeline iterations in forked workers.

    Created (lazily, on the first iteration) and owned by
    :class:`~repro.parallel.engine.ThreeDParallelEngine` when its executor knob
    is ``"process"``; user code normally only sees the knob.  Usable as a
    context manager; :meth:`close` is idempotent and restores the arenas onto
    private memory so the engine remains fully usable afterwards.
    """

    def __init__(
        self,
        engine: "ThreeDParallelEngine",
        join_timeout: float = 5.0,
        worker_timeout: float | None = None,
    ) -> None:
        self.engine = engine
        self.join_timeout = float(join_timeout)
        #: Hang-watchdog deadline: the longest the parent waits for one reply
        #: from a *live* worker before raising ``WorkerTimeout``.  Always
        #: finite — a wedged worker must never block the parent forever, with
        #: or without a supervisor on top.
        self.worker_timeout = float(
            worker_timeout if worker_timeout is not None else DEFAULT_WORKER_TIMEOUT
        )
        if self.worker_timeout <= 0:
            raise ValueError("worker_timeout must be positive")
        #: The DP group's one weights segment, and each replica's gradient
        #: segment (``drop_worker`` pops entries of the latter only).
        self.weights_segment: SharedArenaSegment | None = None
        self.segments: list[SharedArenaSegment] = []
        self._processes: list[multiprocessing.Process] = []
        self._connections: list = []
        #: Original DP shard id of each current worker (``drop_worker`` pops
        #: entries, so index ``i`` always attributes to the right shard).
        self.worker_ids: list[int] = []
        self._worker_faults: list[tuple] = []
        self._started = False
        self._finalizer: weakref.finalize | None = None

    @property
    def started(self) -> bool:
        return self._started

    @property
    def num_workers(self) -> int:
        return len(self._processes)

    def start(self) -> None:
        """Migrate the arenas into shared memory and fork the workers.

        Must run before any parent-side state diverges from what the workers
        need (the engine starts it ahead of its first process iteration).  The
        ``fork`` start method is required — workers inherit the constructed
        engine objects; the buffers are adopted *before* forking so parent and
        children alias the same pages: the group's weights once, every
        replica's gradients into a segment of its own.
        """
        if self._started:
            return
        context = multiprocessing.get_context("fork")
        arenas = self.engine.arenas
        self.weights_segment = SharedArenaSegment.adopt(arenas[0], "data")
        self.segments = [SharedArenaSegment.adopt(arena, "grad") for arena in arenas]
        # Worker-side fault routing: crash/hang/replica_loss specs are handed
        # to the forked worker so injection exercises the real SIGKILL/wedge
        # paths (the parent only *detects* the death, as with a real failure).
        injector = self.engine.fault_injector
        for replica_index, (pipeline_engine, cb_hook) in enumerate(
            zip(self.engine.pipeline_engines, self.engine.cb_hooks)
        ):
            faults = (
                injector.worker_faults(replica_index) if injector is not None else ()
            )
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_replica_worker_main,
                args=(replica_index, pipeline_engine, cb_hook, child_end, faults),
                name=f"repro-exec-dp{replica_index}",
                daemon=True,
            )
            process.start()
            child_end.close()
            self._processes.append(process)
            self._connections.append(parent_end)
            self.worker_ids.append(replica_index)
            self._worker_faults.append(faults)
        self._started = True
        self._refresh_finalizer()

    # -- the per-iteration hot path ---------------------------------------------------

    def run(
        self, per_replica_micro_batches: Sequence[Sequence], iteration: int
    ) -> list[float]:
        """One forward+backward on every replica, concurrently; returns the losses.

        Gradients land in the shared arenas (ready for the parent's DP sync);
        each worker's traffic records are appended to the engine log in replica
        order, so the merged log is record-for-record what the serial loop
        writes.  On any worker failure the first one (by replica index) is
        raised — after every other worker has been drained, so no worker is
        still writing to shared memory when the caller handles the error.
        """
        losses, failures = self.run_collect(per_replica_micro_batches, iteration)
        if failures:
            raise failures[min(failures)]
        return losses

    def run_collect(
        self, per_replica_micro_batches: Sequence[Sequence], iteration: int
    ) -> tuple[list[float], dict[int, WorkerCrash]]:
        """:meth:`run`, but collecting per-worker failures instead of raising.

        Returns ``(losses, failures)``.  On full success ``failures`` is empty
        and the traffic records are merged into the engine log; on any failure
        ``losses`` is empty and *no* records are merged (so a supervised
        replay of the iteration cannot duplicate them).  Every surviving
        worker is drained either way — when this returns, no worker is mid-
        iteration, so the caller may safely restore the shared arenas.
        """
        if not self._started:
            raise RuntimeError("executor not started")
        if len(per_replica_micro_batches) != len(self._processes):
            raise ValueError(
                f"got micro-batches for {len(per_replica_micro_batches)} replicas, "
                f"executor has {len(self._processes)} workers"
            )
        failures: dict[int, WorkerCrash] = {}
        for replica_index, batches in enumerate(per_replica_micro_batches):
            try:
                self._send(replica_index, ("run", list(batches), iteration), iteration)
            except WorkerCrash as crash:
                failures[replica_index] = crash
        replies: dict[int, tuple] = {}
        for replica_index in range(len(self._processes)):
            if replica_index in failures:
                continue
            try:
                replies[replica_index] = self._receive(replica_index, iteration)
            except WorkerCrash as crash:
                failures[replica_index] = crash
        if failures:
            return [], failures
        losses: list[float] = []
        for replica_index in range(len(self._processes)):
            loss, records = replies[replica_index]
            losses.append(loss)
            self.engine.log.records.extend(records)
        return losses, failures

    def _send(self, replica_index: int, message, iteration: int) -> None:
        """Send one command, surfacing a dead worker's broken pipe as a crash."""
        try:
            self._connections[replica_index].send(message)
        except (BrokenPipeError, OSError) as error:
            process = self._processes[replica_index]
            raise WorkerCrash(
                iteration,
                message=(
                    f"replica worker dp{replica_index} (pid {process.pid}) is gone "
                    f"(exit code {process.exitcode}) at iteration {iteration}: {error}"
                ),
                replica=replica_index,
            ) from error

    def _receive(self, replica_index: int, iteration: int):
        """Wait for one worker's reply, surfacing death as :class:`WorkerCrash`.

        The wait honors an overall deadline (``worker_timeout``) even when no
        supervisor wraps this executor: a live-but-hung worker used to block
        the parent forever in this poll loop; now it surfaces as
        :class:`WorkerTimeout` once the deadline passes.
        """
        connection = self._connections[replica_index]
        process = self._processes[replica_index]
        deadline = time.monotonic() + self.worker_timeout
        while not connection.poll(_POLL_INTERVAL_SECONDS):
            if not process.is_alive():
                raise WorkerCrash(
                    iteration,
                    message=(
                        f"replica worker dp{replica_index} (pid {process.pid}) died "
                        f"with exit code {process.exitcode} at iteration {iteration}"
                    ),
                    replica=replica_index,
                )
            if time.monotonic() >= deadline:
                raise WorkerTimeout(
                    iteration,
                    message=(
                        f"replica worker dp{replica_index} (pid {process.pid}) is "
                        f"alive but sent no reply within {self.worker_timeout:.1f}s "
                        f"at iteration {iteration} — treating it as hung"
                    ),
                    replica=replica_index,
                )
        try:
            reply = connection.recv()
        except (EOFError, OSError) as error:
            raise WorkerCrash(
                iteration,
                message=(
                    f"replica worker dp{replica_index} closed its pipe mid-reply "
                    f"at iteration {iteration}: {error}"
                ),
                replica=replica_index,
            ) from error
        if reply[0] == "error":
            raise WorkerCrash(
                iteration,
                message=(
                    f"replica worker dp{replica_index} failed at iteration "
                    f"{iteration}:\n{reply[1]}"
                ),
                replica=replica_index,
            )
        return reply[1:]

    # -- worker-held mutable state ----------------------------------------------------

    def fetch_cb_states(self) -> list:
        """Each worker's live CB-hook ``state_dict()`` (checkpoint / rollback).

        The compressed-backpropagation residuals and warm starts evolve inside
        the workers (the parent's hook copies are stale after the first process
        iteration), so the engine's ``live_mutable_state()`` fetches them here.
        """
        return [self._request(index, ("cb_state",)) for index in range(len(self._processes))]

    def push_cb_states(self, states: Sequence) -> None:
        """Load CB-hook state into every worker (checkpoint resume / rollback)."""
        if len(states) != len(self._processes):
            raise ValueError(
                f"got {len(states)} CB states for {len(self._processes)} workers"
            )
        for index, state in enumerate(states):
            self._request(index, ("load_cb_state", state))

    def fetch_cb_state(self, index: int):
        """One worker's live CB-hook ``state_dict()`` (supervised cache refresh)."""
        return self._request(index, ("cb_state",))

    def push_cb_state(self, index: int, state) -> None:
        """Load CB-hook state into one worker (supervised replay after respawn)."""
        self._request(index, ("load_cb_state", state))

    def ping(self, index: int) -> None:
        """Heartbeat round-trip proving worker ``index``'s command loop is live."""
        self._request(index, ("ping",))

    def _request(self, replica_index: int, message):
        iteration = self.engine._iteration_index
        self._send(replica_index, message, iteration)
        reply = self._receive(replica_index, iteration)
        return reply[0]

    # -- topology changes --------------------------------------------------------------

    def kill_worker(self, index: int) -> None:
        """SIGKILL one worker and reap it (keeps its slot; used before respawn).

        Safe on an already-dead worker.  The shared segments and the parent's
        replica objects are untouched — :meth:`respawn_worker` re-forks over
        them, or :meth:`drop_worker` retires them.
        """
        process = self._processes[index]
        if process.is_alive():
            process.kill()
        process.join(timeout=self.join_timeout)
        try:
            self._connections[index].close()
        except OSError:
            pass

    def respawn_worker(self, index: int, iteration: int) -> None:
        """Re-fork a dead or hung worker over the *same* shared segments.

        The parent's pipeline engine and CB hook for this replica still alias
        the shared pages — the group's weights segment belongs to no worker,
        so this holds for replica 0 like any other — and the fresh fork
        inherits the current weights with zero copies; only the CB hook state
        it inherits is stale (the parent's copy), which the supervisor fixes by
        pushing the pre-iteration state through ``load_cb_state`` before replay.
        Faults at or before ``iteration`` are filtered from the new worker's
        schedule so a replayed iteration cannot re-fire the fault that killed
        its predecessor.
        """
        self.kill_worker(index)
        injector = self.engine.fault_injector
        faults = (
            injector.worker_faults(self.worker_ids[index], after_iteration=iteration)
            if injector is not None
            else ()
        )
        context = multiprocessing.get_context("fork")
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=_replica_worker_main,
            args=(
                index,
                self.engine.pipeline_engines[index],
                self.engine.cb_hooks[index],
                child_end,
                faults,
            ),
            name=f"repro-exec-dp{self.worker_ids[index]}-r{iteration}",
            daemon=True,
        )
        process.start()
        child_end.close()
        self._processes[index] = process
        self._connections[index] = parent_end
        self._worker_faults[index] = faults
        self._refresh_finalizer()

    def drop_worker(self, index: int) -> None:
        """Shut down one replica's worker and destroy its gradient segment (degradation).

        Called by :meth:`ThreeDParallelEngine.drop_replica` *before* the engine
        deletes the replica; its gradients are migrated back to private memory
        (the engine then takes the arena out of the group, off the weights
        segment) so any surviving alias stays valid.  The weights segment is
        the group's and stays mapped whichever replica goes.
        """
        self._shutdown_one(index)
        process = self._processes.pop(index)
        self._connections.pop(index)
        self.worker_ids.pop(index)
        self._worker_faults.pop(index)
        process.join(timeout=self.join_timeout)
        if process.is_alive():
            process.terminate()
            process.join(timeout=self.join_timeout)
        segment = self.segments.pop(index)
        segment.release(self.engine.arenas[index])
        self._refresh_finalizer()

    def _shutdown_one(self, index: int) -> None:
        connection = self._connections[index]
        try:
            connection.send(("shutdown",))
            if connection.poll(self.join_timeout):
                connection.recv()
        except (BrokenPipeError, EOFError, OSError):
            pass  # already dead — the join/terminate path below handles it
        finally:
            try:
                connection.close()
            except OSError:
                pass

    # -- shutdown ----------------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker and return the arenas to private memory (idempotent).

        Polite shutdown first (sentinel + join with timeout), then terminate,
        then kill — no orphaned processes; segments are closed and unlinked —
        no leaked shared memory.  The engine remains usable on the serial path
        afterwards with bit-identical state.
        """
        if not self._started:
            return
        self._started = False
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        # Pull the workers' live CB-hook state back into the parent's copies so
        # a serial continuation after close() is bit-identical, not merely
        # weight-identical.  Best-effort: skipped if the workers already died.
        try:
            states = [
                self._request(index, ("cb_state",))
                for index in range(len(self._connections))
            ]
        except (WorkerCrash, BrokenPipeError, EOFError, OSError):
            states = None
        if states is not None:
            for hook, state in zip(self.engine.cb_hooks, states):
                if hook is not None and state is not None:
                    hook.load_state_dict(state)
        for index in range(len(self._connections)):
            self._shutdown_one(index)
        for process in self._processes:
            process.join(timeout=self.join_timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=self.join_timeout)
            if process.is_alive():  # pragma: no cover - terminate should suffice
                process.kill()
                process.join(timeout=self.join_timeout)
        self._processes = []
        self._connections = []
        self.worker_ids = []
        self._worker_faults = []
        for segment, arena in zip(self.segments, self.engine.arenas):
            segment.release(arena)
        self.segments = []
        self.weights_segment.release(self.engine.arenas[0])
        self.weights_segment = None

    def _refresh_finalizer(self) -> None:
        """(Re-)arm the safety net for abandoned executors.

        Kills the current workers and unlinks every shared segment even if
        close() is never called.  Holds no reference to self (or the engine),
        so it cannot keep the executor alive.
        """
        if self._finalizer is not None:
            self._finalizer.detach()
        self._finalizer = weakref.finalize(
            self,
            _cleanup,
            list(self._processes),
            list(self._connections),
            [self.weights_segment, *self.segments],
            self.join_timeout,
        )

    def __enter__(self) -> "ProcessExecutor":
        self.start()
        return self

    def __exit__(self, exc_type, exc_value, exc_traceback) -> None:
        self.close()

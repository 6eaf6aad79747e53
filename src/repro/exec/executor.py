"""True process-parallel execution of the 3D engine's replica loop.

Under the serial executor :class:`~repro.parallel.engine.ThreeDParallelEngine`
runs the replicas' pipelines one after another in one Python process; at most
a replica's stages run concurrently, on threads inside
:meth:`~repro.parallel.pipeline_engine.PipelineParallelEngine.run_iteration`
(where BLAS is pinned below the core count).
:class:`ProcessExecutor` makes the data-parallel axis real:
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
  workers are forked from the fully constructed engine, so weights and
  per-stage RNG streams start equal and, because each replica's state is
  touched by exactly one process, stay equal to what the serial loop would
  have computed;
* a worker keeps nothing between iterations outside the shared segments: each
  ``run`` message carries the state of its replica's one compression hook
  (the backward channel's CB residuals and warm starts) and the reply carries
  it back, so the parent's hooks are the only copy between
  iterations — a respawn, rollback, checkpoint or capture asks no worker;
* a worker's run and the serial loop's inline one are the same call,
  :func:`~repro.parallel.engine.run_replica`, and the parent applies both
  executors' :class:`~repro.parallel.engine.ReplicaResult` objects through the
  one :func:`~repro.parallel.engine.merge_replica_results`, in replica order;
* everything whose *order* matters — the DP codec all-reduce (Philox streams,
  per-key call counts), the bucketed sync's reduction order, embedding sync,
  fault injection, and the optimiser — runs in the parent, on the shared
  gradient buffers the workers just filled, exactly where the serial engine
  runs it.

The executor is a policy on :mod:`repro.exec.workers`, which forks, talks to
and reaps every worker: one duplex pipe per worker carries one message each
way per iteration (micro-batch arrays and hook state down; a
:class:`~repro.parallel.engine.ReplicaResult` up); the gradients and weights
themselves never travel — they are the shared segments.  A dead
worker surfaces as :class:`repro.resilience.WorkerCrash`, a live one silent
past ``worker_timeout`` as :class:`repro.resilience.WorkerTimeout`, both with
the replica attributed.  Every teardown — :meth:`ProcessExecutor.close`,
:meth:`~ProcessExecutor.drop_worker`, :meth:`~ProcessExecutor.kill_worker`
and the ``weakref`` finalizer of an abandoned executor — is the substrate's
one bounded ladder, so neither processes nor ``/dev/shm`` segments outlive
the executor (asserted in ``tests/test_process_executor.py``).
"""

from __future__ import annotations

import os
import signal
import time
import weakref
from typing import TYPE_CHECKING, Sequence

from repro.exec.shm import SharedArenaSegment
from repro.exec.workers import Worker, close_workers, serve
from repro.parallel.arena import trim_heap
from repro.parallel.engine import (
    ReplicaResult,
    hook_state,
    replica_runs_at_once,
    run_replica,
)
from repro.resilience import DEFAULT_WORKER_TIMEOUT, WorkerCrash, WorkerTimeout
from repro.utils.logging import set_worker_tag

if TYPE_CHECKING:
    from repro.parallel.engine import ThreeDParallelEngine


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


def _serve_replica(connection, worker_id, pipeline_engine, worker_faults) -> None:
    """One replica worker's child side: tag its log lines, then serve its commands.

    The worker inherited the replica's pipeline engine, stages, hooks and
    channel by fork; its arena views alias the parent's shared segments.  Every
    ``run`` is :func:`~repro.parallel.engine.run_replica` on the hook state the
    message carries: it replays the schedule's op stream for one iteration,
    leaves the gradients in shared memory, and ships back the
    :class:`~repro.parallel.engine.ReplicaResult` — the mean loss, this run's
    traffic records (the run's one byte ledger), the hook's new state and
    Fig. 11 records — which the parent merges exactly as it merges an inline
    run's.
    Nothing the worker holds between iterations grows or matters.

    ``worker_faults`` is this replica's injected crash/hang/replica-loss
    schedule; a fault scheduled at the ``run`` command's iteration fires
    before any computation, at the start of the iteration — matching the
    serial executor's crash semantics.  The message also carries how many
    workers run at once: they share the usable cores, so it bounds the threads
    each worker's pipeline walk runs on.
    """
    set_worker_tag(f"dp{worker_id}")

    def handle(message):
        kind = message[0]
        if kind == "run":
            _, batches, iteration, replica_runs, state = message
            for spec in worker_faults:
                if spec.iteration == iteration:
                    _fire_worker_fault(spec)
            return "ok", run_replica(pipeline_engine, batches, replica_runs, state)
        if kind == "ping":
            # Heartbeat: proves the command loop is live (used by the
            # supervisor to verify a freshly respawned worker).
            return "ok", "pong"
        raise ValueError(f"unknown command {kind!r}")  # a protocol bug fails loudly

    serve(connection, handle)


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
        worker_timeout: float | None = None,
    ) -> None:
        self.engine = engine
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
        #: One worker per current replica, in replica order.  Mutated in place
        #: only: the finalizer reaps whatever this list holds.
        self.workers: list[Worker] = []
        #: Original DP shard id of each current worker (``drop_worker`` pops
        #: entries, so index ``i`` always attributes to the right shard).
        self.worker_ids: list[int] = []
        self._started = False
        weakref.finalize(self, close_workers, self.workers)

    @property
    def started(self) -> bool:
        return self._started

    @property
    def num_workers(self) -> int:
        return len(self.workers)

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
        arenas = self.engine.arenas
        self.weights_segment = SharedArenaSegment.adopt(arenas[0], "data")
        self.segments = [SharedArenaSegment.adopt(arena, "grad") for arena in arenas]
        for segment in (self.weights_segment, *self.segments):
            # Unlinked even if close() never runs (destroy is idempotent).
            weakref.finalize(self, segment.destroy)
        for replica_index in range(len(arenas)):
            self.worker_ids.append(replica_index)
            self.workers.append(self._fork(replica_index))
        self._started = True

    def _fork(self, index: int, after_iteration: int | None = None) -> Worker:
        """Fork replica ``index``'s worker with its injected fault schedule.

        Worker-side fault routing: crash/hang/replica_loss specs are handed to
        the forked worker so injection exercises the real SIGKILL/wedge paths
        (the parent only *detects* the death, as with a real failure).  A
        respawn passes ``after_iteration`` so a replayed iteration cannot
        re-fire the fault that killed its predecessor.
        """
        worker_id = self.worker_ids[index]
        injector = self.engine.fault_injector
        faults = (
            injector.worker_faults(worker_id, after_iteration=after_iteration)
            if injector is not None
            else ()
        )
        name = f"repro-exec-dp{worker_id}"
        if after_iteration is not None:
            name += f"-r{after_iteration}"
        # The child would otherwise inherit the parent's freed heap (the
        # private arena buffers ``start`` just moved into shared memory).
        trim_heap()
        return Worker(
            name,
            _serve_replica,
            worker_id,
            self.engine.pipeline_engines[index],
            faults,
        )

    # -- the per-iteration hot path ---------------------------------------------------

    def run_collect(
        self, per_replica_micro_batches: Sequence[Sequence], iteration: int
    ) -> tuple[list[ReplicaResult], dict[int, WorkerCrash]]:
        """One forward+backward on every replica, concurrently, collecting failures.

        Returns ``(results, failures)``: on full success every replica's
        :class:`~repro.parallel.engine.ReplicaResult` in replica order, for the
        engine to apply with :func:`~repro.parallel.engine.merge_replica_results`
        (the gradients are already in the shared arenas), and no failures.  On
        any failure ``results`` is empty, so nothing reaches the parent — its
        hooks keep the pre-iteration state, and a supervised replay is sent
        exactly what the failed attempt was.  Every surviving worker is
        drained either way — when this returns, no worker is mid-iteration, so
        the caller may safely restore the shared arenas.
        """
        if not self._started:
            raise RuntimeError("executor not started")
        if len(per_replica_micro_batches) != len(self.workers):
            raise ValueError(
                f"got micro-batches for {len(per_replica_micro_batches)} replicas, "
                f"executor has {len(self.workers)} workers"
            )
        failures: dict[int, WorkerCrash] = {}
        hooks = self.engine.cb_hooks
        replica_runs = replica_runs_at_once(self.engine.executor_kind, len(self.workers))
        for replica_index, batches in enumerate(per_replica_micro_batches):
            message = (
                "run",
                list(batches),
                iteration,
                replica_runs,
                hook_state(hooks[replica_index]),
            )
            try:
                self._send(replica_index, message, iteration)
            except WorkerCrash as crash:
                failures[replica_index] = crash
        results: list[ReplicaResult] = []
        for replica_index in range(len(self.workers)):
            if replica_index in failures:
                continue
            try:
                results.append(self._receive(replica_index, iteration))
            except WorkerCrash as crash:
                failures[replica_index] = crash
        if failures:
            return [], failures
        return results, failures

    def _send(self, replica_index: int, message, iteration: int) -> None:
        """Send one command; a dead worker's broken pipe is a :class:`WorkerCrash`."""
        if not self.workers[replica_index].send(message):
            raise self._failure(WorkerCrash, replica_index, iteration, "its pipe is broken")

    def _receive(self, replica_index: int, iteration: int):
        """Wait for one worker's reply within ``worker_timeout``.

        A dead worker is a :class:`WorkerCrash` the moment it dies; a live one
        that stays silent past the deadline is a :class:`WorkerTimeout` — the
        hang watchdog, with or without a supervisor on top.
        """
        try:
            reply = self.workers[replica_index].receive(self.worker_timeout)
        except EOFError:
            raise self._failure(WorkerCrash, replica_index, iteration, "died") from None
        except TimeoutError:
            raise self._failure(
                WorkerTimeout,
                replica_index,
                iteration,
                f"alive but sent no reply within {self.worker_timeout:.1f}s "
                "— treating it as hung",
            ) from None
        if reply[0] == "error":
            raise self._failure(WorkerCrash, replica_index, iteration, f"failed:\n{reply[1]}")
        return reply[1]

    def _failure(self, error: type[WorkerCrash], replica_index: int, iteration: int, what: str):
        process = self.workers[replica_index].process
        return error(
            iteration,
            message=(
                f"replica worker dp{replica_index} (pid {process.pid}, exit code "
                f"{process.exitcode}) at iteration {iteration}: {what}"
            ),
            replica=replica_index,
        )

    def fetch_cb_state(self, index: int):
        """Replica ``index``'s CB-hook state: the parent's copy, the only one there is.

        Nothing calls this.  It stays only because the ``exec.fetch_cb`` row of
        the end-to-end benchmark's tracer patch table wraps it by name, and
        goes together with that row.
        """
        return hook_state(self.engine.cb_hooks[index])

    def ping(self, index: int) -> None:
        """Heartbeat round-trip proving worker ``index``'s command loop is live."""
        iteration = self.engine._iteration_index
        self._send(index, ("ping",), iteration)
        self._receive(index, iteration)

    # -- topology changes --------------------------------------------------------------

    def kill_worker(self, index: int) -> None:
        """SIGKILL one worker and reap it (keeps its slot; used before respawn).

        Safe on an already-dead worker.  The shared segments and the parent's
        replica objects are untouched — :meth:`respawn_worker` re-forks over
        them, or :meth:`drop_worker` retires them.
        """
        worker = self.workers[index]
        worker.kill()  # a hung worker would never read the sentinel
        worker.close()

    def respawn_worker(self, index: int, iteration: int) -> None:
        """Re-fork a dead or hung worker over the *same* shared segments.

        The parent's pipeline engine for this replica still aliases the shared
        pages — the group's weights segment belongs to no worker, so this holds
        for replica 0 like any other — and the fresh fork inherits the current
        weights with zero copies.  It needs nothing else: its hook state
        arrives with every ``run`` message, as it does for every worker.
        Faults at or before ``iteration`` are filtered from the new worker's
        schedule so a replayed iteration cannot re-fire the fault that killed
        its predecessor.
        """
        self.kill_worker(index)
        self.workers[index] = self._fork(index, after_iteration=iteration)

    def drop_worker(self, index: int) -> None:
        """Shut down one replica's worker and destroy its gradient segment (degradation).

        Called by :meth:`ThreeDParallelEngine.drop_replica` *before* the engine
        deletes the replica; its gradients are migrated back to private memory
        (the engine then takes the arena out of the group, off the weights
        segment) so any surviving alias stays valid.  The weights segment is
        the group's and stays mapped whichever replica goes.
        """
        self.workers[index].close()
        del self.workers[index]
        del self.worker_ids[index]
        self.segments.pop(index).release(self.engine.arenas[index])

    # -- shutdown ----------------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker and return the arenas to private memory (idempotent).

        Every worker goes down the substrate's bounded ladder (sentinel, join,
        kill) — no orphaned processes; segments are closed and unlinked — no
        leaked shared memory.  The engine remains usable on the serial path
        afterwards with bit-identical state: the parent's hooks already hold
        every replica's state as of the last completed iteration.
        """
        if not self._started:
            return
        self._started = False
        close_workers(self.workers)
        self.worker_ids.clear()
        for segment, arena in zip(self.segments, self.engine.arenas):
            segment.release(arena)
        self.segments = []
        self.weights_segment.release(self.engine.arenas[0])
        self.weights_segment = None

    def __enter__(self) -> "ProcessExecutor":
        self.start()
        return self

    def __exit__(self, exc_type, exc_value, exc_traceback) -> None:
        self.close()

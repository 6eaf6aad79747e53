"""Forked worker pool that fans plan evaluations across CPU cores.

Same substrate as :mod:`repro.exec`: ``fork``-context workers, one duplex pipe
each, tiny picklable messages.  The parent dispatches *windowed* — at most
:data:`TASK_WINDOW` tasks outstanding per worker, topped up as replies drain —
so a query of thousands of candidates can never wedge both ends of a pipe's
~64 KiB kernel buffer with a bulk send.

Each worker is topped up from its own *contiguous share* of the task list, not
from one common queue.  A query expands class-major (all plans of one job, then
of the next), and what the plans of a class share is memoised per process, so
a class dealt round-robin is computed in every worker and a class inside one
share in one.  Load is balanced by stealing: a worker with nothing left to
send takes the back half of the longest remaining share, and the tasks of a
retired worker — sent and unsent — go to whoever runs dry next.

Determinism does not depend on the pool: replies carry the candidate index
they answer, the parent keys results by that index, and
:func:`evaluate_task` itself is pure — so any completion order, any worker
count (including ``workers=0``, which runs everything inline), and any
mid-flight worker crash or stall (survivors and the parent absorb the requeued
tasks) produce the same result map.

Liveness does not depend on the workers either.  Each worker has a progress
deadline, :data:`WORKER_PROGRESS_DEADLINE_S`: one that owes replies and has
delivered none for that long — stopped, stuck in uninterruptible I/O,
livelocked; alive, so neither a broken pipe nor an EOF would ever report it —
is killed and handled exactly like a crashed one, so :meth:`EvaluationPool.run`
returns in bounded time.  Teardown escalates from the shutdown sentinel to
``terminate()`` to ``kill()``: a stopped process acts on neither of the first
two, and must not outlive the pool.

What a worker computes once, not per task: the ``(tier, gpus)`` →
:class:`~repro.simulator.hardware.ClusterSpec` resolution
(:func:`~repro.search.query.resolve_cluster` keeps the spec per process), the
pipeline replay of every plan that shares one
(:func:`repro.simulator.executor.replay_pipeline`), and the per-job, per-spec
cost terms and memory peaks listed in :mod:`repro.search.service`.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
import weakref
from collections import deque
from multiprocessing.connection import Connection, wait
from typing import Any, Iterable, Mapping

from repro.models.gpt_configs import PaperModelSpec
from repro.plan import ParallelPlan
from repro.search.frontier import within_budget
from repro.search.query import resolve_cluster
from repro.simulator.evaluate import budget_metrics, evaluate_job

__all__ = ["EvaluationPool", "TASK_WINDOW", "WORKER_PROGRESS_DEADLINE_S", "evaluate_task"]

#: Maximum tasks outstanding per worker.  Small enough that a window of task
#: messages (~0.5 KiB each) never fills a pipe buffer, large enough that
#: workers stay busy while the parent is busy elsewhere.
TASK_WINDOW = 16

#: Seconds a worker may owe replies without delivering one.  An evaluation
#: takes milliseconds (a deep ``auto`` synthesis, tens), so a worker silent
#: for this long is not slow but wedged — stopped, in uninterruptible I/O,
#: livelocked — and is treated exactly like a crashed one.
WORKER_PROGRESS_DEADLINE_S = 30.0


def evaluate_task(task: Mapping[str, Any]) -> dict[str, float]:
    """Evaluate one pool work unit (pure; runs identically in any process).

    Rebuilds the plan, model, and cluster from the JSON-safe ``task`` dict
    (:meth:`repro.search.query.Candidate.task`) and returns
    :meth:`~repro.simulator.evaluate.PlanEvaluation.to_dict` output — or, budget
    first, only the two :data:`~repro.simulator.evaluate.BUDGET_METRICS` when
    the task names a budget (``max_memory_gb`` / ``max_compression_loss``;
    absent means none) that one of them exceeds: nothing of such a candidate's
    timing can reach the answer, so it is not simulated.
    """
    plan = ParallelPlan.from_dict(task["plan"])
    model = PaperModelSpec(**task["model"])
    cluster = resolve_cluster(task["tier"], task["gpus"])
    job = plan.training_job(model, cluster=cluster, micro_batch_size=task["micro_batch_size"])
    budget = budget_metrics(job, plan)
    if not within_budget(budget, task.get("max_memory_gb"), task.get("max_compression_loss")):
        return budget
    return evaluate_job(job, plan, budget).to_dict()


def _worker_main(connection: Connection) -> None:
    """Worker loop: evaluate ``("eval", index, task)`` messages until shutdown."""
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        _, index, task = message
        try:
            reply = ("ok", index, evaluate_task(task))
        except Exception:  # noqa: BLE001 - the traceback is the payload
            reply = ("error", index, traceback.format_exc())
        try:
            connection.send(reply)
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """Parent-side record of one forked worker: process, pipe, in-flight tasks."""

    def __init__(self, context, index: int) -> None:
        self.connection, child = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main, args=(child,), name=f"repro-search-{index}", daemon=True
        )
        self.process.start()
        child.close()
        #: Tasks sent but not yet answered, keyed by candidate index.
        self.outstanding: dict[int, Mapping[str, Any]] = {}
        #: Tasks of the current :meth:`EvaluationPool.run` this worker is to
        #: be sent next: a contiguous run of the task list.
        self.share: deque[tuple[int, Mapping[str, Any]]] = deque()
        #: ``time.monotonic()`` of the last reply, or of the first task sent
        #: to an idle worker — what the progress deadline is measured from.
        self.heard_at = 0.0

    def kill(self) -> None:
        """SIGKILL the process and reap it (the one signal a stopped process obeys)."""
        self.process.kill()
        self.process.join(timeout=2.0)

    def close(self) -> None:
        """Shut the worker down: sentinel, short join, then terminate, then kill."""
        try:
            self.connection.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.kill()
        self.connection.close()


def _close_workers(workers: list[_Worker]) -> None:
    """Finalizer target: close every worker (idempotent, exception-safe)."""
    for worker in workers:
        try:
            worker.close()
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass
    workers.clear()


class EvaluationPool:
    """A pool of forked evaluation workers with windowed task dispatch.

    Parameters
    ----------
    workers:
        Worker process count.  ``0`` disables forking entirely — every task
        runs inline in the parent (the degraded-but-correct fallback, also
        used when a platform has no ``fork`` start method).

    Use as a context manager, or rely on the ``weakref`` finalizer; either
    way workers are shut down deterministically.  One pool can serve many
    :meth:`run` calls (the batch-query service shape).
    """

    def __init__(self, workers: int = 0) -> None:
        self._workers: list[_Worker] = []
        if workers > 0:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:
                context = None
            if context is not None:
                self._workers = [_Worker(context, index) for index in range(workers)]
        self._finalizer = weakref.finalize(self, _close_workers, self._workers)

    @property
    def worker_count(self) -> int:
        """Live worker processes (0 means inline evaluation)."""
        return len(self._workers)

    def __enter__(self) -> "EvaluationPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut down all workers (idempotent)."""
        self._finalizer()

    # -- dispatch ---------------------------------------------------------------------

    def run(
        self, tasks: Iterable[tuple[int, Mapping[str, Any]]]
    ) -> dict[int, tuple[str, Any]]:
        """Evaluate every ``(index, task)`` pair; return ``{index: (kind, payload)}``.

        ``kind`` is ``"ok"`` (payload: metrics dict) or ``"error"`` (payload:
        the worker's formatted traceback).  Each worker starts on a
        contiguous share of the tasks and, once it has sent all of it, takes
        half of the longest share left.  A worker that crashed, or that has
        owed replies for :data:`WORKER_PROGRESS_DEADLINE_S` without delivering
        one, is killed and its tasks — those it owes and those it was never
        sent — are requeued to the survivors; with no survivors the parent
        finishes inline, so the call always returns a complete map, and
        returns it in bounded time.
        """
        results: dict[int, tuple[str, Any]] = {}
        alive = list(self._workers)
        pending = list(tasks)
        # Tasks no live worker owns: all of them without workers, later those
        # of retired workers; what is left once the last worker is gone runs
        # inline.
        orphaned: deque[tuple[int, Mapping[str, Any]]] = deque()
        if alive:
            size = -(-len(pending) // len(alive))
            for position, worker in enumerate(alive):
                worker.share = deque(pending[position * size : (position + 1) * size])
        else:
            orphaned.extend(pending)

        def retire(worker: _Worker) -> None:
            worker.kill()
            alive.remove(worker)
            orphaned.extend(worker.outstanding.items())
            orphaned.extend(worker.share)
            worker.outstanding.clear()
            worker.share.clear()

        def refill(worker: _Worker) -> None:
            """Give a worker with nothing left to send the orphans, or half a share."""
            if orphaned:
                worker.share.extend(orphaned)
                orphaned.clear()
                return
            victim = max(alive, key=lambda other: len(other.share)).share
            stolen = [victim.pop() for _ in range((len(victim) + 1) // 2)]
            worker.share.extend(reversed(stolen))

        while alive and (
            orphaned or any(worker.share or worker.outstanding for worker in alive)
        ):
            now = time.monotonic()
            for worker in list(alive):
                was_idle = not worker.outstanding
                if not worker.share and len(worker.outstanding) < TASK_WINDOW:
                    refill(worker)
                if not self._top_up(worker, worker.share):
                    retire(worker)
                elif was_idle:
                    worker.heard_at = now
            busy = [worker for worker in alive if worker.outstanding]
            if not busy:
                continue
            # Sleep until a reply arrives or the earliest deadline expires.
            expires = min(worker.heard_at for worker in busy) + WORKER_PROGRESS_DEADLINE_S
            ready = wait(
                [worker.connection for worker in busy],
                timeout=max(0.0, expires - time.monotonic()),
            )
            now = time.monotonic()
            for worker in busy:
                if worker.connection in ready:
                    if self._drain(worker, results):
                        worker.heard_at = now
                    else:
                        retire(worker)
                elif now - worker.heard_at >= WORKER_PROGRESS_DEADLINE_S:
                    retire(worker)
        # Inline fallback: workers==0, or every worker crashed mid-query.
        for index, task in orphaned:
            try:
                results[index] = ("ok", evaluate_task(task))
            except Exception:  # noqa: BLE001 - mirrored worker-side contract
                results[index] = ("error", traceback.format_exc())
        return results

    @staticmethod
    def _top_up(worker: _Worker, queue: deque[tuple[int, Mapping[str, Any]]]) -> bool:
        """Send tasks until the worker's window is full; ``False`` if it died."""
        while queue and len(worker.outstanding) < TASK_WINDOW:
            index, task = queue.popleft()
            try:
                worker.connection.send(("eval", index, task))
            except (BrokenPipeError, OSError):
                queue.appendleft((index, task))
                return False
            worker.outstanding[index] = task
        return True

    @staticmethod
    def _drain(worker: _Worker, results: dict[int, tuple[str, Any]]) -> bool:
        """Receive one ready reply from the worker; ``False`` if it died."""
        try:
            kind, index, payload = worker.connection.recv()
        except (EOFError, OSError):
            return False
        worker.outstanding.pop(index, None)
        results[index] = (kind, payload)
        return True

"""Forked worker pool that fans plan evaluations across CPU cores.

Same substrate as :mod:`repro.exec`: every worker is a
:class:`repro.exec.workers.Worker` — forked, one duplex pipe, tiny picklable
messages, a child running :func:`~repro.exec.workers.serve` — and this module
is only the dispatch policy on top.  The workers of a pass are forked inside
:meth:`EvaluationPool.run`, *after* the caller has built its task list, so a
worker is born holding the list — the parent's own validated plans, never a
copy rebuilt from a message — and a task crosses the process boundary as its
position in that list.  The parent dispatches *windowed*: a message is a block
of positions, its reply the block's results in order, and at most
:data:`TASK_WINDOW` candidates (two blocks of half a window, so a worker has
one queued while it works on the other) are outstanding per worker, topped up
as replies drain.  Workers live for exactly one ``run()``: they are reaped in
its ``finally``, whatever ended the dispatch loop, and a pass with nothing to
evaluate forks nothing.

Each worker is topped up from its own *contiguous share* of the task list, not
from one common queue.  A query expands class-major (all plans of one job, then
of the next), and what the plans of a class share is memoised per process, so
a class dealt round-robin is computed in every worker and a class inside one
share in one.  Load is balanced by stealing: a worker with nothing left to
send takes the back half of the longest remaining share, and the tasks of a
retired worker — sent and unsent — go to whoever runs dry next.

Determinism does not depend on the pool: a pipe is FIFO, so a reply answers
the oldest block its worker owes, the parent keys results by the index of the
task at each position, and the evaluation itself is pure — so any completion
order, any worker count (including ``workers=0``, which runs everything
inline), and any mid-flight worker crash or stall (survivors and the parent
absorb the requeued tasks) produce the same result map.

Liveness does not depend on the workers either.  Each worker has a progress
deadline, :data:`WORKER_PROGRESS_DEADLINE_S`: one that owes replies and has
delivered none for that long — stopped, stuck in uninterruptible I/O,
livelocked; alive, so neither a broken pipe nor an EOF would ever report it —
is killed and handled exactly like a crashed one, so :meth:`EvaluationPool.run`
returns in bounded time.  Teardown is the substrate's one ladder
(:meth:`repro.exec.workers.Worker.close`: sentinel, bounded join, SIGKILL), so
a stopped process does not outlive the ``run()`` that forked it either.

What a worker computes once, not per task: the
:class:`~repro.simulator.cost_model.TrainingJob` of every plan with one
topology and schedule (:func:`repro.simulator.evaluate.plan_job`), the
pipeline replay of every plan that shares one
(:func:`repro.simulator.executor.replay_pipeline`), and the per-job, per-spec
cost terms and memory peaks listed in :mod:`repro.search.service`.
"""

from __future__ import annotations

import time
import traceback
import weakref
from collections import deque
from multiprocessing.connection import wait
from typing import Any, Iterable, Mapping, Sequence

from repro.exec.workers import CAN_FORK, Worker, close_workers, serve
from repro.models.gpt_configs import PaperModelSpec
from repro.plan import ParallelPlan
from repro.search.frontier import within_budget
from repro.search.query import resolve_cluster
from repro.simulator.evaluate import budget_metrics, evaluate_job, plan_job
from repro.simulator.hardware import ClusterSpec

__all__ = [
    "EvaluationPool",
    "TASK_WINDOW",
    "WORKER_PROGRESS_DEADLINE_S",
    "evaluate_candidate",
    "evaluate_task",
]

#: Maximum candidates outstanding per worker, sent as blocks of half a window.
#: Small enough that a retired worker leaves little to redo and a steal finds
#: most of a share still unsent, large enough that a worker has a block queued
#: while the parent is busy elsewhere.
TASK_WINDOW = 16

#: Blocks a worker may owe: the one it is evaluating and one queued behind it.
_BLOCKS_IN_FLIGHT = 2

#: Seconds a worker may owe replies without delivering one.  An evaluation
#: takes milliseconds (a deep ``auto`` synthesis, tens), so a worker silent
#: for this long is not slow but wedged — stopped, in uninterruptible I/O,
#: livelocked — and is treated exactly like a crashed one.
WORKER_PROGRESS_DEADLINE_S = 30.0


def evaluate_candidate(
    plan: ParallelPlan,
    model: PaperModelSpec,
    cluster: ClusterSpec,
    micro_batch_size: int,
    max_memory_gb: float | None = None,
    max_compression_loss: float | None = None,
) -> dict[str, float]:
    """Evaluate one validated plan, budget first (pure; identical in any process).

    Returns :meth:`~repro.simulator.evaluate.PlanEvaluation.to_dict` output —
    or only the two :data:`~repro.simulator.evaluate.BUDGET_METRICS` when one
    of them exceeds its budget: nothing of such a candidate's timing can reach
    the answer, so it is not simulated.
    """
    job = plan_job(plan, model, cluster, micro_batch_size)
    budget = budget_metrics(job, plan)
    if not within_budget(budget, max_memory_gb, max_compression_loss):
        return budget
    return evaluate_job(job, plan, budget).to_dict()


def evaluate_task(task: Mapping[str, Any]) -> dict[str, float]:
    """:func:`evaluate_candidate` of a JSON-safe ``task`` dict, validated first.

    Rebuilds the plan, model, and cluster from
    :meth:`repro.search.query.Candidate.task` output — the form of a work unit
    that can come from outside the process, so every field goes through the
    validating constructors.  The task's ``max_memory_gb`` /
    ``max_compression_loss`` are the budgets (absent means none).
    """
    return evaluate_candidate(
        ParallelPlan.from_dict(task["plan"]),
        PaperModelSpec(**task["model"]),
        resolve_cluster(task["tier"], task["gpus"]),
        task["micro_batch_size"],
        task.get("max_memory_gb"),
        task.get("max_compression_loss"),
    )


def _evaluate(task: Any) -> tuple[str, Any]:
    """``(kind, payload)`` of a work unit: a task dict or :func:`evaluate_candidate`'s arguments."""
    try:
        if isinstance(task, Mapping):
            return "ok", evaluate_task(task)
        return "ok", evaluate_candidate(*task)
    except Exception:  # noqa: BLE001 - the traceback is the payload
        return "error", traceback.format_exc()


class _Worker(Worker):
    """One forked search worker plus the parent's dispatch state for it."""

    def __init__(self, index: int, tasks: Sequence[tuple[int, Any]]) -> None:
        super().__init__(
            f"repro-search-{index}",
            serve,
            lambda block: [_evaluate(tasks[position][1]) for position in block],
        )
        #: Blocks of positions sent but not yet answered, oldest first.
        self.outstanding: deque[list[int]] = deque()
        #: Positions this worker is to be sent next: a contiguous run of the
        #: task list.
        self.share: deque[int] = deque()
        #: ``time.monotonic()`` of the last reply, or of the first block sent
        #: to an idle worker — what the progress deadline is measured from.
        self.heard_at = 0.0


class EvaluationPool:
    """A pool of forked evaluation workers with windowed block dispatch.

    Parameters
    ----------
    workers:
        Worker processes each :meth:`run` forks.  ``0`` disables forking
        entirely — every task runs inline in the parent (the
        degraded-but-correct fallback, also used when a platform has no
        ``fork`` start method).

    Constructing a pool forks nothing; one pool can serve many :meth:`run`
    calls (the batch-query service shape), each with workers of its own.
    :meth:`close` — also the context-manager exit and a ``weakref`` finalizer
    — reaps whatever an interrupted ``run()`` could not.
    """

    def __init__(self, workers: int = 0) -> None:
        self._worker_count = workers if CAN_FORK and workers > 0 else 0
        #: The workers of the :meth:`run` in progress (empty between runs).
        self._workers: list[_Worker] = []
        weakref.finalize(self, close_workers, self._workers)

    @property
    def worker_count(self) -> int:
        """Worker processes a :meth:`run` forks (0 means inline evaluation)."""
        return self._worker_count

    def __enter__(self) -> "EvaluationPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut down any live worker (idempotent; a no-op on a pool that never forked)."""
        close_workers(self._workers)

    # -- dispatch ---------------------------------------------------------------------

    def run(self, tasks: Iterable[tuple[int, Any]]) -> dict[int, tuple[str, Any]]:
        """Evaluate every ``(index, task)`` pair; return ``{index: (kind, payload)}``.

        A ``task`` is a JSON-safe dict (:func:`evaluate_task` validates it) or
        the argument tuple of :func:`evaluate_candidate` (objects the caller
        has validated; the workers inherit them by fork).  ``kind`` is
        ``"ok"`` (payload: metrics dict) or ``"error"`` (payload: the
        formatted traceback).  Each worker starts on a contiguous share of
        the tasks and, once it has sent all of it, takes half of the longest
        share left.  A worker that crashed, or that has owed replies for
        :data:`WORKER_PROGRESS_DEADLINE_S` without delivering one, is killed
        and its tasks — those it owes and those it was never sent — are
        requeued to the survivors; with no survivors the parent finishes
        inline, so the call always returns a complete map, and returns it in
        bounded time.  No worker outlives the call.
        """
        pending = list(tasks)
        # Results by position in ``pending``; by task index once all are in.
        results: dict[int, tuple[str, Any]] = {}
        try:
            self._fork(pending)
            orphaned = self._dispatch(len(pending), results)
        finally:
            self.close()
        # Inline fallback: workers==0, or every worker crashed mid-query.
        for position in orphaned:
            results[position] = _evaluate(pending[position][1])
        return {index: results[position] for position, (index, _) in enumerate(pending)}

    def _fork(self, pending: Sequence[tuple[int, Any]]) -> None:
        """Fork this run's workers, each holding ``pending``: at most one per task."""
        for index in range(min(self._worker_count, len(pending))):
            self._workers.append(_Worker(index, pending))

    def _dispatch(self, count: int, results: dict[int, tuple[str, Any]]) -> deque[int]:
        """Drive the live workers over positions ``0..count``; return those left to none."""
        alive = list(self._workers)
        # Positions no live worker owns: all of them without workers, later
        # those of retired workers; what is left once the last worker is gone
        # runs inline.
        orphaned: deque[int] = deque()
        if alive:
            size = -(-count // len(alive))
            for number, worker in enumerate(alive):
                worker.share = deque(range(number * size, min((number + 1) * size, count)))
        else:
            orphaned.extend(range(count))

        def retire(worker: _Worker) -> None:
            worker.kill()
            alive.remove(worker)
            for block in worker.outstanding:
                orphaned.extend(block)
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
                if not worker.share and len(worker.outstanding) < _BLOCKS_IN_FLIGHT:
                    refill(worker)
                if not self._top_up(worker):
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
        return orphaned

    @staticmethod
    def _top_up(worker: _Worker) -> bool:
        """Send blocks of the worker's share until its window is full; ``False`` if it died."""
        while worker.share and len(worker.outstanding) < _BLOCKS_IN_FLIGHT:
            size = min(TASK_WINDOW // _BLOCKS_IN_FLIGHT, len(worker.share))
            block = [worker.share.popleft() for _ in range(size)]
            if not worker.send(block):
                worker.share.extendleft(reversed(block))
                return False
            worker.outstanding.append(block)
        return True

    @staticmethod
    def _drain(worker: _Worker, results: dict[int, tuple[str, Any]]) -> bool:
        """Receive one ready reply — the oldest owed block's results; ``False`` if it died."""
        try:
            reply = worker.connection.recv()  # ready: the dispatch loop's wait() returned it
        except (EOFError, OSError):
            return False
        results.update(zip(worker.outstanding.popleft(), reply))
        return True

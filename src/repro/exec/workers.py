"""The one worker-process substrate: fork a worker, talk to it, reap it.

:class:`~repro.exec.executor.ProcessExecutor` (one worker per DP replica) and
:class:`~repro.search.pool.EvaluationPool` (one per share of a search pass)
are policies on this module; neither forks, waits or tears down on its own.

* :class:`Worker` forks a daemon process on a duplex pipe and closes the
  child's end in the parent at once.  The parent holds no child end, so a
  worker's death is an EOF on its pipe, however many siblings were forked
  after it.
* :meth:`Worker.receive` waits on the pipe with a deadline
  (:func:`multiprocessing.connection.wait`): a dead worker raises
  :class:`EOFError` as soon as it dies, a live one that stays silent past the
  deadline :class:`TimeoutError`.  Nothing polls ``is_alive()``.
* :meth:`Worker.close` is the one teardown ladder: the sentinel, a join
  bounded by :data:`JOIN_TIMEOUT_S`, then :meth:`Worker.kill` — SIGKILL, the
  one signal a stopped process obeys — and a second bounded join.  There is
  no ``terminate()`` rung: no worker handles SIGTERM, so it would add nothing
  SIGKILL does not.  :func:`close_workers` runs the ladder over a list and is
  the ``weakref.finalize`` target of an owner abandoned without ``close()``.
* :func:`serve` is the child's loop: one reply per message, ``("error",
  traceback)`` when the handler raised, until EOF or the sentinel.
"""

from __future__ import annotations

import multiprocessing
import traceback
from multiprocessing.connection import Connection, wait
from typing import Any, Callable

__all__ = ["CAN_FORK", "JOIN_TIMEOUT_S", "Worker", "close_workers", "serve"]

#: Seconds :meth:`Worker.close` waits for a worker to exit on the sentinel,
#: and again for a killed one to be reaped.
JOIN_TIMEOUT_S = 2.0

#: Whether this platform can fork a worker at all (Windows cannot).
CAN_FORK = "fork" in multiprocessing.get_all_start_methods()

#: The message that ends :func:`serve`.
_SENTINEL = None


def serve(connection: Connection, handle: Callable[[Any], Any]) -> None:
    """Reply ``handle(message)`` to each message until EOF or the sentinel (child side)."""
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if message is _SENTINEL:
            return
        try:
            reply = handle(message)
        except KeyboardInterrupt:
            return
        except Exception:  # noqa: BLE001 - the traceback is the reply
            reply = ("error", traceback.format_exc())
        try:
            connection.send(reply)
        except OSError:
            return


class Worker:
    """A forked daemon process running ``target(connection, *args)`` on a duplex pipe.

    ``target`` is :func:`serve`, or a function that sets the child up and
    then calls it.
    """

    def __init__(self, name: str, target: Callable[..., None], *args: Any) -> None:
        context = multiprocessing.get_context("fork")
        self.connection, child = context.Pipe(duplex=True)
        self.process = context.Process(
            target=target, args=(child, *args), name=name, daemon=True
        )
        self.process.start()
        child.close()

    def send(self, message: Any) -> bool:
        """Send one message; ``False`` if the pipe is broken (the worker is gone)."""
        try:
            self.connection.send(message)
        except OSError:
            return False
        return True

    def receive(self, timeout: float) -> Any:
        """The worker's next reply.

        Raises :class:`EOFError` once the worker is dead — when it dies, not
        at the deadline — and :class:`TimeoutError` if it is alive but sends
        nothing for ``timeout`` seconds.
        """
        try:
            if wait([self.connection], timeout):
                return self.connection.recv()
        except OSError as error:
            raise EOFError(f"{self.process.name}: {error}") from error
        raise TimeoutError(f"{self.process.name} sent nothing for {timeout:.1f}s")

    def kill(self) -> None:
        """SIGKILL the process and reap it (safe on a dead worker)."""
        self.process.kill()
        self.process.join(JOIN_TIMEOUT_S)

    def close(self) -> None:
        """Sentinel, bounded join, then :meth:`kill` (idempotent; bounded even when stopped)."""
        if self.connection.closed:
            return
        self.send(_SENTINEL)
        self.process.join(JOIN_TIMEOUT_S)
        if self.process.is_alive():
            self.kill()
        self.connection.close()


def close_workers(workers: list[Worker]) -> None:
    """Close every worker and empty the list; never raises (a finalizer target)."""
    for worker in workers:
        try:
            worker.close()
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass
    workers.clear()

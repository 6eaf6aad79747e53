"""Tests for the one worker substrate (``repro.exec.workers``).

Every process-parallel path forks, waits and reaps through this module, so its
three outcomes are pinned here on tiny echo workers, each test in a few hundred
milliseconds: a dead worker is an ``EOFError`` the moment it dies, a stopped
one a ``TimeoutError`` at the deadline, and teardown reaps either — within its
bound, idempotently, and from a finalizer as well as from ``close()``.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import time
import weakref

import pytest

from repro.exec import workers
from repro.exec.workers import Worker, close_workers, serve

pytestmark = pytest.mark.skipif(not workers.CAN_FORK, reason="needs the fork start method")

#: A teardown bound short enough for tests of the stopped-worker rung.
SHORT_JOIN_S = 0.2


def echo(message):
    if message == "raise":
        raise ValueError("handler failed")
    return "ok", message


def spawn(name: str = "repro-test-worker") -> Worker:
    return Worker(name, serve, echo)


@pytest.fixture(autouse=True)
def no_orphans():
    """Every test reaps its own workers; kill any it leaked, then fail it."""
    before = set(multiprocessing.active_children())
    yield
    leaked = [process for process in multiprocessing.active_children() if process not in before]
    for process in leaked:
        process.kill()
        process.join()
    assert leaked == []


def test_killed_worker_raises_eof_promptly_with_a_sibling_forked_after_it():
    """The sibling inherits the parent's end of the first pipe, never its child
    end: the first worker's death is still an EOF, not a wait until the deadline."""
    first = spawn("repro-test-first")
    second = spawn("repro-test-second")
    try:
        os.kill(first.process.pid, signal.SIGKILL)
        started = time.monotonic()
        with pytest.raises(EOFError):
            first.receive(5.0)
        assert time.monotonic() - started < 1.0
        assert not first.send("anything")
        assert second.send("still here") and second.receive(5.0) == ("ok", "still here")
    finally:
        close_workers([first, second])


def test_stopped_worker_raises_timeout_at_the_deadline():
    worker = spawn()
    try:
        os.kill(worker.process.pid, signal.SIGSTOP)
        assert worker.send("hello")  # the pipe buffers it; nobody reads
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            worker.receive(0.2)
        assert 0.15 <= time.monotonic() - started < 1.0
    finally:
        worker.kill()
        worker.close()


def test_handler_exception_is_an_error_reply_and_the_loop_keeps_serving():
    worker = spawn()
    try:
        assert worker.send("raise")
        kind, text = worker.receive(5.0)
        assert kind == "error" and "ValueError: handler failed" in text
        assert worker.send("next") and worker.receive(5.0) == ("ok", "next")
    finally:
        worker.close()
    assert worker.process.exitcode == 0  # it left on the sentinel, not by SIGKILL


def test_close_reaps_a_stopped_worker_within_the_bound(monkeypatch):
    monkeypatch.setattr(workers, "JOIN_TIMEOUT_S", SHORT_JOIN_S)
    worker = spawn()
    os.kill(worker.process.pid, signal.SIGSTOP)
    started = time.monotonic()
    worker.close()
    assert time.monotonic() - started < 2 * SHORT_JOIN_S + 0.5
    assert worker.process.exitcode == -signal.SIGKILL
    started = time.monotonic()
    worker.close()  # idempotent: a second close is a no-op
    assert time.monotonic() - started < 0.05


def test_close_workers_reaps_an_abandoned_owners_list(monkeypatch):
    """The finalizer path: stopped, dead and healthy workers all go, and one
    whose close raises does not stop the others (close_workers never raises)."""
    monkeypatch.setattr(workers, "JOIN_TIMEOUT_S", SHORT_JOIN_S)

    class Owner:
        pass

    owner = Owner()
    owner.workers = [spawn(f"repro-test-{index}") for index in range(4)]
    processes = [worker.process for worker in owner.workers]
    os.kill(processes[0].pid, signal.SIGSTOP)
    owner.workers[1].kill()
    sabotaged = owner.workers[2]

    def refuse():
        raise RuntimeError("close failed")

    sabotaged.close = refuse
    workers_list = owner.workers
    weakref.finalize(owner, close_workers, workers_list)
    del owner
    gc.collect()
    assert workers_list == []
    assert not any(process.is_alive() for index, process in enumerate(processes) if index != 2)
    Worker.close(sabotaged)  # the one close_workers could not run
    assert not processes[2].is_alive()

"""Lists whose order survives a concurrent pipeline walk.

A replica's pipeline stages walk their ops on several threads
(:meth:`~repro.parallel.pipeline_engine.PipelineParallelEngine.run_iteration`),
so two stages' inter-stage sends can interleave.  A list whose order callers
read — the traffic log's records, the compressed-backprop hook's events and
Fig. 11 diagnostics — is an :class:`OpOrderedList`: what an op appends to it
during a walk is held back and committed after the walk's threads are joined,
in the walk's op order, so the list reads exactly as a one-thread walk leaves
it.  Outside a walk it is a plain list.
"""

from __future__ import annotations

import threading

#: Per walk thread: ``pending`` (the walk's held-back appends) and ``rank``
#: (the op the thread is running).  Unset on every other thread.
_walk = threading.local()


class OpOrderedList(list):
    """A list whose appends from inside a pipeline walk land in the walk's op order."""

    def append(self, item) -> None:
        pending = getattr(_walk, "pending", None)
        if pending is None:
            super().append(item)
        else:
            pending.append((_walk.rank, self, item))


class OpOrder:
    """The held-back :class:`OpOrderedList` appends of one walk, committed in op rank order."""

    def __init__(self) -> None:
        self._pending: list[tuple[int, OpOrderedList, object]] = []

    def at(self, rank: int) -> None:
        """This thread now runs the walk's op ``rank``: hold its appends back."""
        _walk.pending = self._pending
        _walk.rank = rank

    def commit(self) -> None:
        """Append everything held back, ordered by op rank; this thread appends directly again.

        Called on the thread that ran the walk's first block, once the others
        are joined (their thread-local state ended with them).  One op's
        appends all come from one thread, in program order, so a stable sort
        by rank gives exactly the one-thread order.
        """
        _walk.pending = None
        self._pending.sort(key=lambda pending: pending[0])
        for _, target, item in self._pending:
            list.append(target, item)
        self._pending.clear()

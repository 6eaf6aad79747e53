"""Running blocks of one phase on threads, and containers whose order survives it.

An iteration's threaded phases — the pipeline walk with its in-walk DP
reduce and embedding sync
(:func:`~repro.parallel.pipeline_engine.walk_pipelines`), a DP sync
after it (:meth:`~repro.parallel.data_parallel.BucketedDataParallelSync.synchronize`)
and the optimiser step (:meth:`~repro.optim.fused_adam.FusedAdam.step`) —
all fork and join through :func:`fork_join`: block 0 on the calling thread,
every other block on a thread of its own, everything joined before it
returns, the first error re-raised.

Work on two threads can interleave, so a container whose order callers read
— the traffic log's records, the compressed-backprop hook's Fig. 11
diagnostics, the DP codecs' per-key state dicts — is an
:class:`OpOrderedList` or an :class:`OpOrderedDict`: what an op appends to it
(or the keys it adds) inside a phase are put in the phase's op order when
its threads are joined, so the container reads exactly as a one-thread run
leaves it.  Outside a phase they are a plain list and dict.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence, TypeVar

#: Per thread of a phase: ``pending`` (the phase's held-back appends) and
#: ``rank`` (the op the thread is running).  Unset on every other thread.
_walk = threading.local()

Block = TypeVar("Block")


class Aborted(Exception):
    """Raised by a block that gives up because another block of its phase failed."""


def fork_join(
    work: Callable[[int, Block], None],
    blocks: Sequence[Block],
    *,
    name: str,
    abort: Callable[[], None] | None = None,
) -> None:
    """``work(index, block)`` for every block: block 0 on this thread, the rest on one thread each.

    Every thread is joined before this returns, so none is alive when a
    worker is forked; one block starts no thread.  The first exception a
    block raises is re-raised here; ``abort()`` is called once it is caught,
    to wake blocks that wait on the failed one (they raise :class:`Aborted`,
    which is not an error of its own).
    """
    errors: list[BaseException] = []

    def guarded(index: int, block: Block) -> None:
        try:
            work(index, block)
        except Aborted:
            pass
        except BaseException as error:  # re-raised in the caller below
            errors.append(error)
            if abort is not None:
                abort()

    helpers = [
        threading.Thread(target=guarded, args=(index, block), name=f"{name}-{index}", daemon=True)
        for index, block in enumerate(blocks)
        if index > 0
    ]
    for helper in helpers:
        helper.start()
    try:
        guarded(0, blocks[0])
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


class OpOrderedList(list):
    """A list whose appends from inside a phase land in the phase's op order."""

    def append(self, item) -> None:
        pending = getattr(_walk, "pending", None)
        if pending is None:
            super().append(item)
        else:
            pending.append((_walk.rank, self, item))

    def _commit(self, item) -> None:
        list.append(self, item)


class OpOrderedDict(dict):
    """A dict whose keys first set inside a phase take their place in the phase's op order.

    The value is stored at once, so the thread that set it reads it back as
    usual; only the key's position waits for the commit.  Keys present
    before the phase keep theirs.  Insert through ``d[key] = value``.
    """

    def __setitem__(self, key, value) -> None:
        pending = getattr(_walk, "pending", None)
        if pending is not None and key not in self:
            pending.append((_walk.rank, self, key))
        super().__setitem__(key, value)

    def _commit(self, key) -> None:
        # Move the key to the end: committed in op order, the new keys end
        # up after the old ones in the order one thread would have added them.
        dict.__setitem__(self, key, dict.pop(self, key))


class OpOrder:
    """The held-back appends and insertions of one phase, committed in op rank order."""

    def __init__(self) -> None:
        self._pending: list[tuple[tuple, OpOrderedList | OpOrderedDict, object]] = []

    def at(self, rank: tuple) -> None:
        """This thread now runs the phase's op ``rank``: hold its appends back."""
        _walk.pending = self._pending
        _walk.rank = rank

    def commit(self) -> None:
        """Land everything held back, ordered by op rank; this thread appends directly again.

        Called on the thread that ran the phase's first block, once the others
        are joined (their thread-local state ended with them).  One op's
        appends all come from one thread, in program order, so a stable sort
        by rank gives exactly the one-thread order.
        """
        _walk.pending = None
        self._pending.sort(key=lambda pending: pending[0])
        for _, target, item in self._pending:
            target._commit(item)
        self._pending.clear()

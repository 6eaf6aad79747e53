"""Shared-memory storage segments for the process-parallel executor.

One :class:`SharedArenaSegment` holds one flat :class:`~repro.parallel.arena.ParameterArena`
buffer in a POSIX shared-memory object.  A running executor owns **1 + DP** of
them, mirroring how the arenas store a DP group: *one* ``data`` segment with
the weights every replica shares, and one ``grad`` segment per replica.  The
flat buffers are exactly the layout ``multiprocessing.shared_memory`` wants:
adopting one is a whole-buffer copy plus a view rebind, and because the parent
creates the segments *before* forking, parent and workers alias the same
physical pages — a worker's backward pass writes gradients the parent's DP
sync reads with zero copies, and the parent's one optimiser step writes
weights every worker's next forward pass reads.  No worker owns the weights
segment, so dropping or respawning any of them — replica 0 included — never
unmaps it.

Lifecycle discipline (asserted in ``tests/test_process_executor.py`` and
``tests/test_replicated_state.py``): every segment is created by the parent,
adopts its buffer exactly once (the weights once for the whole group, not once
per replica), and is destroyed by the parent after the workers exit —
:meth:`release` first migrates the buffer back onto private memory (so no live
NumPy view pins the mapping), then closes and unlinks the OS object.  A
:func:`weakref.finalize` in the executor guarantees unlink even on abandoned
executors, so no run leaks ``/dev/shm`` entries.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

from repro.parallel.arena import ParameterArena


class SharedArenaSegment:
    """One flat arena buffer — ``"data"`` or ``"grad"`` — in a shared-memory object."""

    def __init__(self, num_elements: int, buffer: str, dtype=np.float64) -> None:
        if buffer not in ("data", "grad"):
            raise ValueError(f"an arena has a 'data' and a 'grad' buffer, got {buffer!r}")
        self.num_elements = int(num_elements)
        self.buffer = buffer
        self.dtype = np.dtype(dtype)
        self.shm: shared_memory.SharedMemory | None = shared_memory.SharedMemory(
            create=True, size=max(self.num_elements * self.dtype.itemsize, 1)
        )
        self.array = np.ndarray(self.num_elements, dtype=self.dtype, buffer=self.shm.buf)

    @property
    def name(self) -> str:
        """OS name of the segment (``/dev/shm`` entry on Linux)."""
        if self.shm is None:
            raise RuntimeError("segment already destroyed")
        return self.shm.name

    @classmethod
    def adopt(cls, arena: ParameterArena, buffer: str) -> "SharedArenaSegment":
        """Create a segment for ``arena``'s ``buffer`` and migrate that storage into it.

        Values are preserved bit-for-bit and every parameter view is rebound
        (:meth:`ParameterArena.rebind_storage`), so from this call on all
        reads/writes through the arena touch shared memory.  Adopting
        ``"data"`` moves the arena's whole weight-sharing group: call it once
        per group.
        """
        segment = cls(arena.num_elements, buffer, dtype=arena.data.dtype)
        arena.rebind_storage(**{buffer: segment.array})
        return segment

    def release(self, arena: ParameterArena) -> None:
        """Migrate ``arena``'s buffer back onto private memory and destroy the segment.

        After release the arena keeps working exactly as before adoption (same
        values, private buffers) — the serial oracle path needs nothing more
        than this to resume.
        """
        if self.shm is not None:
            arena.rebind_storage(
                **{self.buffer: np.empty(self.num_elements, dtype=self.dtype)}
            )
        self.destroy()

    def destroy(self) -> None:
        """Close and unlink the OS object (idempotent, never raises).

        ``close()`` can fail with ``BufferError`` if a stray NumPy view still
        pins the mapping; the unlink still proceeds so the name never leaks —
        the mapping itself is reclaimed when the last view dies (or at process
        exit).
        """
        shm = self.shm
        if shm is None:
            return
        self.shm = None
        self.array = None  # type: ignore[assignment]
        try:
            shm.close()
        except BufferError:  # a live view still pins the mapping — unlink anyway
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # already unlinked (e.g. by the finalizer)
            pass

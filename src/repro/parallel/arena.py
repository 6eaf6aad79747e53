"""Flat-arena parameter storage and size-targeted gradient buckets.

The functional engines previously kept every :class:`~repro.tensor.parameter.Parameter`
in its own pair of NumPy arrays, so whole-model operations (``zero_grad``, the Adam
update, the data-parallel all-reduce) degenerated into thousands of small-array
calls whose Python/ufunc dispatch overhead dominated the actual arithmetic.  A
:class:`ParameterArena` adopts a replica's parameters into two contiguous buffers —
one for weights, one for gradients — and rebinds each parameter's ``data``/``grad``
to *views* into those buffers.  Every existing in-place access keeps working, while
whole-model operations become a handful of vectorised ops over one flat array
(:class:`repro.optim.FusedAdam` builds its Adam moments the same way).

Data-parallel replicas hold the same weights, so they hold them *once*: a
group of arenas shares a single weight buffer.  The engine builds the model
once — replica 0's arena becomes the buffer, and every other replica is a
copy whose parameters view it from the start
(:func:`~repro.nn.module.replicate_sharing_weights`), so it joins without a
draw or a comparison; replicas built separately
(:meth:`ParameterArena.replicated`) are checked against the buffer
bit-for-bit.  One optimiser steps the group, the process executor maps one
weights segment, a checkpoint copies the weights once (a recovery point not
at all: nothing writes them before the step) — DP× less memory and DP×
fewer Adam updates than replicas that merely stay equal.

Gradients are held at most twice.  Replica 0 owns its gradient buffer: the
DP reduce folds every other replica's stage gradient into it as soon as that
gradient is final (:class:`ReplicaFold`), so under the serial executor,
which walks the replicas one after another, replicas 1…dp−1 share *one*
further buffer (``grad_of``): replica r+1 writes a stage's gradient only
after replica r's has been folded.  A forked worker writes while the others
do, so the process executor gives each replica a segment of its own.

On top of the arena, :func:`build_gradient_buckets` splits the data-parallel
boundary into size-targeted buckets of *arena-contiguous* parameters, the unit at
which the engine issues its (optionally overlapped) DP all-reduces — the same
flat-bucket strategy PyTorch DDP and PowerSGD-style bucketed error-feedback
all-reduce use, applied here to model the paper's overlap of DP traffic with the
pipeline cool-down.

The process that holds the arenas also owns its allocator policy:
:func:`pin_allocator_policy` fixes glibc's mmap and trim thresholds once, before
the engine allocates, so per-op temporaries are served from a heap that is
neither trimmed nor faulted back in every iteration; :func:`trim_heap` hands
the freed heap back before a fork, so a forked worker does not inherit it.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.parallel.collectives import WIRE_BYTES_PER_ELEMENT
from repro.parallel.op_order import OpOrderedDict
from repro.tensor.parameter import Parameter

#: glibc ``mallopt`` parameter numbers (``<malloc.h>``).
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
#: The ceiling glibc's dynamic mmap threshold stops at, and the 2x trim
#: threshold that rule pairs with it.  A higher trim threshold leaves forked
#: workers an untrimmed copy of the parent's heap.
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 64 << 20

_allocator_policy: str | None = None
try:  # Loaded once: a ``CDLL`` per call leaves a ctypes reference cycle behind.
    _libc: ctypes.CDLL | None = ctypes.CDLL(None)
except OSError:  # no C library
    _libc = None


def pin_allocator_policy() -> str:
    """Fix glibc's mmap/trim thresholds for this process once; describe the policy in force.

    glibc's *dynamic* mmap threshold starts at 128 KiB and rises to the largest
    mmapped chunk freed so far, the trim threshold following at 2x — inside the
    engine's per-op temporaries, so the heap top is trimmed and page-faulted
    back in every iteration, and whether a run pays depends on which chunk it
    freed first.  Pinning both disables that rule.  Idempotent; forked workers
    inherit the setting; a no-op where ``mallopt`` cannot be resolved.
    """
    global _allocator_policy
    if _allocator_policy is None:
        try:
            mallopt = _libc.mallopt
            pinned = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) and mallopt(
                M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES
            )
        except (AttributeError, TypeError):  # no C library, or not glibc's
            pinned = False
        _allocator_policy = (
            f"glibc mallopt: mmap_threshold={MMAP_THRESHOLD_BYTES >> 20} MiB "
            f"trim_threshold={TRIM_THRESHOLD_BYTES >> 20} MiB"
            if pinned
            else "allocator defaults (no glibc mallopt)"
        )
    return _allocator_policy


def trim_heap() -> bool:
    """Return the heap's free memory to the OS (glibc ``malloc_trim(0)``); True if any was.

    A process about to fork calls it, so the children do not inherit freed
    but still resident pages under the pinned trim threshold.  A no-op
    returning False where ``malloc_trim`` cannot be resolved.
    """
    try:
        return bool(_libc.malloc_trim(0))
    except (AttributeError, TypeError):  # no C library, or not glibc's
        return False


class ParameterArena:
    """Contiguous weight/gradient storage for a set of parameters.

    Parameters are adopted in the given order, except that trainable parameters are
    packed first so the trainable region is one contiguous prefix (``trainable_data``
    / ``trainable_grad``) that a fused optimiser can update in whole-buffer ops.
    Adoption preserves current values bit-for-bit and rebinds ``parameter.data`` and
    ``parameter.grad`` to views into the arena; all in-place accesses (``grad[...] =``,
    ``data -= ...``) therefore read and write arena memory from then on.

    Data-parallel replicas hold the same weights by construction, so their arenas
    form a **group** over *one* weight buffer (``weights_of``, :meth:`replicated`):
    every member's ``data`` is the same array.  ``group`` is the live list of the
    arenas bound to ``data`` — ``[self]`` for a standalone arena.  A member's
    ``grad`` is its own unless it is built onto another member's (``grad_of``):
    then both write one buffer, which only replicas whose gradients are folded
    away one at a time may do (:class:`ReplicaFold`).
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        dtype=np.float64,
        *,
        weights_of: "ParameterArena | None" = None,
        grad_of: "ParameterArena | None" = None,
    ) -> None:
        given = list(parameters)
        if len({id(parameter) for parameter in given}) != len(given):
            raise ValueError("cannot place the same parameter in an arena twice")
        ordered = [p for p in given if p.requires_grad] + [
            p for p in given if not p.requires_grad
        ]
        self.parameters: list[Parameter] = ordered
        self.num_trainable_elements = sum(p.size for p in ordered if p.requires_grad)
        total = sum(p.size for p in ordered)
        self.data = np.empty(total, dtype=dtype) if weights_of is None else weights_of.data
        if grad_of is None:
            self.grad = np.zeros(total, dtype=self.data.dtype)
        elif grad_of.grad.shape != (total,) or grad_of.grad.dtype != self.data.dtype:
            raise ValueError("an arena can share the gradient buffer of an identical layout only")
        else:  # its contents are the other replica's; this one's next write assigns
            self.grad = grad_of.grad
        self._spans: dict[int, tuple[int, int]] = {}
        offset = 0
        for parameter in ordered:
            stop = offset + parameter.size
            self._spans[id(parameter)] = (offset, stop)
            if weights_of is None:
                self.data[offset:stop] = np.ravel(parameter.data)
            if grad_of is None:
                self.grad[offset:stop] = np.ravel(parameter.grad)
            offset = stop
        if weights_of is None:
            self.group: list[ParameterArena] = [self]
        else:
            # A further replica of ``weights_of``: same layout, same values, so
            # its parameters become views of the weights already stored there.
            self._check_replica_of(weights_of)
            self.group = weights_of.group
            self.group.append(self)
        self._bind("data", self.data)
        self._bind("grad", self.grad)

    def _check_replica_of(self, other: "ParameterArena") -> None:
        """Raise unless this arena's parameters equal ``other``'s stored weights bit-for-bit.

        A parameter that already views its span of ``other``'s buffer (a
        replica built from the group, see
        :func:`~repro.nn.module.replicate_sharing_weights`) is that memory,
        so only a parameter holding weights of its own is compared.
        """
        layout = [(p.shape, p.requires_grad) for p in self.parameters]
        if layout != [(p.shape, p.requires_grad) for p in other.parameters]:
            raise ValueError("replicas of one weight buffer need identical parameter layouts")
        for parameter in self.parameters:
            start, stop = self._spans[id(parameter)]
            stored = other.data[start:stop].reshape(parameter.shape)
            if _same_view(parameter.data, stored):
                continue
            if not bitwise_equal(stored, np.asarray(parameter.data, dtype=stored.dtype)):
                raise ValueError(
                    f"parameter {parameter.name!r} differs from the group's weights: replicas "
                    "sharing one weight buffer must start from bit-identical values"
                )

    @classmethod
    def replicated(
        cls, replica_parameters: Iterable[Iterable[Parameter]], dtype=np.float64
    ) -> "list[ParameterArena]":
        """One arena per replica over **one** weight buffer; returns the group list.

        Replica 0's weights become the buffer; each further replica is bound
        onto it, keeping only a gradient buffer of its own.  Replicas built
        separately must hold bit-identical weights, checked parameter by
        parameter; the engine instead builds its replicas onto replica 0's
        arena (``weights_of``), whose parameters already view the buffer and
        are not compared.  The returned list *is* every member's ``group``:
        removing a replica from it (:meth:`leave_group`) is what shrinks the
        group, and whichever arena is first in it is the one an optimiser
        reads the synchronised gradient from.
        """
        first, *rest = replica_parameters
        arena = cls(first, dtype)
        for parameters in rest:
            cls(parameters, dtype, weights_of=arena)
        return arena.group

    @property
    def num_elements(self) -> int:
        """Total scalar elements stored in the arena."""
        return int(self.data.size)

    @property
    def trainable_data(self) -> np.ndarray:
        """Flat view of every trainable parameter's weights."""
        return self.data[: self.num_trainable_elements]

    @property
    def trainable_grad(self) -> np.ndarray:
        """Flat view of every trainable parameter's gradients."""
        return self.grad[: self.num_trainable_elements]

    def span(self, parameter: Parameter) -> tuple[int, int]:
        """``(start, stop)`` element offsets of ``parameter`` within the arena."""
        try:
            return self._spans[id(parameter)]
        except KeyError:
            raise KeyError(
                f"parameter {parameter.name!r} is not stored in this arena"
            ) from None

    def zero_grad(self) -> None:
        """Zero every gradient in one buffer-wide write."""
        self.grad[...] = 0.0

    def snapshot(self) -> dict[str, np.ndarray]:
        """A copy of the group's weights from its first member (``{}`` from the others)."""
        return {"data": self.data.copy()} if self.group[0] is self else {}

    def rebind_storage(
        self,
        data: np.ndarray | None = None,
        grad: np.ndarray | None = None,
        *,
        filled: bool = False,
    ) -> None:
        """Migrate storage onto caller-provided flat buffers, bit-for-bit.

        The process-parallel executor (:mod:`repro.exec`) uses this to move
        storage into (and back out of) ``SharedMemory``-backed buffers before
        forking workers: current contents are copied into the new buffer, then
        the arena's array and every parameter's view are rebound, so all
        existing in-place accesses — the stages' backward accumulation, the
        fused optimiser, the DP sync's flat bucket views — transparently read
        and write the new memory.  ``grad`` replaces this arena's gradient
        buffer only (an arena that shared one with another member owns
        ``grad`` from then on); ``data`` replaces the weight buffer of the
        **whole group** (one copy, every member rebound) — weights are one
        buffer per group, never one per arena.  Spans are layout identities
        and do not change.  ``filled`` skips the copy: the caller already
        wrote the current contents into the new buffers.
        """
        for name, buffer in (("data", data), ("grad", grad)):
            live = getattr(self, name)
            if buffer is not None and (buffer.shape != live.shape or buffer.dtype != live.dtype):
                raise ValueError(
                    f"{name} buffer mismatch: got {buffer.shape}/{buffer.dtype}, "
                    f"expected {live.shape}/{live.dtype}"
                )
        if data is not None:
            if not filled:
                data[...] = self.data
            for arena in self.group:
                arena._bind("data", data)
        if grad is not None:
            if not filled:
                grad[...] = self.grad
            self._bind("grad", grad)

    def _bind(self, name: str, buffer: np.ndarray) -> None:
        setattr(self, name, buffer)
        for parameter in self.parameters:
            start, stop = self._spans[id(parameter)]
            setattr(parameter, name, buffer[start:stop].reshape(parameter.shape))

    def leave_group(self) -> None:
        """Drop out of the weight-sharing group onto a private copy of the weights.

        How a data-parallel group shrinks: the group list (the engine's
        ``arenas``) loses this arena, the survivors keep the one buffer, and
        nothing this arena still references is memory the group may unmap.
        """
        self.group.remove(self)
        self.group = [self]
        self.rebind_storage(data=np.empty_like(self.data))


def distinct_buffers(buffers: Iterable[np.ndarray]) -> list[np.ndarray]:
    """``buffers`` in order, leaving out every one whose memory overlaps an earlier one's.

    Replicas that share a gradient buffer are one buffer to read, to check
    and to copy a reduced gradient into.
    """
    kept: list[np.ndarray] = []
    for buffer in buffers:
        if not any(np.may_share_memory(buffer, other) for other in kept):
            kept.append(buffer)
    return kept


def _same_view(left: np.ndarray, right: np.ndarray) -> bool:
    """Whether two arrays view the same memory with the same shape, strides and dtype."""
    return (
        left.dtype == right.dtype
        and left.shape == right.shape
        and left.strides == right.strides
        and left.ctypes.data == right.ctypes.data
    )


def bitwise_equal(left: np.ndarray, right: np.ndarray) -> bool:
    """Bit-for-bit equality of two same-dtype arrays (``-0.0 != 0.0``, a NaN equals itself)."""
    bits = f"u{left.itemsize}"
    return left.shape == right.shape and np.array_equal(
        np.ascontiguousarray(left).view(bits), np.ascontiguousarray(right).view(bits)
    )


@dataclass(frozen=True)
class GradientBucket:
    """One contiguous arena span of parameters all-reduced as a single flat message."""

    stage_index: int
    index: int
    start: int
    stop: int
    parameter_names: tuple[str, ...]

    @property
    def num_elements(self) -> int:
        return self.stop - self.start

    @property
    def wire_bytes(self) -> int:
        """Payload bytes of one replica's bucket on the wire (fp16 convention)."""
        return self.num_elements * WIRE_BYTES_PER_ELEMENT


@dataclass(frozen=True)
class BucketSegment:
    """One parameter's slice of a codec bucket.

    ``start``/``stop`` are arena element offsets; ``offset`` is the segment's
    element offset within the bucket's flat residual slab (segments are packed
    back to back, so the slab is "arena-aligned": same parameter order, same
    per-parameter extents, just with the non-codec gaps squeezed out).
    """

    name: str
    start: int
    stop: int
    shape: tuple[int, ...]
    offset: int

    @property
    def num_elements(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class CodecBucket:
    """A group of codec-selected parameters compressed in one codec invocation.

    Unlike :class:`GradientBucket`, a codec bucket does not require its segments
    to be arena-contiguous: the codec operates per segment anyway (each parameter
    keeps its own matrix structure, RNG stream, and error-feedback key, which is
    what keeps the numbers independent of how parameters are bucketed) — the
    bucket is the unit of *invocation and message granularity*, not of layout.
    """

    stage_index: int
    index: int
    segments: tuple[BucketSegment, ...]

    @property
    def start(self) -> int:
        """Lowest arena offset — the position used for firing order."""
        return self.segments[0].start

    @property
    def num_elements(self) -> int:
        return sum(segment.num_elements for segment in self.segments)

    @property
    def wire_bytes(self) -> int:
        """Uncompressed payload bytes of one replica's bucket (fp16 convention)."""
        return self.num_elements * WIRE_BYTES_PER_ELEMENT

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(segment.name for segment in self.segments)


@dataclass(frozen=True)
class ReplicaFold:
    """One replica's turn in a data-parallel reduce.

    The reduce folds replica ``replica``'s flat gradient buffer ``gradient``
    into ``total``, replica 0's (replica 0's own fold leaves it there), so
    ``total`` holds a running sum — or, for a codec, the sum of the replicas'
    approximations.  The fold of the last of ``replicas`` turns it into the
    mean and copies that into ``copies``, the group's other distinct gradient
    buffers, so every replica reads the synchronised gradient.  A bucket's
    folds run in replica order, each after that replica's gradient is final
    and before a replica sharing its buffer writes again.
    """

    replica: int
    replicas: int
    total: np.ndarray
    gradient: np.ndarray
    copies: tuple[np.ndarray, ...] = ()

    @property
    def last(self) -> bool:
        """Whether this fold finishes the reduce."""
        return self.replica == self.replicas - 1


class BucketResidualStore:
    """Error-feedback residual slabs for the bucket codec kernels.

    One flat ``(rows, elements)`` array per codec bucket: a row per replica
    for the qsgd/topk hook, whose codecs are not linear, and one row for the
    distributed-PowerSGD hook, which keeps one residual for the whole group.
    A slab is allocated by :meth:`slab` on first use or, before a threaded
    reduce, on the calling thread.  It is *ready* once a reduce of its bucket
    has completed (:meth:`filled`): bit parity with a per-parameter
    error-feedback codec, which *adds no residual* on a key's first
    compression (there is nothing stored yet), needs the kernel to skip the
    add until then.  Shared by both hooks so the lifecycle (keying,
    allocation, memory accounting, reset) lives once.
    """

    def __init__(self) -> None:
        # Slabs allocated on threads of a DP sync take the one-thread order.
        self._slabs: dict[tuple[int, int], np.ndarray] = OpOrderedDict()
        #: Slots allocated whose reduce has not completed yet.
        self._unfilled: set[tuple[int, int]] = set()

    def slab(self, bucket: "CodecBucket", rows: int) -> tuple[np.ndarray, bool]:
        """``(slab, ready)`` for ``bucket``, allocating it on first use.

        A stored slab of another shape (a foreign state dict, or a replica
        count changed without :meth:`clear`) raises instead of silently
        restarting error feedback.
        """
        slot = (bucket.stage_index, bucket.index)
        shape = (rows, bucket.num_elements)
        existing = self._slabs.get(slot)
        if existing is None:
            existing = self._slabs[slot] = np.empty(shape)
            self._unfilled.add(slot)
        elif existing.shape != shape:
            raise ValueError(
                f"error-feedback residual slab of stage {bucket.stage_index} codec bucket "
                f"{bucket.index} is {existing.shape}, this reduction needs {shape}"
            )
        return existing, slot not in self._unfilled

    def filled(self, bucket: "CodecBucket") -> None:
        """A reduce of ``bucket`` has completed: its slab holds a residual from now on."""
        self._unfilled.discard((bucket.stage_index, bucket.index))

    def memory_bytes(self) -> int:
        """Residual footprint under the library's fp32 accounting convention."""
        return sum(slab.size * 4 for slab in self._slabs.values())

    def clear(self) -> None:
        self._slabs.clear()
        self._unfilled.clear()

    def state_dict(self) -> dict[str, np.ndarray]:
        """The live slabs keyed ``"stage:index"`` (string keys survive JSON headers).

        Views, not copies: a checkpoint writes them straight out, and the
        recovery point detaches them through ``capture_tree``.  A slab no
        reduce has filled yet holds nothing and is left out.
        """
        return {
            f"{stage}:{index}": slab
            for (stage, index), slab in self._slabs.items()
            if (stage, index) not in self._unfilled
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        slabs: dict[tuple[int, int], np.ndarray] = OpOrderedDict()
        for key, slab in state.items():
            stage_text, _, index_text = key.partition(":")
            slabs[(int(stage_text), int(index_text))] = np.array(slab, dtype=np.float64)
        self._slabs = slabs
        self._unfilled.clear()


def build_codec_buckets(
    arena: ParameterArena,
    stage_parameters: Sequence[Sequence[Parameter]],
    bucket_bytes: int,
    select: Callable[[int, Parameter], bool],
) -> list[CodecBucket]:
    """Group the codec-selected parameters into size-targeted codec buckets.

    ``select(stage_index, parameter)`` decides membership (the engine passes the
    codec hook's ``codec_applies`` plus the embedding/frozen exclusions).  Buckets
    never cross a stage boundary and close once the next parameter would push the
    *uncompressed* payload past ``bucket_bytes`` (the same size discipline as the
    flat buckets; the compressed payload is smaller still).  A single oversized
    parameter forms its own bucket.
    """
    if bucket_bytes <= 0:
        raise ValueError(f"bucket_bytes must be positive, got {bucket_bytes}")
    buckets: list[CodecBucket] = []
    for stage_index, parameters in enumerate(stage_parameters):
        run: list[BucketSegment] = []
        run_elements = 0
        stage_bucket_count = 0

        def close_run() -> None:
            nonlocal run, run_elements, stage_bucket_count
            if run:
                buckets.append(
                    CodecBucket(
                        stage_index=stage_index,
                        index=stage_bucket_count,
                        segments=tuple(run),
                    )
                )
                stage_bucket_count += 1
            run = []
            run_elements = 0

        for position, parameter in enumerate(parameters):
            if not parameter.requires_grad or not select(stage_index, parameter):
                continue
            start, stop = arena.span(parameter)
            size = stop - start
            if run and (run_elements + size) * WIRE_BYTES_PER_ELEMENT > bucket_bytes:
                close_run()
            run.append(
                BucketSegment(
                    name=parameter.name or f"stage{stage_index}.param{position}",
                    start=start,
                    stop=stop,
                    shape=tuple(parameter.shape),
                    offset=run_elements,
                )
            )
            run_elements += size
        close_run()
    return buckets


def build_gradient_buckets(
    arena: ParameterArena,
    stage_parameters: Sequence[Sequence[Parameter]],
    bucket_bytes: int,
    skip: Callable[[int, Parameter], bool] | None = None,
) -> list[GradientBucket]:
    """Split the DP-synchronised parameters into size-targeted contiguous buckets.

    ``stage_parameters[s]`` lists stage ``s``'s parameters in arena order.  A bucket
    never crosses a stage boundary (stages finish backward at different times, and
    the bucket is the unit issued at that moment), never contains a skipped
    parameter (frozen, embedding-synchronised, or codec-routed ones), and is closed
    once adding the next parameter would exceed ``bucket_bytes`` of wire payload —
    except that a single oversized parameter still forms its own bucket.  Bucket
    spans are arena-contiguous so each replica's bucket gradient is one zero-copy
    flat view.
    """
    if bucket_bytes <= 0:
        raise ValueError(f"bucket_bytes must be positive, got {bucket_bytes}")
    buckets: list[GradientBucket] = []
    for stage_index, parameters in enumerate(stage_parameters):
        run: list[Parameter] = []
        run_start = run_stop = 0
        stage_bucket_count = 0

        def close_run() -> None:
            nonlocal run, run_start, run_stop, stage_bucket_count
            if run:
                buckets.append(
                    GradientBucket(
                        stage_index=stage_index,
                        index=stage_bucket_count,
                        start=run_start,
                        stop=run_stop,
                        parameter_names=tuple(p.name for p in run),
                    )
                )
                stage_bucket_count += 1
            run = []

        for parameter in parameters:
            if not parameter.requires_grad or (
                skip is not None and skip(stage_index, parameter)
            ):
                close_run()
                continue
            start, stop = arena.span(parameter)
            contiguous = bool(run) and start == run_stop
            would_overflow = (
                bool(run)
                and (stop - run_start) * WIRE_BYTES_PER_ELEMENT > bucket_bytes
            )
            if not run or not contiguous or would_overflow:
                close_run()
                run_start = start
            run.append(parameter)
            run_stop = stop
        close_run()
    return buckets

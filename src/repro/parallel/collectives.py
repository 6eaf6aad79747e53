"""Simulated collective communication.

The functional engines run every data-parallel replica and pipeline stage in one
process, so "communication" is just array arithmetic — but the *traffic* still has
to be accounted for exactly, because it is what the performance model charges to the
interconnect and what the compression techniques reduce.  Every operation therefore
returns numerically exact results **and** appends a :class:`TrafficRecord` to a
shared :class:`CommunicationLog`.

The all-reduce volume convention follows the standard ring algorithm cost the paper
cites (Section 6): for ``R`` ranks and per-rank payload ``V`` bytes, each rank sends
and receives ``2V(R-1)/R`` bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.parallel.op_order import OpOrderedList

#: Wire bytes per element for uncompressed activations/gradients (fp16 convention).
#: The single source of truth — the pipeline channel, the arena's bucket sizing,
#: and the engine's DP accounting all derive from this constant.
WIRE_BYTES_PER_ELEMENT = 2

#: Elements per tile of the in-place reductions (the exact DP bucket mean, the
#: embedding sync): each operand's 128 KiB slice stays in a per-core L2 while
#: the tile is reduced and copied out.
REDUCE_TILE = 1 << 14


@dataclass
class TrafficRecord:
    """One logged communication operation."""

    operation: str  # "all_reduce", "p2p", "all_gather", ...
    category: str  # "data_parallel", "inter_stage", "embedding_sync", "tensor_parallel"
    payload_bytes: int  # bytes on the wire per participating rank (before ring factor)
    #: Uncompressed per-rank bytes the record stands for (``payload_bytes``
    #: unless a codec shrank it): each axis's bytes-saved fraction is read
    #: from these two fields alone.
    original_bytes: int
    wire_bytes: float  # effective bytes each rank moves (ring/algorithm factor applied)
    ranks: tuple[int, ...]
    compressed: bool = False
    description: str = ""
    #: Whether the operation was issued inside a compute window that hides it (the
    #: engine marks DP all-reduces fired during the pipeline cool-down this way).
    overlapped: bool = False


@dataclass
class CommunicationLog:
    """Accumulates traffic records for one experiment or iteration.

    ``records`` is an :class:`~repro.parallel.op_order.OpOrderedList`: a
    concurrent pipeline walk's records land in its one-thread order.
    """

    records: list[TrafficRecord] = field(default_factory=OpOrderedList)

    def __post_init__(self) -> None:
        if not isinstance(self.records, OpOrderedList):
            self.records = OpOrderedList(self.records)

    def add(self, record: TrafficRecord) -> None:
        self.records.append(record)

    def clear(self) -> None:
        self.records.clear()

    def total_wire_bytes(self, category: str | None = None) -> float:
        """Sum of per-rank wire bytes, optionally filtered by category."""
        return sum(
            record.wire_bytes
            for record in self.records
            if category is None or record.category == category
        )

    def overlapped_wire_bytes(self, category: str | None = None) -> float:
        """Wire bytes of records flagged as overlapped with compute."""
        return sum(
            record.wire_bytes
            for record in self.records
            if record.overlapped and (category is None or record.category == category)
        )

    def exposed_wire_bytes(self, category: str | None = None) -> float:
        """Wire bytes of records *not* hidden under compute."""
        return self.total_wire_bytes(category) - self.overlapped_wire_bytes(category)

    def count(self, category: str | None = None, operation: str | None = None) -> int:
        """Number of records matching the filters."""
        return sum(
            1
            for record in self.records
            if (category is None or record.category == category)
            and (operation is None or record.operation == operation)
        )

    def by_category(self) -> dict[str, float]:
        """Wire bytes grouped by category."""
        totals: dict[str, float] = {}
        for record in self.records:
            totals[record.category] = totals.get(record.category, 0.0) + record.wire_bytes
        return totals


def ring_all_reduce_wire_bytes(payload_bytes: float, num_ranks: int) -> float:
    """Per-rank bytes moved by a ring all-reduce: ``2 V (R-1) / R``."""
    if num_ranks <= 1:
        return 0.0
    return 2.0 * payload_bytes * (num_ranks - 1) / num_ranks


def record_ring_all_reduce(
    log: CommunicationLog,
    payload_bytes: int,
    num_ranks: int,
    category: str,
    description: str = "",
) -> None:
    """Log a ring all-reduce without materialising per-rank contributions.

    Used where the collective's *result* is already exact by construction and only
    the traffic needs accounting — e.g. the tensor-parallel all-reduces of the
    unified engine, whose functional stages compute the dense (unsharded) result.
    """
    log.add(
        TrafficRecord(
            operation="all_reduce",
            category=category,
            payload_bytes=int(payload_bytes),
            original_bytes=int(payload_bytes),
            wire_bytes=ring_all_reduce_wire_bytes(payload_bytes, num_ranks),
            ranks=tuple(range(num_ranks)),
            compressed=False,
            description=description,
        )
    )


class SimulatedProcessGroup:
    """A process group whose collectives are exact and traffic-logged.

    The arrays passed in are the per-rank contributions; the methods return the
    per-rank results (one array per rank), mimicking the in-place semantics of NCCL
    collectives without any actual message passing.
    """

    def __init__(
        self,
        ranks: Sequence[int],
        log: CommunicationLog,
        category: str,
        spans_nodes: bool = True,
        overlapped: bool = False,
    ) -> None:
        if len(ranks) == 0:
            raise ValueError("a process group needs at least one rank")
        self.ranks = tuple(int(rank) for rank in ranks)
        self.log = log
        self.category = category
        self.spans_nodes = bool(spans_nodes)
        #: Stamped on every record this group logs: the collective was issued
        #: inside a compute window that hides it (e.g. the pipeline cool-down).
        self.overlapped = bool(overlapped)

    @property
    def size(self) -> int:
        return len(self.ranks)

    # -- collectives --------------------------------------------------------------

    def record_collective(
        self,
        operation: str,
        payload_bytes: int,
        compressed: bool = False,
        description: str = "",
        original_bytes: int | None = None,
    ) -> None:
        """Log a collective whose result the caller computed in place.

        The zero-copy bucket kernels reduce gradients directly on arena views
        (no per-rank contribution arrays to hand over), so they account their
        traffic through this method with the same wire-byte conventions the
        materialising collectives apply: ring ``2V(R-1)/R`` for an all-reduce,
        ``V(R-1)`` for an all-gather.  ``original_bytes`` (default:
        ``payload_bytes``) is what the payload would have been uncompressed.
        """
        if operation == "all_reduce":
            wire = ring_all_reduce_wire_bytes(payload_bytes, self.size)
        elif operation == "all_gather":
            wire = float(payload_bytes * (self.size - 1))
        else:
            raise ValueError(f"unsupported collective {operation!r}")
        self.log.add(
            TrafficRecord(
                operation=operation,
                category=self.category,
                payload_bytes=int(payload_bytes),
                original_bytes=int(payload_bytes if original_bytes is None else original_bytes),
                wire_bytes=wire,
                ranks=self.ranks,
                compressed=compressed,
                description=description,
                overlapped=self.overlapped,
            )
        )

    def all_reduce(
        self,
        contributions: Sequence[np.ndarray],
        op: str = "sum",
        payload_bytes: int | None = None,
        compressed: bool = False,
        description: str = "",
    ) -> list[np.ndarray]:
        """All-reduce: every rank receives the elementwise reduction."""
        if len(contributions) != self.size:
            raise ValueError(
                f"expected {self.size} contributions (one per rank), got {len(contributions)}"
            )
        stacked = np.stack([np.asarray(c, dtype=np.float64) for c in contributions])
        if op == "sum":
            reduced = stacked.sum(axis=0)
        elif op == "mean":
            reduced = stacked.mean(axis=0)
        elif op == "max":
            reduced = stacked.max(axis=0)
        else:
            raise ValueError(f"unsupported all-reduce op {op!r}")

        original_bytes = int(contributions[0].size * WIRE_BYTES_PER_ELEMENT)
        if payload_bytes is None:
            payload_bytes = original_bytes
        self.log.add(
            TrafficRecord(
                operation="all_reduce",
                category=self.category,
                payload_bytes=payload_bytes,
                original_bytes=original_bytes,
                wire_bytes=ring_all_reduce_wire_bytes(payload_bytes, self.size),
                ranks=self.ranks,
                compressed=compressed,
                description=description,
                overlapped=self.overlapped,
            )
        )
        return [reduced.copy() for _ in range(self.size)]

    def all_gather(
        self,
        contributions: Sequence[np.ndarray],
        payload_bytes: int | None = None,
        compressed: bool = False,
        description: str = "",
    ) -> list[list[np.ndarray]]:
        """All-gather: every rank receives the list of all contributions."""
        if len(contributions) != self.size:
            raise ValueError(
                f"expected {self.size} contributions (one per rank), got {len(contributions)}"
            )
        gathered = [np.asarray(c, dtype=np.float64).copy() for c in contributions]
        original_bytes = int(contributions[0].size * WIRE_BYTES_PER_ELEMENT)
        if payload_bytes is None:
            payload_bytes = original_bytes
        wire = payload_bytes * (self.size - 1)
        self.log.add(
            TrafficRecord(
                operation="all_gather",
                category=self.category,
                payload_bytes=payload_bytes,
                original_bytes=original_bytes,
                wire_bytes=float(wire),
                ranks=self.ranks,
                compressed=compressed,
                description=description,
                overlapped=self.overlapped,
            )
        )
        return [list(gathered) for _ in range(self.size)]

    def reduce_scatter(
        self,
        contributions: Sequence[np.ndarray],
        payload_bytes: int | None = None,
        description: str = "",
    ) -> list[np.ndarray]:
        """Reduce-scatter: rank ``i`` receives the ``i``-th shard of the reduction."""
        if len(contributions) != self.size:
            raise ValueError(
                f"expected {self.size} contributions (one per rank), got {len(contributions)}"
            )
        stacked = np.stack([np.asarray(c, dtype=np.float64) for c in contributions])
        reduced = stacked.sum(axis=0)
        shards = np.array_split(reduced.reshape(-1), self.size)
        original_bytes = int(contributions[0].size * WIRE_BYTES_PER_ELEMENT)
        if payload_bytes is None:
            payload_bytes = original_bytes
        self.log.add(
            TrafficRecord(
                operation="reduce_scatter",
                category=self.category,
                payload_bytes=payload_bytes,
                original_bytes=original_bytes,
                wire_bytes=payload_bytes * (self.size - 1) / self.size,
                ranks=self.ranks,
                compressed=False,
                description=description,
                overlapped=self.overlapped,
            )
        )
        return [shard.copy() for shard in shards]

    def broadcast(
        self,
        tensor: np.ndarray,
        root_rank: int,
        payload_bytes: int | None = None,
        description: str = "",
    ) -> list[np.ndarray]:
        """Broadcast from ``root_rank`` to every rank in the group."""
        if root_rank not in self.ranks:
            raise ValueError(f"root rank {root_rank} is not part of the group {self.ranks}")
        tensor = np.asarray(tensor, dtype=np.float64)
        original_bytes = int(tensor.size * WIRE_BYTES_PER_ELEMENT)
        if payload_bytes is None:
            payload_bytes = original_bytes
        self.log.add(
            TrafficRecord(
                operation="broadcast",
                category=self.category,
                payload_bytes=payload_bytes,
                original_bytes=original_bytes,
                wire_bytes=float(payload_bytes),
                ranks=self.ranks,
                compressed=False,
                description=description,
                overlapped=self.overlapped,
            )
        )
        return [tensor.copy() for _ in range(self.size)]

    # -- point-to-point ---------------------------------------------------------

    def send_recv(
        self,
        tensor: np.ndarray,
        src_rank: int,
        dst_rank: int,
        payload_bytes: int | None = None,
        compressed: bool = False,
        description: str = "",
    ) -> np.ndarray:
        """Point-to-point transfer; returns the tensor as the receiver sees it."""
        for rank in (src_rank, dst_rank):
            if rank not in self.ranks:
                raise ValueError(f"rank {rank} is not part of the group {self.ranks}")
        tensor = np.asarray(tensor, dtype=np.float64)
        original_bytes = int(tensor.size * WIRE_BYTES_PER_ELEMENT)
        if payload_bytes is None:
            payload_bytes = original_bytes
        self.log.add(
            TrafficRecord(
                operation="p2p",
                category=self.category,
                payload_bytes=payload_bytes,
                original_bytes=original_bytes,
                wire_bytes=float(payload_bytes),
                ranks=(src_rank, dst_rank),
                compressed=compressed,
                description=description,
                overlapped=self.overlapped,
            )
        )
        return tensor.copy()


def average_arrays(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """Plain average of a list of equally shaped arrays (no traffic logged)."""
    arrays = [np.asarray(array, dtype=np.float64) for array in arrays]
    if not arrays:
        raise ValueError("cannot average an empty list of arrays")
    return np.mean(np.stack(arrays), axis=0)

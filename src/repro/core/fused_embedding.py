"""Fused embedding synchronisation (paper Section 6).

GPT ties its input and output embeddings; with pipeline parallelism the weight is
duplicated on the first and last stages, so its gradient needs an extra 2-way
all-reduce ("embedding synchronisation") on top of the regular data-parallel
all-reduce.  Fused embedding synchronisation replaces the two collectives with a
single all-reduce over all ``2 * D`` embedding copies.

Cost model (ring all-reduce cost ``2V(R-1)/R`` for R ranks, volume V):

* baseline:  ``C_emb       = 2V(D-1)/D + 2V(2-1)/2 = V(3D-2)/D``   (Eq. 15)
* fused:     ``C_emb_fused = 2V(2D-1)/(2D)         = V(2D-1)/D``   (Eq. 16)

The improvement the paper quotes is the *speedup* of the baseline over the fused
cost, ``C_emb / C_emb_fused − 1``, which approaches 50 % for large D and is 42.9 %
at the paper's D = 4.

The functional :class:`EmbeddingSynchronizer` performs the synchronisation on the
in-process replicas, in place in replica 0's copies' gradient buffers, in the
order a stacked all-reduce sums (``tests/test_embedding_sync.py`` holds it to the
stacked path bit for bit); fused and unfused paths are mathematically identical,
differing only in the traffic they log.  It folds the replicas in one at a time,
stage by stage, as the DP reduce does: under the serial executor the stage-0 and
stage ``pp - 1`` walk threads fold each replica's copies as soon as they are
final, before the next replica, whose gradient buffer may be the same, writes
them again.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro.compression.base import writable_flat_view
from repro.nn.gpt_stage import GPTStage
from repro.parallel.arena import distinct_buffers
from repro.parallel.collectives import (
    REDUCE_TILE,
    WIRE_BYTES_PER_ELEMENT,
    CommunicationLog,
    SimulatedProcessGroup,
)
from repro.tensor.parameter import Parameter


# ----------------------------------------------------------------------------------
# Analytic cost model (Eq. 15 / Eq. 16)
# ----------------------------------------------------------------------------------


def baseline_embedding_cost(volume: float, data_parallel: int) -> float:
    """Eq. (15): cost of separate DP all-reduce + 2-way embedding synchronisation."""
    if data_parallel <= 0:
        raise ValueError("data_parallel must be positive")
    if data_parallel == 1:
        return volume  # only the 2-way sync remains
    return volume * (3.0 * data_parallel - 2.0) / data_parallel


def fused_embedding_cost(volume: float, data_parallel: int) -> float:
    """Eq. (16): cost of the single fused all-reduce over 2D ranks."""
    if data_parallel <= 0:
        raise ValueError("data_parallel must be positive")
    return volume * (2.0 * data_parallel - 1.0) / data_parallel


def embedding_sync_improvement(data_parallel: int) -> float:
    """Paper's improvement metric: baseline cost over fused cost, minus one.

    42.9 % at D = 4, approaching 50 % as D grows (Section 6).
    """
    baseline = baseline_embedding_cost(1.0, data_parallel)
    fused = fused_embedding_cost(1.0, data_parallel)
    return baseline / fused - 1.0


# ----------------------------------------------------------------------------------
# Functional synchroniser
# ----------------------------------------------------------------------------------


class EmbeddingSynchronizer:
    """Synchronises the tied word-embedding gradient across stages and replicas.

    Parameters
    ----------
    replicas:
        ``replicas[d]`` is the stage list of data-parallel replica ``d``.
    log:
        Communication log the traffic is recorded into.
    fused:
        Use the fused single all-reduce (Optimus-CC) instead of the baseline
        DP-all-reduce + 2-way synchronisation.
    """

    def __init__(
        self,
        replicas: Sequence[Sequence[GPTStage]],
        log: CommunicationLog | None = None,
        fused: bool = False,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one data-parallel replica")
        self.replicas = [list(replica) for replica in replicas]
        self.log = log if log is not None else CommunicationLog()
        self.fused = bool(fused)
        first, last = self.replicas[0][0], self.replicas[0][-1]
        #: The stage of each copy, in :meth:`_embedding_copies` order.
        self._copy_stages = [0] * len(first.embedding_parameters())
        if last is not first:
            self._copy_stages += [len(self.replicas[0]) - 1] * len(last.embedding_parameters())
        self._lock = threading.Lock()
        #: Per replica, where the first of its two stages to be folded saves its
        #: copies when a later replica's writes would overwrite them before the
        #: fused sum reads them (allocated once, by :meth:`prepare`).
        self._side: list[np.ndarray | None] = [None] * len(self.replicas)
        # One sync's state, set up by :meth:`prepare`.
        self._flats: list[list[np.ndarray]] = []
        self._targets: list[np.ndarray] = []
        self._waiting: list[set[int]] = []
        self._saved: list[int | None] = []

    @property
    def data_parallel_degree(self) -> int:
        return len(self.replicas)

    @property
    def stages(self) -> tuple[int, ...]:
        """The stages holding embedding copies: stage 0 and the last one."""
        return tuple(sorted(set(self._copy_stages)))

    def _embedding_copies(self) -> list[list[Parameter]]:
        """Per-replica list of embedding copies (first stage, then last stage).

        With a single pipeline stage both roles are played by the same stage, which
        then holds two physical copies (input lookup + output projection) that still
        need to agree — the same lists are returned.
        """
        copies: list[list[Parameter]] = []
        for replica in self.replicas:
            replica_copies = list(replica[0].embedding_parameters())
            if replica[-1] is not replica[0]:
                replica_copies.extend(replica[-1].embedding_parameters())
            if not replica_copies:
                raise ValueError("no embedding parameter found on the first/last stages")
            copies.append(replica_copies)
        return copies

    # -- synchronisation --------------------------------------------------------------

    def prepare(self) -> None:
        """Set up the next synchronisation on the calling thread, before any walk.

        Takes the copies' flat views (the executor may have moved the
        arenas), the distinct buffers the result is copied into, and — for
        the fused sum over two stages — a side buffer for each replica whose
        copies a later replica's share of memory overwrites.
        """
        self._flats = [
            [writable_flat_view(parameter.grad) for parameter in replica]
            for replica in self._embedding_copies()
        ]
        self._targets = distinct_buffers(flat for replica in self._flats for flat in replica)[1:]
        width = max(
            sum(flat.size for flat, at in zip(self._flats[0], self._copy_stages) if at == stage)
            for stage in self.stages
        )
        for replica, flats in enumerate(self._flats):
            overwritten = any(
                np.may_share_memory(flat, later)
                for flat in flats
                for after in self._flats[replica + 1 :]
                for later in after
            )
            if not (self.fused and overwritten and len(self.stages) == 2):
                self._side[replica] = None
            elif self._side[replica] is None or self._side[replica].size < width:
                self._side[replica] = np.empty(width)
        self._waiting = [set(self.stages) for _ in self._flats]
        self._saved = [None] * len(self._flats)

    def synchronize(self, replica: int | None = None, stage: int | None = None) -> None:
        """Make every embedding copy hold the same, fully-reduced gradient, in place.

        The resulting gradient on every copy equals
        ``mean_over_replicas(grad_first + grad_last)`` for both paths; only the
        communication pattern (and hence the logged traffic) differs.  The
        copies are reduced in replica 0's copies' buffers, in the order the
        stacked collectives summed them, so the bits are theirs:

        * **fused** — replica 0's first copy accumulates every copy in
          replica-major order, then ``*= 1/dp``;
        * **two-step** — replica 0's copies each accumulate their copy over
          the replicas, then ``/= dp`` (the DP mean), then the first adds the
          second (the 2-way sum).

        The result is copied to every other distinct copy buffer tile by
        tile, while it is in cache.  With no arguments every replica's copies
        are folded in, one replica after another.  With ``replica`` and
        ``stage`` (0 or ``pp - 1``) it is one step of a sync that
        :meth:`prepare` set up: that replica's copies on that stage are final
        and the previous replica's on the same stage folded.  Steps of the
        two stages may run on two threads; the second of a replica's two
        steps folds its copies into the fused sum, and the last replica's
        second step finishes the sync.  Nothing is allocated but the record
        objects.
        """
        if replica is None:
            self.prepare()
            for replica in range(self.data_parallel_degree):
                for stage in self.stages:
                    self._fold(replica, stage)
        else:
            self._fold(replica, stage)

    def _fold(self, replica: int, stage: int) -> None:
        flats = self._flats[replica]
        here = [index for index, at in enumerate(self._copy_stages) if at == stage]
        last = replica == len(self._flats) - 1
        if not self.fused:  # each copy's DP sum, on its own stage
            for index in here:
                total = self._flats[0][index]
                if replica > 0:
                    total += flats[index]
                if last and replica > 0:
                    total /= len(self._flats)
        with self._lock:
            waiting = self._waiting[replica]
            waiting.discard(stage)
            second = not waiting
            side = self._side[replica]
            if not second and side is not None:
                offset = 0
                for index in here:
                    side[offset : offset + flats[index].size] = flats[index]
                    offset += flats[index].size
                self._saved[replica] = stage
        if not second:
            return
        if self.fused:
            self._add_replica(replica)
        if last:
            self._finish()

    def _add_replica(self, replica: int) -> None:
        """Add replica ``replica``'s copies into the fused sum, saved ones from the side buffer."""
        total = self._flats[0][0]
        offset = 0
        for index, (flat, at) in enumerate(zip(self._flats[replica], self._copy_stages)):
            if at == self._saved[replica]:
                flat = self._side[replica][offset : offset + flat.size]
                offset += flat.size
            if replica > 0 or index > 0:
                total += flat

    def _finish(self) -> None:
        """Scale (fused) or add the two DP means (two-step), copy out, log the collectives."""
        num_replicas, num_copies = len(self._flats), len(self._flats[0])
        result = self._flats[0][0]
        scale = 1.0 / num_replicas
        for start in range(0, result.size, REDUCE_TILE):
            span = slice(start, start + REDUCE_TILE)
            tile = result[span]
            if self.fused:
                tile *= scale
            elif num_copies == 2:
                tile += self._flats[0][1][span]
            for target in self._targets:
                target[span] = tile
        self._record(num_replicas, num_copies, result.size * WIRE_BYTES_PER_ELEMENT)

    def _record(self, num_replicas: int, num_copies: int, payload_bytes: int) -> None:
        """Log the collectives the sync stands for, in the order the stacked path issued them."""

        def group(size: int, category: str) -> SimulatedProcessGroup:
            return SimulatedProcessGroup(list(range(size)), self.log, category=category)

        if self.fused:
            group(num_replicas * num_copies, "embedding_sync").record_collective(
                "all_reduce", payload_bytes, description="fused embedding synchronisation"
            )
            return
        if num_replicas > 1:
            for _ in range(num_copies):
                group(num_replicas, "embedding_dp").record_collective(
                    "all_reduce", payload_bytes, description="embedding DP all-reduce"
                )
        if num_copies == 2:
            for _ in range(num_replicas):
                group(2, "embedding_sync").record_collective(
                    "all_reduce", payload_bytes, description="embedding 2-way synchronisation"
                )

    # -- diagnostics --------------------------------------------------------------------

    def max_copy_divergence(self) -> float:
        """Largest gradient difference between any two embedding copies (0 after sync)."""
        copies = self._embedding_copies()
        reference = copies[0][0].grad
        worst = 0.0
        for replica_copies in copies:
            for parameter in replica_copies:
                worst = max(worst, float(np.max(np.abs(parameter.grad - reference))))
        return worst

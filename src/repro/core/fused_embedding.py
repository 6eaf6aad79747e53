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
in-process replicas, in place in the copies' own gradient buffers (tile by tile,
in the order a stacked all-reduce sums, so ``tests/test_embedding_sync.py`` holds
it to the stacked path bit for bit); fused and unfused paths are mathematically
identical, differing only in the traffic they log.  Under the serial executor
the engine runs it inside the pipeline walk, on whichever of the threads owning
stage 0 and stage ``pp - 1`` finishes second.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.compression.base import writable_flat_view
from repro.nn.gpt_stage import GPTStage
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

    @property
    def data_parallel_degree(self) -> int:
        return len(self.replicas)

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

    def synchronize(self) -> None:
        """Make every embedding copy hold the same, fully-reduced gradient, in place.

        The resulting gradient on every copy equals
        ``mean_over_replicas(grad_first + grad_last)`` for both paths; only the
        communication pattern (and hence the logged traffic) differs.  The
        copies are reduced tile by tile in their own gradient buffers, in the
        order the stacked collectives summed them, so the bits are theirs:

        * **fused** — replica 0's first copy accumulates every copy in
          replica-major order, then ``*= 1/dp``;
        * **two-step** — replica 0's copies each accumulate their copy over
          the replicas, then ``/= dp`` (the DP mean), then the first adds the
          second (the 2-way sum).

        Each tile is copied to the other copies while it is still in cache.
        Nothing is allocated but the record objects, so the sync may run on
        any thread; under the serial executor it runs inside the pipeline walk
        (:meth:`repro.parallel.engine.ThreeDParallelEngine.run_iteration`).
        """
        copies = self._embedding_copies()
        num_replicas, num_copies = len(copies), len(copies[0])
        flats = [[writable_flat_view(parameter.grad) for parameter in replica] for replica in copies]
        if self.fused:
            sums = [[flat for replica in flats for flat in replica]]  # one sum of every copy
        else:  # one sum per copy, over the replicas
            sums = [[replica[index] for replica in flats] for index in range(num_copies)]
        result = flats[0][0]
        targets = [flat for replica in flats for flat in replica if flat is not result]
        scale = 1.0 / num_replicas
        for start in range(0, result.size, REDUCE_TILE):
            span = slice(start, start + REDUCE_TILE)
            for accumulator, *others in sums:
                tile = accumulator[span]
                for other in others:
                    tile += other[span]
                if self.fused:
                    tile *= scale
                elif others:
                    tile /= num_replicas
            tile = result[span]
            if not self.fused and num_copies == 2:
                tile += flats[0][1][span]
            for target in targets:
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

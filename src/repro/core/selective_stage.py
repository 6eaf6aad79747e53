"""Selective stage compression (paper Section 7).

Compressing *all* data-parallel gradient traffic hurts model quality (Fig. 3 "naive
DP") because the compression error is only fed back in the next iteration, after the
weight update — a staleness effect.  Selective stage compression (SC) instead keeps
a knob that tracks the *pipeline critical path*: the earliest pipeline stages finish
their backward passes last, so their data-parallel all-reduce is the one delaying
the iteration.  SC therefore compresses the DP traffic of the first
``fraction * num_stages`` stages only (Fig. 8), trading a controllable amount of
error for the exact communications that matter.

The gradient compression itself is the distributed PowerSGD protocol with classic
error feedback: every replica adds the residual to its gradient, the ``P`` and ``Q``
factors are all-reduced (that is the only traffic), and every replica reconstructs
the same approximation.  PowerSGD is linear in the matrix it factorises —
``mean_r(M_r Q) = (mean_r M_r) Q`` is what lets the factors be all-reduced at all —
so the factors, the approximation ``A`` and the mean new residual
``mean_r(M_r) - A`` depend on the replicas' corrected gradients only through their
mean.  The hook therefore keeps **one** residual per parameter for the whole DP
group (a one-row slab per codec bucket) and factorises the replica-mean corrected
gradient once.  The replicas' gradients reach it one at a time
(:class:`~repro.parallel.arena.ReplicaFold`): each is added into replica 0's
buffer as soon as it is final, and the last replica's fold divides that sum by
the replica count and adds it into the residual, two GEMMs give ``P`` and
``Q``, and a third writes ``A`` block by block straight into replica 0's
buffer, each block subtracted from the residual and copied to the group's
other gradient buffers while it is in cache.  P/Q traffic and payload bytes
are those of the per-replica protocol (every replica still puts its factors on
the wire).  In exact arithmetic this is the per-replica protocol; in floating
point it sums in another order (checked against a frozen per-replica oracle at
``rtol=1e-12`` in ``tests/test_core_selective_stage.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.compression.powersgd import matrix_view, orthogonalise, stable_key_hash
from repro.parallel.arena import BucketResidualStore, CodecBucket, ReplicaFold
from repro.parallel.collectives import WIRE_BYTES_PER_ELEMENT, SimulatedProcessGroup
from repro.parallel.op_order import OpOrderedDict
from repro.utils.random import seeded_rng

#: Elements per block of the mean and residual passes (rounded down to whole
#: matrix rows): a block of the approximation is subtracted from the residual
#: and copied out while its GEMM has just left it in cache.
_TILE_ELEMENTS = 1 << 14


class SelectiveStageCompression:
    """Data-parallel PowerSGD for the critical-path stages' codec buckets.

    The stages come from :func:`repro.plan.select_compressed_stages`: the
    caller (:meth:`repro.parallel.engine.CompressedGradientAllReduce.codec_applies`)
    routes only the selected stages' large 2-D parameters into codec buckets
    and hands them to :meth:`reduce_bucket`.

    Parameters
    ----------
    rank:
        PowerSGD rank (paper default 128 for DP traffic).
    error_feedback:
        Keep the group's residual across iterations (classic error feedback).
    seed:
        Seed of the warm-start factors (combined with each parameter's key).
    """

    def __init__(self, rank: int = 128, error_feedback: bool = True, seed: int = 0) -> None:
        if rank <= 0:
            raise ValueError("rank must be positive")
        self.rank = int(rank)
        self.error_feedback = bool(error_feedback)
        self.seed = int(seed)
        #: Warm-started Q factor per parameter key (keys added on threads of a
        #: DP sync take the one-thread order).
        self._queries: dict[str, np.ndarray] = OpOrderedDict()
        #: The group's error-feedback residuals (one flat one-row slab per bucket).
        self._bucket_residuals = BucketResidualStore()

    def _reduce_segment(
        self,
        key: str,
        shape: tuple[int, int],
        total: np.ndarray,
        last: np.ndarray | None,
        copies: Sequence[np.ndarray],
        residual: np.ndarray | None,
        residual_ready: bool,
        num_replicas: int,
    ) -> tuple[int, int]:
        """One PowerSGD power iteration on the replica mean of the corrected gradients.

        ``total`` is the flat contiguous sum of the replicas' gradients but
        ``last`` (the last replica's, ``None`` if already in it) and receives
        the result, which is copied into each of ``copies``; ``residual`` is
        the group's flat residual, ``None`` without error feedback, and is
        only added to when ``residual_ready``.  The mean is formed in
        ``total`` and added into the residual (without one, ``total`` is the
        mean the approximation overwrites once ``Q`` is known).  Both passes
        walk blocks of whole rows.  Returns the P and Q payload bytes of one
        replica.
        """
        rows, cols = shape
        rank = max(1, min(self.rank, rows, cols))
        query = self._queries.get(key)
        if query is None or query.shape != (cols, rank):
            query = seeded_rng(self.seed + stable_key_hash(key)).standard_normal((cols, rank))
        block_rows = max(1, _TILE_ELEMENTS // cols)
        blocks = [(row, min(row + block_rows, rows)) for row in range(0, rows, block_rows)]

        for first, stop in blocks:
            span = slice(first * cols, stop * cols)
            tile = total[span]
            if last is not None:
                tile += last[span]
            tile /= num_replicas
            if residual is None:
                continue
            if residual_ready:
                residual[span] += tile
            else:
                residual[span] = tile

        matrix = (total if residual is None else residual).reshape(shape)
        p_factor = orthogonalise(matrix @ query)
        query = self._queries[key] = matrix.T @ p_factor
        approximation = total.reshape(shape)
        for first, stop in blocks:
            span = slice(first * cols, stop * cols)
            np.matmul(p_factor[first:stop], query.T, out=approximation[first:stop])
            if residual is not None:
                residual[span] -= total[span]
            for copy in copies:
                copy[span] = total[span]

        return int(p_factor.size * 2), int(query.size * 2)

    def reserve(self, buckets: Sequence[CodecBucket]) -> None:
        """Allocate the residual slabs of ``buckets``, in this order, on the calling thread."""
        if self.error_feedback:
            for bucket in buckets:
                self._bucket_residuals.slab(bucket, 1)

    def reduce_bucket(
        self, bucket: CodecBucket, fold: ReplicaFold, group: SimulatedProcessGroup
    ) -> None:
        """Fold one replica into the distributed PowerSGD reduction of one codec bucket, in place.

        Every fold adds the replica's segments into ``fold.total`` (replica
        0's buffer, which already holds its own); the last one adds its own
        block by block as it forms the mean, and reduces each
        segment on its zero-copy view with its own per-tensor key and
        warm-started query, so the weights that come out do not depend on
        how parameters are bucketed, and copies the result into
        ``fold.copies``.  One P/Q traffic record pair covers the whole
        *bucket* (the P record carries the bucket's uncompressed bytes as its
        ``original_bytes``, the Q record none), and the group's residuals live
        in one flat ``(1, elements)`` slab per bucket.  Nothing is shared
        between buckets, so different stages' buckets may be reduced at once.
        """
        if fold.replicas != group.size:
            raise ValueError(
                f"got a fold of {fold.replicas} replicas but the group has {group.size} ranks"
            )
        if not fold.last:
            if fold.replica > 0:
                for segment in bucket.segments:
                    span = slice(segment.start, segment.stop)
                    fold.total[span] += fold.gradient[span]
            return
        residual_slab, residual_ready = (
            self._bucket_residuals.slab(bucket, 1) if self.error_feedback else (None, False)
        )

        p_bytes_total = 0
        q_bytes_total = 0
        for segment in bucket.segments:
            span = slice(segment.start, segment.stop)
            total = fold.total[span]
            residual = (
                None
                if residual_slab is None
                else residual_slab[0, segment.offset : segment.offset + segment.num_elements]
            )
            p_bytes, q_bytes = self._reduce_segment(
                segment.name,
                matrix_view(total.reshape(segment.shape)).shape,
                total,
                fold.gradient[span] if fold.replica > 0 else None,
                [copy[span] for copy in fold.copies],
                residual,
                residual_ready,
                fold.replicas,
            )
            p_bytes_total += p_bytes
            q_bytes_total += q_bytes
        self._bucket_residuals.filled(bucket)

        label = f"stage{bucket.stage_index} codec-bucket{bucket.index}"
        group.record_collective(
            "all_reduce",
            p_bytes_total,
            compressed=True,
            description=f"{label}:P",
            original_bytes=bucket.num_elements * WIRE_BYTES_PER_ELEMENT,
        )
        group.record_collective(
            "all_reduce", q_bytes_total, compressed=True, description=f"{label}:Q", original_bytes=0
        )

    def residual_memory_bytes(self) -> int:
        """Memory held by the error-feedback residuals (fp32 accounting).

        One residual per compressed parameter for the whole DP group, whatever
        the number of replicas.
        """
        return self._bucket_residuals.memory_bytes()

    def clear_residuals(self) -> None:
        """Drop error-feedback residuals but keep the warm-started Q factors.

        Used by graceful degradation: the residual is the mean over the group
        that lost a replica, which the survivors' mean is not, so error feedback
        restarts while the (replica-agnostic) warm starts survive.
        """
        self._bucket_residuals.clear()

    def state_dict(self) -> dict:
        """All cross-iteration state: warm-started Q factors and EF residuals.

        Array leaves are live references (see ``Compressor.state_dict``).
        """
        return {
            "queries": dict(self._queries),
            "bucket_residuals": self._bucket_residuals.state_dict(),
        }

    def load_state_dict(self, payload: dict) -> None:
        self._queries = OpOrderedDict(
            (str(key), np.array(query, dtype=np.float64))
            for key, query in payload["queries"].items()
        )
        self._bucket_residuals.load_state_dict(payload["bucket_residuals"])

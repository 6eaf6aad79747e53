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
gradient once: one pass forms
``residual + mean_r(gradient_r)``, two GEMMs give ``P`` and ``Q``, and a third
writes ``A`` block by block straight into replica 0's gradient, each block
subtracted from the residual and copied to the other replicas while it is in
cache.  P/Q traffic and payload bytes are those of the per-replica protocol (every
replica still puts its factors on the wire).  In exact arithmetic this is the
per-replica protocol; in floating point it sums in another order (checked against
a frozen per-replica oracle at ``rtol=1e-12`` in ``tests/test_core_selective_stage.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.compression.powersgd import matrix_view, orthogonalise, stable_key_hash
from repro.parallel.arena import BucketResidualStore, CodecBucket
from repro.parallel.collectives import WIRE_BYTES_PER_ELEMENT, SimulatedProcessGroup
from repro.parallel.op_order import OpOrderedDict
from repro.utils.random import seeded_rng

#: Elements per block of the replica-mean and residual passes (rounded down to
#: whole matrix rows): the replicas' gradient slices, the residual slice and the
#: one scratch tile stay in a per-core L2 while each gradient byte streams from
#: memory once.
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
        #: Per stage, the replica-mean scratch block: stages' buckets are
        #: reduced on different threads at once.
        self._tiles: dict[int, np.ndarray] = {}

    def _reduce_segment(
        self,
        key: str,
        shape: tuple[int, int],
        gradients: Sequence[np.ndarray],
        outputs: Sequence[np.ndarray],
        residual: np.ndarray | None,
        residual_ready: bool,
        stage: int = 0,
    ) -> tuple[int, int]:
        """One PowerSGD power iteration on the replica mean of the corrected gradients.

        ``gradients``/``outputs`` are each replica's flat contiguous gradient
        and result (they may alias: :meth:`reduce_bucket` reduces in place);
        ``residual`` is the group's flat residual, ``None`` without error
        feedback, and is only added to when ``residual_ready``.  The mean is
        formed in the residual (or, without one, in ``outputs[0]``, which the
        approximation overwrites once ``Q`` is known).  Both passes walk blocks
        of whole rows, so each block of ``A`` is subtracted from the residual
        and copied to the other replicas while its GEMM has just left it in
        cache; ``stage`` (the segment's) picks the scratch block.  Returns the
        P and Q payload bytes of one replica.
        """
        num_replicas = len(gradients)
        rows, cols = shape
        rank = max(1, min(self.rank, rows, cols))
        query = self._queries.get(key)
        if query is None or query.shape != (cols, rank):
            query = seeded_rng(self.seed + stable_key_hash(key)).standard_normal((cols, rank))
        block_rows = max(1, _TILE_ELEMENTS // cols)
        scratch = self._tiles.get(stage)
        if scratch is None or scratch.size < block_rows * cols:
            scratch = self._tiles[stage] = np.empty(max(_TILE_ELEMENTS, block_rows * cols))
        blocks = [(row, min(row + block_rows, rows)) for row in range(0, rows, block_rows)]

        mean = outputs[0] if residual is None else residual
        accumulate = residual is not None and residual_ready
        for first, last in blocks:
            start, stop = first * cols, last * cols
            tile = scratch[: stop - start]
            if num_replicas == 1:
                tile[...] = gradients[0][start:stop]
            else:
                np.add(gradients[0][start:stop], gradients[1][start:stop], out=tile)
                for gradient in gradients[2:]:
                    tile += gradient[start:stop]
                tile /= num_replicas
            if accumulate:
                mean[start:stop] += tile
            else:
                mean[start:stop] = tile

        matrix = mean.reshape(shape)
        p_factor = orthogonalise(matrix @ query)
        query = self._queries[key] = matrix.T @ p_factor
        approximation = outputs[0].reshape(shape)
        for first, last in blocks:
            np.matmul(p_factor[first:last], query.T, out=approximation[first:last])
            synced = outputs[0][first * cols : last * cols]
            if residual is not None:
                residual[first * cols : last * cols] -= synced
            for output in outputs[1:]:
                output[first * cols : last * cols] = synced

        return int(p_factor.size * 2), int(query.size * 2)

    def reduce_bucket(
        self,
        bucket: CodecBucket,
        flat_gradients: Sequence[np.ndarray],
        group: SimulatedProcessGroup,
    ) -> None:
        """Distributed PowerSGD reduction of one codec bucket, in place.

        ``flat_gradients[r]`` is replica ``r``'s whole flat gradient buffer (the
        arena's ``grad`` array); each segment is reduced on its zero-copy views
        with its own per-tensor key and warm-started query, so the weights that
        come out do not depend on how parameters are bucketed.  One hook
        invocation and one P/Q traffic record pair cover the whole *bucket*
        (the P record carries the bucket's uncompressed bytes as its
        ``original_bytes``, the Q record none), and the group's residuals live
        in one flat ``(1, elements)`` slab per bucket.  The scratch block is
        the bucket's stage's, so different stages' buckets may be reduced at
        once.
        """
        num_replicas = len(flat_gradients)
        if num_replicas != group.size:
            raise ValueError(
                f"got {num_replicas} gradient buffers but the group has {group.size} ranks"
            )
        residual_slab, residual_ready = (
            self._bucket_residuals.slab(bucket, 1) if self.error_feedback else (None, False)
        )

        p_bytes_total = 0
        q_bytes_total = 0
        for segment in bucket.segments:
            views = [flat[segment.start : segment.stop] for flat in flat_gradients]
            residual = (
                None
                if residual_slab is None
                else residual_slab[0, segment.offset : segment.offset + segment.num_elements]
            )
            p_bytes, q_bytes = self._reduce_segment(
                segment.name,
                matrix_view(views[0].reshape(segment.shape)).shape,
                views,
                views,
                residual,
                residual_ready,
                bucket.stage_index,
            )
            p_bytes_total += p_bytes
            q_bytes_total += q_bytes

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

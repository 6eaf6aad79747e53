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
group and factorises the replica-mean corrected gradient once: one pass forms
``residual + mean_r(gradient_r)``, two GEMMs give ``P`` and ``Q``, and a third
writes ``A`` block by block straight into replica 0's gradient, each block
subtracted from the residual and copied to the other replicas while it is in
cache.  P/Q traffic and payload bytes are those of the per-replica protocol (every
replica still puts its factors on the wire).  In exact arithmetic this is the
per-replica protocol; in floating point it sums in another order (checked against
a frozen per-replica oracle at ``rtol=1e-12`` in ``tests/test_core_selective_stage.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.compression.powersgd import matrix_view, orthogonalise, stable_key_hash
from repro.parallel.arena import BucketResidualStore, CodecBucket
from repro.parallel.collectives import SimulatedProcessGroup
from repro.plan import select_compressed_stages
from repro.tensor.parameter import Parameter
from repro.utils.random import seeded_rng

#: Elements per block of the replica-mean and residual passes (rounded down to
#: whole matrix rows): the replicas' gradient slices, the residual slice and the
#: one scratch tile stay in a per-core L2 while each gradient byte streams from
#: memory once.
_TILE_ELEMENTS = 1 << 14


@dataclass
class _TensorState:
    """Per-parameter compression state shared across iterations."""

    query: np.ndarray | None = None
    #: The DP group's error-feedback residual (per-parameter path only; the
    #: bucket path keeps it in a one-row slab of the residual store).
    residual: np.ndarray | None = None


class SelectiveStageCompression:
    """Data-parallel compression hook restricted to the critical-path stages.

    Implements the :class:`repro.parallel.data_parallel.DataParallelCompressionHook`
    protocol.

    Parameters
    ----------
    num_stages:
        Pipeline depth.
    stage_fraction:
        Fraction of stages (earliest first) whose DP gradients are compressed.
    rank:
        PowerSGD rank (paper default 128 for DP traffic).
    error_feedback:
        Keep the group's residual across iterations (classic error feedback).
    min_compression_elements:
        Parameters smaller than this are left uncompressed even on selected stages.
    """

    def __init__(
        self,
        num_stages: int,
        stage_fraction: float = 0.75,
        rank: int = 128,
        error_feedback: bool = True,
        min_compression_elements: int = 1024,
        seed: int = 0,
    ) -> None:
        if rank <= 0:
            raise ValueError("rank must be positive")
        self.num_stages = int(num_stages)
        self.stage_fraction = float(stage_fraction)
        self.rank = int(rank)
        self.error_feedback = bool(error_feedback)
        self.min_compression_elements = int(min_compression_elements)
        self.seed = int(seed)
        self.compressed_stages = select_compressed_stages(num_stages, stage_fraction)
        self._states: dict[str, _TensorState] = {}
        #: Bucket-path error-feedback residuals (one flat one-row slab per bucket).
        self._bucket_residuals = BucketResidualStore()
        self._tile = np.empty(_TILE_ELEMENTS)
        self.total_original_bytes = 0
        self.total_payload_bytes = 0

    # -- DataParallelCompressionHook protocol ----------------------------------------

    def should_compress(self, stage_index: int, parameter: Parameter) -> bool:
        """Compress 2-D+ parameters of the selected stages only."""
        if stage_index not in self.compressed_stages:
            return False
        if parameter.data.ndim < 2:
            return False
        return parameter.size >= self.min_compression_elements

    def _reduce_segment(
        self,
        key: str,
        shape: tuple[int, int],
        gradients: Sequence[np.ndarray],
        outputs: Sequence[np.ndarray],
        residual: np.ndarray | None,
        residual_ready: bool,
    ) -> tuple[int, int]:
        """One PowerSGD power iteration on the replica mean of the corrected gradients.

        ``gradients``/``outputs`` are each replica's flat contiguous gradient
        and result (they may alias: the bucket path reduces in place);
        ``residual`` is the group's flat residual, ``None`` without error
        feedback, and is only added to when ``residual_ready``.  The mean is
        formed in the residual (or, without one, in ``outputs[0]``, which the
        approximation overwrites once ``Q`` is known).  Both passes walk blocks
        of whole rows, so each block of ``A`` is subtracted from the residual
        and copied to the other replicas while its GEMM has just left it in
        cache.  Returns the P and Q payload bytes of one replica.
        """
        num_replicas = len(gradients)
        rows, cols = shape
        rank = max(1, min(self.rank, rows, cols))
        state = self._states.setdefault(key, _TensorState())
        if state.query is None or state.query.shape != (cols, rank):
            state.query = seeded_rng(self.seed + stable_key_hash(key)).standard_normal(
                (cols, rank)
            )
        block_rows = max(1, _TILE_ELEMENTS // cols)
        if self._tile.size < block_rows * cols:
            self._tile = np.empty(block_rows * cols)
        blocks = [(row, min(row + block_rows, rows)) for row in range(0, rows, block_rows)]

        mean = outputs[0] if residual is None else residual
        accumulate = residual is not None and residual_ready
        for first, last in blocks:
            start, stop = first * cols, last * cols
            tile = self._tile[: stop - start]
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
        p_factor = orthogonalise(matrix @ state.query)
        state.query = matrix.T @ p_factor
        approximation = outputs[0].reshape(shape)
        for first, last in blocks:
            np.matmul(p_factor[first:last], state.query.T, out=approximation[first:last])
            synced = outputs[0][first * cols : last * cols]
            if residual is not None:
                residual[first * cols : last * cols] -= synced
            for output in outputs[1:]:
                output[first * cols : last * cols] = synced

        p_bytes = int(p_factor.size * 2)
        q_bytes = int(state.query.size * 2)
        self.total_original_bytes += rows * cols * 2 * num_replicas
        self.total_payload_bytes += (p_bytes + q_bytes) * num_replicas
        return p_bytes, q_bytes

    def reduce(
        self,
        key: str,
        stage_index: int,
        gradients: Sequence[np.ndarray],
        group: SimulatedProcessGroup,
    ) -> list[np.ndarray]:
        """Distributed PowerSGD reduction of one parameter's gradients.

        Returns the synchronised gradient each replica should apply (identical for
        every replica, as all replicas reconstruct from the same all-reduced
        factors).
        """
        num_replicas = len(gradients)
        if num_replicas != group.size:
            raise ValueError(
                f"got {num_replicas} gradients but the group has {group.size} ranks"
            )
        original_shape = np.shape(gradients[0])
        shape = matrix_view(np.asarray(gradients[0])).shape
        residual, ready = None, False
        if self.error_feedback:
            state = self._states.setdefault(key, _TensorState())
            ready = state.residual is not None
            if not ready:
                state.residual = np.empty(shape)
            elif state.residual.shape != shape:
                raise ValueError(
                    f"stored error-feedback residual of {key!r} is {state.residual.shape}, "
                    f"its gradient's matrix is {shape}"
                )
            residual = state.residual.reshape(-1)
        outputs = [np.empty(original_shape) for _ in range(num_replicas)]
        p_bytes, q_bytes = self._reduce_segment(
            key,
            shape,
            [np.asarray(gradient, dtype=np.float64).reshape(-1) for gradient in gradients],
            [output.reshape(-1) for output in outputs],
            residual,
            ready,
        )
        group.record_collective("all_reduce", p_bytes, compressed=True, description=f"{key}:P")
        group.record_collective("all_reduce", q_bytes, compressed=True, description=f"{key}:Q")
        return outputs

    def reduce_bucket(
        self,
        bucket: CodecBucket,
        flat_gradients: Sequence[np.ndarray],
        group: SimulatedProcessGroup,
    ) -> None:
        """Distributed PowerSGD reduction of one codec bucket, in place.

        ``flat_gradients[r]`` is replica ``r``'s whole flat gradient buffer (the
        arena's ``grad`` array); each segment is reduced on its zero-copy views
        by the same kernel as :meth:`reduce` — same per-tensor keys, same
        warm-started queries — so the weights that come out are bit-identical
        to the per-parameter path.  What changes is granularity: one hook
        invocation and one P/Q traffic record pair per *bucket*, and the
        group's residuals live in one flat ``(1, elements)`` slab per bucket
        instead of one dict entry per parameter.
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
            )
            p_bytes_total += p_bytes
            q_bytes_total += q_bytes

        label = f"stage{bucket.stage_index} codec-bucket{bucket.index}"
        group.record_collective(
            "all_reduce", p_bytes_total, compressed=True, description=f"{label}:P"
        )
        group.record_collective(
            "all_reduce", q_bytes_total, compressed=True, description=f"{label}:Q"
        )

    # -- reporting ---------------------------------------------------------------------

    def bytes_saved_fraction(self) -> float:
        """Fraction of DP bytes removed from the wire by the compression so far."""
        if self.total_original_bytes == 0:
            return 0.0
        return 1.0 - self.total_payload_bytes / self.total_original_bytes

    def residual_memory_bytes(self) -> int:
        """Memory held by the error-feedback residuals (fp32 accounting).

        One residual per compressed parameter for the whole DP group, whatever
        the number of replicas.
        """
        total = sum(
            state.residual.size * 4
            for state in self._states.values()
            if state.residual is not None
        )
        return total + self._bucket_residuals.memory_bytes()

    def reset(self) -> None:
        """Drop residuals, warm-started factors, and counters."""
        self._states.clear()
        self._bucket_residuals.clear()
        self.total_original_bytes = 0
        self.total_payload_bytes = 0

    def clear_residuals(self) -> None:
        """Drop error-feedback residuals but keep the warm-started Q factors.

        Used by graceful degradation: the residual is the mean over the group
        that lost a replica, which the survivors' mean is not, so error feedback
        restarts while the (replica-agnostic) warm starts survive.
        """
        for state in self._states.values():
            state.residual = None
        self._bucket_residuals.clear()

    def state_dict(self) -> dict:
        """All cross-iteration state: warm-started Q factors and EF residuals.

        Array leaves are live references (see ``Compressor.state_dict``).
        The traffic counters (``total_original_bytes``/``total_payload_bytes``)
        are reporting-only and deliberately excluded — restoring them would
        make a resumed run double-count wire traffic it never sent.
        """
        states = {
            key: {"query": state.query, "residual": state.residual}
            for key, state in self._states.items()
        }
        return {"states": states, "bucket_residuals": self._bucket_residuals.state_dict()}

    def load_state_dict(self, payload: dict) -> None:
        def array(value):
            return None if value is None else np.array(value, dtype=np.float64)

        self._states = {
            str(key): _TensorState(query=array(entry["query"]), residual=array(entry["residual"]))
            for key, entry in payload["states"].items()
        }
        self._bucket_residuals.load_state_dict(payload["bucket_residuals"])

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
error feedback: every replica adds its residual, the ``P`` and ``Q`` factors are
all-reduced (that is the only traffic), every replica reconstructs the same
approximation, and keeps its own new residual.
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


@dataclass
class _TensorState:
    """Per-parameter compression state shared across iterations."""

    query: np.ndarray | None = None
    residuals: dict[int, np.ndarray] | None = None


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
        Keep per-replica residuals across iterations (classic error feedback).
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
        #: Bucket-path error-feedback residuals (flat per-bucket slabs).
        self._bucket_residuals = BucketResidualStore()
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
        state = self._states.setdefault(key, _TensorState(residuals={}))

        matrices = []
        for replica, gradient in enumerate(gradients):
            matrix = matrix_view(np.asarray(gradient, dtype=np.float64)).copy()
            if self.error_feedback:
                residual = state.residuals.get(replica)
                if residual is not None:
                    matrix += residual
            matrices.append(matrix)

        rows, cols = matrices[0].shape
        rank = max(1, min(self.rank, rows, cols))

        if state.query is None or state.query.shape != (cols, rank):
            rng = seeded_rng(self.seed + stable_key_hash(key))
            state.query = rng.standard_normal((cols, rank))

        # Step 1: local P = M @ Q, all-reduced (mean) across replicas.
        local_p = [matrix @ state.query for matrix in matrices]
        p_bytes = int(local_p[0].size * 2)
        reduced_p = group.all_reduce(
            local_p, op="mean", payload_bytes=p_bytes, compressed=True, description=f"{key}:P"
        )
        p_factor = orthogonalise(reduced_p[0])

        # Step 2: local Q = M.T @ P, all-reduced (mean) across replicas.
        local_q = [matrix.T @ p_factor for matrix in matrices]
        q_bytes = int(local_q[0].size * 2)
        reduced_q = group.all_reduce(
            local_q, op="mean", payload_bytes=q_bytes, compressed=True, description=f"{key}:Q"
        )
        q_factor = reduced_q[0]
        state.query = q_factor.copy()

        approximation = p_factor @ q_factor.T

        # Error feedback: each replica keeps (its corrected gradient - approximation).
        if self.error_feedback:
            for replica, matrix in enumerate(matrices):
                state.residuals[replica] = matrix - approximation

        original_shape = np.asarray(gradients[0]).shape
        self.total_original_bytes += int(np.asarray(gradients[0]).size * 2) * num_replicas
        self.total_payload_bytes += (p_bytes + q_bytes) * num_replicas

        result = approximation.reshape(original_shape)
        return [result.copy() for _ in range(num_replicas)]

    def reduce_bucket(
        self,
        bucket: CodecBucket,
        flat_gradients: Sequence[np.ndarray],
        group: SimulatedProcessGroup,
    ) -> None:
        """Distributed PowerSGD reduction of one codec bucket, in place.

        ``flat_gradients[r]`` is replica ``r``'s whole flat gradient buffer (the
        arena's ``grad`` array); each segment is reduced on its zero-copy view.
        Per segment the math is exactly :meth:`reduce` — same per-tensor keys,
        same warm-started queries, same mean-of-replicas factors — so the weights
        that come out are bit-identical to the per-parameter path.  What changes
        is granularity: one hook invocation and one P/Q traffic record pair per
        *bucket*, and the error-feedback residuals live in one flat
        ``(replicas, elements)`` slab per bucket instead of one dict entry per
        parameter per replica.  The slab doubles as the workspace: the corrected
        gradient is accumulated into it (``residual += gradient`` — addition
        commutes bitwise), factorised there, and turned back into the new
        residual by subtracting the approximation in place.
        """
        num_replicas = len(flat_gradients)
        if num_replicas != group.size:
            raise ValueError(
                f"got {num_replicas} gradient buffers but the group has {group.size} ranks"
            )
        residual_slab, residual_ready = (
            self._bucket_residuals.slab(bucket, num_replicas)
            if self.error_feedback
            else (None, False)
        )

        p_bytes_total = 0
        q_bytes_total = 0
        for segment in bucket.segments:
            state = self._states.setdefault(segment.name, _TensorState(residuals={}))
            span = slice(segment.offset, segment.offset + segment.num_elements)

            views = []
            matrices = []
            for replica in range(num_replicas):
                view = flat_gradients[replica][segment.start : segment.stop].reshape(
                    segment.shape
                )
                views.append(view)
                matrix = matrix_view(view)
                if self.error_feedback:
                    corrected = residual_slab[replica, span].reshape(matrix.shape)
                    if residual_ready:
                        corrected += matrix
                    else:  # nothing stored yet: the first call adds no residual
                        corrected[...] = matrix
                    matrix = corrected
                matrices.append(matrix)

            rows, cols = matrices[0].shape
            rank = max(1, min(self.rank, rows, cols))
            if state.query is None or state.query.shape != (cols, rank):
                rng = seeded_rng(self.seed + stable_key_hash(segment.name))
                state.query = rng.standard_normal((cols, rank))

            local_p = [matrix @ state.query for matrix in matrices]
            p_factor = orthogonalise(np.mean(np.stack(local_p), axis=0))
            local_q = [matrix.T @ p_factor for matrix in matrices]
            q_factor = np.mean(np.stack(local_q), axis=0)
            state.query = q_factor.copy()
            approximation = p_factor @ q_factor.T

            if self.error_feedback:
                for corrected in matrices:
                    corrected -= approximation

            synced = approximation.reshape(segment.shape)
            for view in views:
                view[...] = synced

            p_bytes = int(local_p[0].size * 2)
            q_bytes = int(local_q[0].size * 2)
            p_bytes_total += p_bytes
            q_bytes_total += q_bytes
            self.total_original_bytes += int(segment.num_elements * 2) * num_replicas
            self.total_payload_bytes += (p_bytes + q_bytes) * num_replicas

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
        """Memory held by the error-feedback residuals (fp32 accounting, all replicas)."""
        total = 0
        for state in self._states.values():
            if state.residuals:
                total += sum(residual.size * 4 for residual in state.residuals.values())
        total += self._bucket_residuals.memory_bytes()
        return total

    def reset(self) -> None:
        """Drop residuals, warm-started factors, and counters."""
        self._states.clear()
        self._bucket_residuals.clear()
        self.total_original_bytes = 0
        self.total_payload_bytes = 0

    def clear_replica_residuals(self) -> None:
        """Drop error-feedback residuals but keep the warm-started Q factors.

        Used by graceful degradation: after a replica loss the per-replica
        residual indexing is stale, so every replica restarts its residual
        accumulation, while the (replica-agnostic) warm starts survive.
        """
        for state in self._states.values():
            if state.residuals:
                state.residuals.clear()
        self._bucket_residuals.clear()

    def state_dict(self) -> dict:
        """All cross-iteration state: warm-started Q factors and EF residuals.

        Array leaves are live references (see ``Compressor.state_dict``).
        The traffic counters (``total_original_bytes``/``total_payload_bytes``)
        are reporting-only and deliberately excluded — restoring them would
        make a resumed run double-count wire traffic it never sent.
        """
        states = {}
        for key, state in self._states.items():
            states[key] = {
                "query": state.query,
                "residuals": {
                    str(replica): residual
                    for replica, residual in (state.residuals or {}).items()
                },
            }
        return {"states": states, "bucket_residuals": self._bucket_residuals.state_dict()}

    def load_state_dict(self, payload: dict) -> None:
        self._states = {
            str(key): _TensorState(
                query=None if entry["query"] is None else np.array(entry["query"], dtype=np.float64),
                residuals={
                    int(replica): np.array(residual, dtype=np.float64)
                    for replica, residual in entry["residuals"].items()
                },
            )
            for key, entry in payload["states"].items()
        }
        self._bucket_residuals.load_state_dict(payload["bucket_residuals"])

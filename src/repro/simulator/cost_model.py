"""Analytic cost model: FLOPs, communication volumes, and kernel times.

The model follows the structure of Megatron-LM's 3D parallelism:

* each pipeline stage owns a contiguous block of transformer layers (the first
  stage also owns the embeddings, the last the tied output head);
* tensor parallelism splits every layer across the GPUs of one node, so its
  all-reduces ride NVLink and are folded into the compute terms (as the paper does
  in its breakdowns);
* pipeline-parallel point-to-point traffic and data-parallel all-reduce traffic
  cross the node NIC, which is shared by the node's GPUs.

All times are seconds, all volumes bytes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.compression.base import UNCOMPRESSED_BYTES_PER_ELEMENT
from repro.compression.topk import INDEX_BYTES, num_kept
from repro.models.gpt_configs import PaperModelSpec
from repro.parallel.collectives import ring_all_reduce_wire_bytes
from repro.parallel.process_groups import ParallelLayout
from repro.plan import (
    DP_FIRE_KINDS,
    SPLIT_BACKWARD_KINDS,
    validate_memory_cap_factor,
    validate_schedule_kind,
)
from repro.simulator.hardware import ClusterSpec, PAPER_CLUSTER_SPEC

#: Version tag of the analytic cost model, folded into plan-search cache keys
#: (:mod:`repro.search.cache`).  Bump it whenever a change to the cost methods,
#: the calibration constants' defaults, the memory model, or the schedule
#: replay alters what :func:`repro.simulator.evaluate.evaluate_plan` returns
#: for an unchanged plan — cached evaluations from the older model then miss
#: instead of serving stale numbers.
COST_MODEL_VERSION = "2026.10-2"

#: Entries each of the simulator's per-class memos keeps (:func:`job_cost_model`,
#: the per-job / per-spec timing terms in :mod:`repro.simulator.executor`, the
#: memory peaks in :mod:`repro.simulator.memory_model`, the shared jobs of
#: :func:`repro.simulator.evaluate.plan_job`).  Like
#: :data:`repro.simulator.executor.REPLAY_MEMO_SIZE` the bound is memory
#: hygiene for a long-lived process, not a tuning knob — an entry is a job
#: reference and at most a few floats per stage — but it must hold one whole
#: query: a process that answers the same sweep twice (a batch, a budget
#: ladder) walks the classes in the same order, so a table one entry too small
#: evicts cyclically and recomputes every class on every pass.  Sized at twice
#: the largest table the flagship query (``benchmarks/e2e/queries/flagship.json``)
#: fills: 504 memory-peak classes, 366 DP-term classes, 100 jobs.
CLASS_MEMO_SIZE = 1024

#: fp16 weight + fp16 gradient + fp32 master weight + fp32 Adam m + fp32 Adam v.
BYTES_PER_PARAMETER_WITH_OPTIMIZER = 2 + 2 + 4 + 4 + 4

#: Bytes of activation memory per token per hidden unit for one transformer layer
#: (fp16, no sequence parallelism): the standard ~34 B·s·h estimate.
ACTIVATION_BYTES_PER_TOKEN_HIDDEN = 34

#: Bytes per token per hidden unit a split-backward (zb1/auto) schedule keeps
#: alive between a layer's B and W passes: the four Linear inputs (QKV h,
#: attention projection h, MLP up h, MLP down 4h = 7·s·h) and their output
#: gradients (3h + h + 4h + h = 9·s·h), 16·s·h fp16 elements in total.  The B
#: pass releases everything else (the LayerNorm W pass keeps only 1-D
#: parameter-gradient vectors, negligible here); the tied output head's logit
#: gradient is not charged, mirroring the activation estimate above, which
#: also excludes the head.
WEIGHT_STASH_BYTES_PER_TOKEN_HIDDEN = 32


@dataclass(frozen=True)
class TrainingJob:
    """A model + parallel layout + batch configuration to be simulated.

    The defaults mirror Table 1 of the paper: micro-batch 8, global mini-batch 512,
    sequence length 1024, TP8/DP4/PP4.
    """

    model: PaperModelSpec
    layout: ParallelLayout = field(default_factory=ParallelLayout)
    cluster: ClusterSpec = PAPER_CLUSTER_SPEC
    micro_batch_size: int = 8
    global_batch_size: int = 512
    sequence_length: int | None = None
    #: Megatron interleaved-1F1B model chunks per stage.  The paper applies the
    #: interleaved schedule (Section 8), which multiplies the number of inter-stage
    #: transfers while shrinking each compute segment; 1 selects plain 1F1B (the
    #: schedule the paper's timing diagrams are drawn with).
    num_model_chunks: int = 2
    #: DP bucket firing granularity (``repro.plan.Schedule.dp_fire``): with
    #: ``"micro_batch"`` the overlap window of each stage's DP traffic opens one
    #: backward op earlier — buckets start leaving inside the final micro-batch's
    #: backward pass instead of at the stage's drain point.
    dp_fire: str = "stage"
    #: Pipeline schedule shape (``repro.plan.Schedule.kind``): ``"1f1b"`` (the
    #: fused-backward schedule), ``"serial"`` (the same 1F1B op lists with
    #: every stage's DP all-reduce starting when the pipeline has drained,
    #: none of it overlapped), ``"zb1"`` (zero-bubble ZB-H1 with the backward
    #: split into B and W passes), or ``"auto"`` (a synthesized split-backward
    #: schedule under ``memory_cap_factor``).  The split kinds require
    #: ``num_model_chunks == 1``.
    schedule_kind: str = "1f1b"
    #: ``"auto"`` only: activation-memory budget of the schedule search as a
    #: multiple of the 1F1B in-flight peak (``repro.plan.Schedule.memory_cap_factor``).
    memory_cap_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.dp_fire not in DP_FIRE_KINDS:
            raise ValueError(
                f"dp_fire must be one of {DP_FIRE_KINDS}, got {self.dp_fire!r}"
            )
        validate_schedule_kind(self.schedule_kind, context="TrainingJob.schedule_kind")
        if self.schedule_kind in SPLIT_BACKWARD_KINDS and self.num_model_chunks > 1:
            raise ValueError(
                f"{self.schedule_kind} is a plain (non-interleaved) schedule; "
                "num_model_chunks must be 1"
            )
        validate_memory_cap_factor(self.memory_cap_factor)
        per_replica = self.global_batch_size / self.layout.data_parallel
        if per_replica != int(per_replica):
            raise ValueError(
                f"global batch {self.global_batch_size} not divisible by data-parallel degree "
                f"{self.layout.data_parallel}"
            )
        if int(per_replica) % self.micro_batch_size != 0:
            raise ValueError(
                f"per-replica batch {int(per_replica)} not divisible by micro-batch "
                f"{self.micro_batch_size}"
            )
        if self.num_model_chunks <= 0:
            raise ValueError("num_model_chunks must be positive")
        if self.num_model_chunks > 1 and self.num_micro_batches % self.layout.pipeline_parallel != 0:
            raise ValueError(
                "interleaved scheduling requires the micro-batch count per replica "
                f"({self.num_micro_batches}) to be a multiple of the pipeline depth "
                f"({self.layout.pipeline_parallel})"
            )

    @property
    def seq_length(self) -> int:
        return self.sequence_length if self.sequence_length is not None else self.model.sequence_length

    @property
    def num_micro_batches(self) -> int:
        """Micro-batches per data-parallel replica per iteration."""
        return self.global_batch_size // self.layout.data_parallel // self.micro_batch_size

    @property
    def num_stages(self) -> int:
        return self.layout.pipeline_parallel


class CostModel:
    """Computes compute times, communication times, and compression kernel times."""

    def __init__(self, job: TrainingJob) -> None:
        self.job = job
        self.model = job.model
        self.layout = job.layout
        self.cluster = job.cluster
        self.constants = job.cluster.constants
        # When a node hosts GPUs from several pipeline stages (TP degree smaller than
        # the node size), its NIC is shared by their concurrent inter-node traffic.
        self._nic_contention = max(
            1.0, self.cluster.topology.gpus_per_node / self.layout.tensor_parallel
        )

    # ------------------------------------------------------------------ layers --

    def layers_on_stage(self, stage: int) -> int:
        """Number of transformer layers owned by ``stage``."""
        num_stages = self.layout.pipeline_parallel
        if not 0 <= stage < num_stages:
            raise ValueError(f"stage {stage} out of range [0, {num_stages})")
        base = self.model.num_layers // num_stages
        remainder = self.model.num_layers % num_stages
        return base + (1 if stage < remainder else 0)

    # ------------------------------------------------------------------ compute --

    def _layer_forward_flops(self) -> float:
        """Forward FLOPs of one transformer layer for one micro-batch."""
        batch = self.job.micro_batch_size
        seq = self.job.seq_length
        hidden = self.model.hidden_size
        # 12 H^2 per token from the four GEMMs (QKV 3H^2, proj H^2, MLP 2*4H^2),
        # plus the attention score/context GEMMs (2 * S * H per token); factor 2 for MACs.
        return 2.0 * batch * seq * (12.0 * hidden * hidden + 2.0 * seq * hidden)

    def _embedding_forward_flops(self) -> float:
        """Forward FLOPs of the output-logit projection for one micro-batch."""
        batch = self.job.micro_batch_size
        seq = self.job.seq_length
        return 2.0 * batch * seq * self.model.hidden_size * self.model.vocab_size

    def _flops_to_time(self, flops: float) -> float:
        """Convert per-stage FLOPs into seconds, accounting for the TP split."""
        per_gpu = flops / self.layout.tensor_parallel
        effective = self.cluster.gpu.peak_fp16_flops * self.constants.compute_efficiency
        return per_gpu / effective

    def forward_time(self, stage: int) -> float:
        """Forward-pass compute time of ``stage`` for one micro-batch."""
        flops = self.layers_on_stage(stage) * self._layer_forward_flops()
        if stage == self.layout.pipeline_parallel - 1:
            flops += self._embedding_forward_flops()
        return self._flops_to_time(flops)

    def backward_time(self, stage: int) -> float:
        """Backward-pass compute time of ``stage`` for one micro-batch.

        Backward is 2x forward; with activation recomputation enabled (Megatron's
        default for these model sizes) an extra forward is added, giving 3x.
        """
        multiplier = 3.0 if self.constants.recompute_activations else 2.0
        flops = multiplier / 2.0 * 2.0 * self.layers_on_stage(stage) * self._layer_forward_flops()
        if stage == self.layout.pipeline_parallel - 1:
            flops += 2.0 * self._embedding_forward_flops()
        return self._flops_to_time(flops)

    def backward_weight_time(self, stage: int) -> float:
        """Weight-gradient (W) share of the backward pass under a split schedule.

        The weight-gradient GEMMs of a transformer layer cost one forward
        equivalent (the dgrad GEMMs cost the other; recomputation, when enabled,
        belongs to the activation-gradient pass, which must re-materialise the
        activations before it can run).  The last stage's tied-projection wgrad
        adds one embedding-forward equivalent.
        """
        flops = self.layers_on_stage(stage) * self._layer_forward_flops()
        if stage == self.layout.pipeline_parallel - 1:
            flops += self._embedding_forward_flops()
        return self._flops_to_time(flops)

    def backward_input_time(self, stage: int) -> float:
        """Activation-gradient (B) share of the backward pass under a split schedule.

        ``backward_input_time + backward_weight_time == backward_time`` exactly,
        so a split schedule moves work around without inventing or losing any.
        """
        return self.backward_time(stage) - self.backward_weight_time(stage)

    # ------------------------------------------------------- activation memory --

    def activation_bytes_per_microbatch(self, stage: int) -> float:
        """Activation bytes one in-flight micro-batch holds on ``stage``."""
        tokens = self.job.micro_batch_size * self.job.seq_length
        per_layer = tokens * self.model.hidden_size * ACTIVATION_BYTES_PER_TOKEN_HIDDEN
        per_layer /= self.layout.tensor_parallel
        return per_layer * self.layers_on_stage(stage)

    def weight_stash_bytes_per_microbatch(self, stage: int) -> float:
        """W-stash bytes one micro-batch holds between its B and W passes."""
        tokens = self.job.micro_batch_size * self.job.seq_length
        per_layer = tokens * self.model.hidden_size * WEIGHT_STASH_BYTES_PER_TOKEN_HIDDEN
        per_layer /= self.layout.tensor_parallel
        return per_layer * self.layers_on_stage(stage)

    def auto_synthesis_spec(self) -> "SynthesisSpec":
        """The schedule-synthesis problem this job poses (``schedule_kind="auto"``).

        Per-stage F/B/W times come from the split-backward cost methods, the
        transfer delay is the uncompressed inter-stage p2p time (compression is
        a replay-time concern; the synthesizer only needs a consistent
        estimate), and the memory terms use the same per-micro-batch byte
        accounting as :class:`repro.simulator.memory_model.MemoryModel`.
        """
        from repro.parallel.scheduler import StageCosts, SynthesisSpec

        num_stages = self.layout.pipeline_parallel
        return SynthesisSpec(
            num_stages=num_stages,
            num_micro_batches=self.job.num_micro_batches,
            costs=tuple(
                StageCosts(
                    forward=self.forward_time(stage),
                    backward_input=self.backward_input_time(stage),
                    backward_weight=self.backward_weight_time(stage),
                )
                for stage in range(num_stages)
            ),
            transfer_delay=self.interstage_time(),
            memory_cap_factor=self.job.memory_cap_factor,
            activation_bytes=tuple(
                self.activation_bytes_per_microbatch(stage) for stage in range(num_stages)
            ),
            stash_bytes=tuple(
                self.weight_stash_bytes_per_microbatch(stage) for stage in range(num_stages)
            ),
        )

    # ----------------------------------------------------------- inter-stage p2p --

    def activation_elements(self) -> int:
        """Elements of one inter-stage activation tensor (per micro-batch)."""
        return self.job.micro_batch_size * self.job.seq_length * self.model.hidden_size

    def interstage_message_bytes(self) -> float:
        """Bytes one inter-stage transfer pushes through the node NIC.

        Every tensor-parallel rank exchanges the (replicated) activation with its
        peer on the adjacent stage, so without the scatter-gather optimisation the
        node NIC carries ``tp`` copies.
        """
        per_rank = self.activation_elements() * self.constants.activation_wire_bytes
        if self.constants.scatter_gather_pipeline_comm:
            return float(per_rank * self._nic_contention)
        return float(per_rank * self.layout.tensor_parallel * self._nic_contention)

    def compressed_activation_bytes(
        self, rank: int, codec: str = "powersgd", fraction: float = 0.01
    ) -> float:
        """Wire bytes of a compressed inter-stage transfer under the PP codec.

        The activation gradient of shape ``(micro_batch * seq, hidden)``
        travels as what the engine's codec sends for it:

        * ``"powersgd"`` — its ``P (n x r)`` and ``Q (m x r)`` factors;
        * ``"topk"`` — the kept (value, int32 index) pairs, counted by the
          engine codec's rule (:func:`~repro.compression.topk.num_kept`).
        """
        rows = self.job.micro_batch_size * self.job.seq_length
        cols = self.model.hidden_size
        if codec == "powersgd":
            rank = max(1, min(rank, rows, cols))
            per_rank_bytes = rank * (rows + cols) * self.constants.activation_wire_bytes
        elif codec == "topk":
            pair_bytes = UNCOMPRESSED_BYTES_PER_ELEMENT + INDEX_BYTES
            per_rank_bytes = num_kept(fraction, rows * cols) * pair_bytes
        else:
            raise ValueError(f"unknown pp codec {codec!r}")
        if self.constants.scatter_gather_pipeline_comm:
            return float(per_rank_bytes * self._nic_contention)
        return float(per_rank_bytes * self.layout.tensor_parallel * self._nic_contention)

    def p2p_time(self, message_bytes: float) -> float:
        """Point-to-point transfer time across the inter-node link.

        Pipeline transfers of the node's tensor-parallel peers serialise through the
        node's HCA at the effective point-to-point rate (PyTorch-era blocking
        send/recv achieves far less than the NIC line rate), which is why the paper
        finds inter-stage communication worth compressing even on InfiniBand HDR.
        """
        if message_bytes <= 0:
            return 0.0
        return self.cluster.inter_node_latency_s + message_bytes / self.cluster.p2p_bandwidth_bytes_per_s

    def interstage_time(self) -> float:
        """Time of one uncompressed inter-stage transfer."""
        return self.p2p_time(self.interstage_message_bytes())

    def tensor_parallel_wire_bytes(self, stage: int) -> float:
        """Intra-node (NVLink) bytes of one stage's TP all-reduces per iteration.

        Two all-reduces per transformer layer per direction (forward and backward)
        per micro-batch, each carrying the full activation.  The paper folds the
        *time* of these into the compute terms (they ride NVLink); the volume is
        still reported so the unified engine's per-axis accounting has a simulator
        counterpart.
        """
        if self.layout.tensor_parallel <= 1:
            return 0.0
        per_transfer = self.activation_elements() * self.constants.activation_wire_bytes
        transfers = 4 * self.layers_on_stage(stage) * self.job.num_micro_batches
        return transfers * ring_all_reduce_wire_bytes(per_transfer, self.layout.tensor_parallel)

    # ------------------------------------------------------------ data parallel --

    def stage_weight_matrices(self, stage: int) -> list[tuple[int, int]]:
        """Shapes of the 2-D weight matrices a stage all-reduces (excluding embeddings)."""
        hidden = self.model.hidden_size
        per_layer = [
            (hidden, 3 * hidden),  # fused QKV
            (hidden, hidden),  # attention output projection
            (hidden, 4 * hidden),  # MLP up-projection
            (4 * hidden, hidden),  # MLP down-projection
        ]
        return per_layer * self.layers_on_stage(stage)

    def stage_small_parameters(self, stage: int) -> int:
        """Scalar count of the 1-D parameters (biases, LayerNorms) of a stage."""
        hidden = self.model.hidden_size
        per_layer = 3 * hidden + hidden + 4 * hidden + hidden + 4 * hidden  # biases + 2 LN
        total = per_layer * self.layers_on_stage(stage)
        if stage == self.layout.pipeline_parallel - 1:
            total += 2 * hidden  # final LayerNorm
        if stage == 0:
            total += self.job.seq_length * 0  # position embedding handled below
        return total

    def dp_gradient_bytes(self, stage: int, include_position_embedding: bool = True) -> float:
        """Per-node-NIC bytes of the stage's data-parallel gradient all-reduce.

        The word-embedding copies are excluded (they are synchronised by the
        embedding path); the position embedding of the first stage is included.
        """
        elements = sum(rows * cols for rows, cols in self.stage_weight_matrices(stage))
        elements += self.stage_small_parameters(stage)
        if include_position_embedding and stage == 0:
            elements += self.job.seq_length * self.model.hidden_size
        total_bytes = elements * self.constants.gradient_wire_bytes * self._nic_contention
        # Each of the node's TP ranks all-reduces its 1/tp shard through the shared
        # NIC; the shards together cover the full stage, hence the full volume.
        return ring_all_reduce_wire_bytes(total_bytes, self.layout.data_parallel)

    def dp_compressed_gradient_bytes(
        self,
        stage: int,
        rank: int,
        codec: str = "powersgd",
        qsgd_bits: int = 4,
        topk_fraction: float = 0.01,
    ) -> float:
        """Per-node-NIC bytes of the stage's DP all-reduce under the given codec.

        The codec vocabulary matches the engine's
        (:data:`repro.simulator.executor.DP_CODECS`):

        * ``"powersgd"`` — each ``rows x cols`` matrix shrinks to its rank-``r``
          ``P``/``Q`` factors, ``r (rows + cols)`` elements;
        * ``"qsgd"`` — every element shrinks from 16 wire bits to ``qsgd_bits``
          (plus a per-matrix norm, negligible at these sizes);
        * ``"topk"`` — the kept fraction of elements travels as (value, index)
          pairs, 16 + 32 bits each;
        * ``"none"`` — no compression (the exact volume).

        1-D parameters (biases, LayerNorms, the position embedding) pass through
        uncompressed in every codec, matching the engine's
        ``min_compression_elements``/2-D-only routing.
        """
        matrix_elements = 0.0
        for rows, cols in self.stage_weight_matrices(stage):
            full = rows * cols
            if codec == "powersgd":
                effective = max(1, min(rank, rows, cols))
                matrix_elements += min(effective * (rows + cols), full)
            elif codec == "qsgd":
                wire_bits = 8.0 * self.constants.gradient_wire_bytes
                matrix_elements += full * min(1.0, qsgd_bits / wire_bits)
            elif codec == "topk":
                wire_bits = 8.0 * self.constants.gradient_wire_bytes
                pair_bits = wire_bits + 32.0  # value + int32 index
                matrix_elements += min(full * topk_fraction * pair_bits / wire_bits, full)
            elif codec == "none":
                matrix_elements += full
            else:
                raise ValueError(f"unknown dp codec {codec!r}")
        elements = matrix_elements + self.stage_small_parameters(stage)  # pass-through
        if stage == 0:
            elements += self.job.seq_length * self.model.hidden_size
        total_bytes = elements * self.constants.gradient_wire_bytes * self._nic_contention
        return ring_all_reduce_wire_bytes(total_bytes, self.layout.data_parallel)

    def collective_time(self, wire_bytes: float) -> float:
        """Time of a collective given its per-NIC wire bytes."""
        if wire_bytes <= 0:
            return 0.0
        return self.cluster.inter_node_latency_s + wire_bytes / self.cluster.node_inter_bandwidth_bytes_per_s

    def dp_time(self, stage: int, compressed_rank: int | None = None) -> float:
        """Data-parallel all-reduce time of one stage (optionally compressed)."""
        if self.layout.data_parallel == 1:
            return 0.0
        if compressed_rank is None:
            return self.collective_time(self.dp_gradient_bytes(stage))
        return self.collective_time(self.dp_compressed_gradient_bytes(stage, compressed_rank))

    # --------------------------------------------------------------- embeddings --

    def embedding_gradient_bytes(self) -> float:
        """Raw bytes of one word-embedding gradient copy (per node NIC)."""
        return float(
            self.model.word_embedding_parameters()
            * self.constants.gradient_wire_bytes
            * self._nic_contention
        )

    def embedding_dp_time(self) -> float:
        """Baseline: DP all-reduce of one embedding copy across the replicas."""
        if self.layout.data_parallel == 1:
            return 0.0
        wire = ring_all_reduce_wire_bytes(self.embedding_gradient_bytes(), self.layout.data_parallel)
        return self.collective_time(wire)

    def embedding_sync_time(self) -> float:
        """Baseline: the 2-way all-reduce between the first- and last-stage copies.

        A two-rank all-reduce is effectively a point-to-point exchange, so it runs
        at the (slow) p2p rate rather than the ring-collective rate — one of the
        inefficiencies fused embedding synchronisation removes by folding the
        exchange into a single 2D-way NCCL ring.
        """
        if self.layout.pipeline_parallel == 1:
            return 0.0
        wire = ring_all_reduce_wire_bytes(self.embedding_gradient_bytes(), 2)
        return self.p2p_time(wire)

    def fused_embedding_time(self) -> float:
        """Fused: a single all-reduce over ``2 * D`` embedding copies (Section 6)."""
        if self.layout.pipeline_parallel == 1:
            return self.embedding_dp_time()
        ranks = 2 * self.layout.data_parallel
        wire = ring_all_reduce_wire_bytes(self.embedding_gradient_bytes(), ranks)
        return self.collective_time(wire)

    # --------------------------------------------------------- compression kernels --

    def powersgd_compress_time(self, rows: int, cols: int, rank: int) -> float:
        """Time to compress an ``rows x cols`` matrix at rank ``rank`` on one GPU.

        The cost is two GEMMs (``M @ Q`` and ``M.T @ P``) plus the Gram-Schmidt
        orthogonalisation whose sequential, per-column kernel launches dominate —
        matching the paper's observation that orthogonalisation is ~80 % of the cost
        and that throughput *decreases* as the rank grows (Section 9.6).
        """
        rank = max(1, min(rank, rows, cols))
        gemm_flops = 4.0 * rows * cols * rank
        gemm_rate = self.cluster.gpu.peak_fp16_flops * self.constants.compression_gemm_efficiency
        gemm_time = gemm_flops / gemm_rate
        ortho_time = rank * self.constants.orthogonalisation_kernel_launch_s + (
            2.0 * rows * rank * rank
        ) / gemm_rate
        return self.constants.kernel_fixed_overhead_s + gemm_time + ortho_time

    def powersgd_decompress_time(self, rows: int, cols: int, rank: int) -> float:
        """Time to reconstruct ``P @ Q.T`` on one GPU."""
        rank = max(1, min(rank, rows, cols))
        gemm_flops = 2.0 * rows * cols * rank
        gemm_rate = self.cluster.gpu.peak_fp16_flops * self.constants.compression_gemm_efficiency
        return self.constants.kernel_fixed_overhead_s + gemm_flops / gemm_rate

    def activation_compression_overhead(self, rank: int, codec: str = "powersgd") -> float:
        """Compress + decompress overhead for one inter-stage transfer under the PP codec."""
        rows = self.job.micro_batch_size * self.job.seq_length
        cols = self.model.hidden_size
        if codec == "topk":
            # Elementwise select + scatter back, as the DP top-k kernel is
            # charged (:meth:`dp_compression_overhead`).
            gemm_rate = (
                self.cluster.gpu.peak_fp16_flops * self.constants.compression_gemm_efficiency
            )
            passes = 4.0  # threshold scan, select, scatter, accumulate
            return 2.0 * self.constants.kernel_fixed_overhead_s + passes * rows * cols / gemm_rate
        return self.powersgd_compress_time(rows, cols, rank) + self.powersgd_decompress_time(
            rows, cols, rank
        )

    def dp_compression_overhead(self, stage: int, rank: int, codec: str = "powersgd") -> float:
        """Compress + decompress overhead for a stage's DP gradients (per iteration).

        Each TP rank compresses its shard of every weight matrix; the shards are
        ``1/tp`` of the full matrices, so we charge the full-matrix cost divided by
        the TP degree.  PowerSGD pays two GEMMs plus the orthogonalisation; QSGD
        and top-k are elementwise kernels (a few passes over the gradient), far
        cheaper per byte but with the same fixed launch overheads.
        """
        if codec == "none":
            return 0.0
        total = 0.0
        for rows, cols in self.stage_weight_matrices(stage):
            if codec == "powersgd":
                total += self.powersgd_compress_time(rows, cols, rank)
                total += self.powersgd_decompress_time(rows, cols, rank)
            else:  # qsgd / topk: elementwise quantise/select + scatter back
                gemm_rate = (
                    self.cluster.gpu.peak_fp16_flops
                    * self.constants.compression_gemm_efficiency
                )
                passes = 4.0  # norm/threshold scan, encode, decode, accumulate
                total += 2.0 * self.constants.kernel_fixed_overhead_s
                total += passes * rows * cols / gemm_rate
        return total / self.layout.tensor_parallel


@functools.lru_cache(maxsize=CLASS_MEMO_SIZE)
def job_cost_model(job: TrainingJob) -> CostModel:
    """The one :class:`CostModel` of ``job`` this process shares.

    A cost model holds nothing but what its (frozen) job says, so the timing
    simulator, the memory model and every memoised term below them read the
    same instance instead of building one each, per plan.
    """
    return CostModel(job)

"""The Optimus-CC facade.

:class:`OptimusCC` turns an :class:`~repro.core.config.OptimusCCConfig` into the
concrete pieces both fidelity layers need:

* the backward-communication hook (compressed backpropagation) and data-parallel
  compression hook (selective stage compression) for the functional training engine;
* the embedding synchroniser (fused or baseline);
* the :class:`~repro.simulator.executor.CompressionPlan` and convenience wrappers
  for the performance simulator.

A typical quality experiment goes through :meth:`build_trainer` (which returns a
fully wired :class:`repro.training.trainer.Pretrainer`), while a speed experiment
goes through :meth:`simulate_iteration` / :meth:`breakdown`.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.compressed_backprop import CompressedBackpropagation
from repro.core.config import EngineCompressionConfig, OptimusCCConfig
from repro.core.fused_embedding import EmbeddingSynchronizer
from repro.core.selective_stage import SelectiveStageCompression
from repro.parallel.collectives import CommunicationLog
from repro.plan import ParallelPlan
from repro.simulator.breakdown import ExecutionBreakdown, compute_breakdown
from repro.simulator.cost_model import TrainingJob
from repro.simulator.executor import CompressionPlan, IterationTiming, PipelineTimingSimulator


class OptimusCC:
    """Factory/facade wiring the Optimus-CC techniques into engines and simulators."""

    def __init__(self, config: OptimusCCConfig | None = None) -> None:
        self.config = config if config is not None else OptimusCCConfig.baseline()

    # ------------------------------------------------------------ functional layer --

    def make_backward_hook(
        self, num_stages: int, collect_diagnostics: bool = False
    ) -> CompressedBackpropagation | None:
        """Compressed-backpropagation hook for the pipeline engine (or ``None``)."""
        if not self.config.compress_backward:
            return None
        return CompressedBackpropagation(
            num_stages=num_stages,
            rank=self.config.cb_rank,
            lazy_error_propagation=self.config.lazy_error_propagation,
            epilogue_only=self.config.epilogue_only,
            compressor=self.config.cb_compressor,
            topk_fraction=self.config.topk_fraction,
            collect_diagnostics=collect_diagnostics,
            seed=self.config.seed,
        )

    def make_forward_hook(self, num_stages: int) -> CompressedBackpropagation | None:
        """Optional forward-activation compression hook (diverges; comparison only)."""
        if not self.config.compress_forward:
            return None
        return CompressedBackpropagation(
            num_stages=num_stages,
            rank=self.config.cb_rank,
            lazy_error_propagation=self.config.lazy_error_propagation,
            epilogue_only=False,
            compressor=self.config.cb_compressor,
            topk_fraction=self.config.topk_fraction,
            seed=self.config.seed + 1,
        )

    def make_dp_hook(self, num_stages: int) -> SelectiveStageCompression | None:
        """Selective-stage-compression hook for the DP synchroniser (or ``None``)."""
        if self.config.dp_stage_fraction <= 0.0:
            return None
        return SelectiveStageCompression(
            num_stages=num_stages,
            stage_fraction=self.config.dp_stage_fraction,
            rank=self.config.dp_rank,
            error_feedback=self.config.dp_error_feedback,
            seed=self.config.seed,
        )

    def make_embedding_synchronizer(
        self, replicas: Sequence[Sequence], log: CommunicationLog
    ) -> EmbeddingSynchronizer:
        """Embedding synchroniser (fused when the config enables FE)."""
        return EmbeddingSynchronizer(replicas, log=log, fused=self.config.fuse_embedding)

    def engine_config(self, tensor_parallel_degree: int = 1) -> EngineCompressionConfig:
        """DP-boundary compression block for the unified 3D-parallel engine."""
        return self.config.engine_config(tensor_parallel_degree)

    def build_engine(
        self,
        model_config,
        num_stages: int,
        data_parallel_degree: int,
        engine_config: EngineCompressionConfig | None = None,
        log: CommunicationLog | None = None,
        seed: int = 0,
        collect_cb_diagnostics: bool = False,
        executor: str | None = None,
        plan: ParallelPlan | None = None,
    ):
        """Construct a :class:`repro.parallel.engine.ThreeDParallelEngine`.

        ``plan`` (a :class:`repro.plan.ParallelPlan`) carries what the explicit
        arguments do not: the pipeline schedule kind and its memory cap.

        Imported lazily because the engine package itself reaches back into
        :mod:`repro.core` for the hook implementations.
        """
        from repro.parallel.engine import ThreeDParallelEngine

        return ThreeDParallelEngine(
            model_config,
            num_stages=num_stages,
            data_parallel_degree=data_parallel_degree,
            optimus_config=self.config,
            engine_config=engine_config,
            log=log,
            seed=seed,
            collect_cb_diagnostics=collect_cb_diagnostics,
            executor=executor,
            plan=plan,
        )

    def build_trainer(self, *args, **kwargs):
        """Construct a :class:`repro.training.trainer.Pretrainer` with this config.

        Imported lazily to keep :mod:`repro.core` free of a dependency on the
        training package.  All positional/keyword arguments are forwarded to the
        trainer constructor (model config, data loader, optimiser settings, ...).
        """
        from repro.training.trainer import Pretrainer

        return Pretrainer(*args, optimus_config=self.config, **kwargs)

    # ------------------------------------------------------------ performance layer --

    def compression_plan(self) -> CompressionPlan:
        """The performance simulator's view of this configuration."""
        return self.config.to_compression_plan()

    def simulate_iteration(self, job: TrainingJob) -> IterationTiming:
        """Simulate one training iteration of ``job`` under this configuration."""
        return PipelineTimingSimulator(job, self.compression_plan()).run()

    def breakdown(self, job: TrainingJob) -> ExecutionBreakdown:
        """CPI-stack breakdown of the iteration time under this configuration."""
        return compute_breakdown(job, self.compression_plan())

    def training_days(self, job: TrainingJob, num_iterations: int) -> float:
        """Projected wall-clock days for ``num_iterations`` iterations."""
        return self.simulate_iteration(job).days_for(num_iterations)

    def speedup_over_baseline(self, job: TrainingJob) -> float:
        """Iteration-time speedup of this configuration over the uncompressed baseline."""
        baseline = PipelineTimingSimulator(job, CompressionPlan.baseline()).run()
        return self.simulate_iteration(job).speedup_over(baseline)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OptimusCC({self.config.describe()})"

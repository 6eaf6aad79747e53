"""Shared experiment settings for the functional and performance layers.

Two fidelity scales are provided for the functional (quality) experiments:

* ``fast`` — small model, ~60 training iterations; finishes in seconds per
  configuration and is what the benchmark harness uses by default;
* ``thorough`` — a larger model and more iterations for tighter quality
  measurements (used when regenerating EXPERIMENTS.md numbers offline).

The performance-layer experiments always use the paper's real model specifications
(GPT-2.5B, GPT-8.3B, ...) through :func:`paper_job`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.data import LanguageModelingDataLoader, SyntheticCorpus, SyntheticCorpusConfig
from repro.models.gpt_configs import PaperModelSpec, functional_config
from repro.nn.transformer import GPTModelConfig
from repro.parallel.process_groups import ParallelLayout
from repro.simulator.cost_model import TrainingJob
from repro.simulator.executor import IterationTiming, PipelineTimingSimulator

#: Iteration count the paper trains for (Table 2); used to project days.
PAPER_TOTAL_ITERATIONS = 230_000

#: Iteration count of the motivational study (Fig. 3).
MOTIVATION_ITERATIONS = 125_000


@dataclass(frozen=True)
class FunctionalSettings:
    """Everything needed to run one functional (quality) training experiment."""

    model: GPTModelConfig
    corpus_config: SyntheticCorpusConfig
    num_stages: int = 4
    data_parallel_degree: int = 2
    sequence_length: int = 24
    micro_batch_size: int = 4
    num_micro_batches: int = 4
    num_iterations: int = 60
    validation_interval: int = 20
    validation_batches: int = 2
    learning_rate: float = 2e-3
    zero_shot_examples: int = 24
    seed: int = 0
    #: Aggressiveness of compression in the functional runs.  The functional models
    #: are tiny, so the paper's ranks (16 / 128) would be lossless; these ranks keep
    #: the compression ratio comparable to the paper's ~10x.
    cb_rank: int = 2
    dp_rank: int = 2
    topk_fraction: float = 0.05

    def build_corpus(self) -> SyntheticCorpus:
        """Construct the corpus for these settings."""
        return SyntheticCorpus(self.corpus_config)

    def build_loader(self, corpus: SyntheticCorpus | None = None) -> LanguageModelingDataLoader:
        """Construct the micro-batch loader for these settings."""
        corpus = corpus if corpus is not None else self.build_corpus()
        return LanguageModelingDataLoader(
            corpus,
            sequence_length=self.sequence_length,
            micro_batch_size=self.micro_batch_size,
            num_micro_batches=self.num_micro_batches,
            data_parallel_degree=self.data_parallel_degree,
        )

    def with_(self, **kwargs) -> "FunctionalSettings":
        """Return a modified copy (convenience for sweeps)."""
        return replace(self, **kwargs)

    def cache_key(self) -> tuple:
        """Hashable identity used by the quality-run cache."""
        return (
            self.model,
            self.corpus_config,
            self.num_stages,
            self.data_parallel_degree,
            self.sequence_length,
            self.micro_batch_size,
            self.num_micro_batches,
            self.num_iterations,
            self.validation_interval,
            self.validation_batches,
            self.learning_rate,
            self.zero_shot_examples,
            self.seed,
            self.cb_rank,
            self.dp_rank,
            self.topk_fraction,
        )


def fast_functional_settings(seed: int = 0) -> FunctionalSettings:
    """Small, quick settings used by the benchmark harness (seconds per config)."""
    return FunctionalSettings(
        model=functional_config(
            vocab_size=96, sequence_length=24, num_layers=4, hidden_size=24, num_heads=4
        ),
        corpus_config=SyntheticCorpusConfig(vocab_size=96, seed=1234),
        num_stages=4,
        data_parallel_degree=2,
        sequence_length=24,
        micro_batch_size=4,
        num_micro_batches=8,
        num_iterations=80,
        validation_interval=20,
        learning_rate=2e-3,
        cb_rank=4,
        dp_rank=4,
        topk_fraction=0.03,
        seed=seed,
    )


def thorough_functional_settings(seed: int = 0) -> FunctionalSettings:
    """Larger settings for tighter quality measurements (minutes per config)."""
    return FunctionalSettings(
        model=functional_config(
            vocab_size=128, sequence_length=32, num_layers=4, hidden_size=32, num_heads=4
        ),
        corpus_config=SyntheticCorpusConfig(vocab_size=128, seed=1234),
        num_stages=4,
        data_parallel_degree=2,
        sequence_length=32,
        micro_batch_size=4,
        num_micro_batches=8,
        num_iterations=200,
        validation_interval=25,
        validation_batches=4,
        learning_rate=2e-3,
        zero_shot_examples=48,
        cb_rank=4,
        dp_rank=6,
        topk_fraction=0.03,
        seed=seed,
    )


@dataclass(frozen=True)
class PaperJobSettings:
    """Overrides for the performance-layer job construction."""

    layout: ParallelLayout = field(default_factory=ParallelLayout)
    micro_batch_size: int = 8
    global_batch_size: int = 512
    num_model_chunks: int = 2


def paper_job(model: PaperModelSpec, settings: PaperJobSettings | None = None, **overrides) -> TrainingJob:
    """Build the performance-simulation job for a paper-scale model.

    Defaults follow Table 1: TP8/DP4/PP4, micro-batch 8, global batch 512, and the
    interleaved schedule the paper applies.
    """
    settings = settings if settings is not None else PaperJobSettings()
    kwargs = dict(
        model=model,
        layout=settings.layout,
        micro_batch_size=settings.micro_batch_size,
        global_batch_size=settings.global_batch_size,
        num_model_chunks=settings.num_model_chunks,
    )
    kwargs.update(overrides)
    return TrainingJob(**kwargs)


def simulate_configurations(job: TrainingJob, configurations: dict) -> list[tuple[str, IterationTiming, float]]:
    """``(label, timing, speedup over the first configuration)`` per configuration, simulated."""
    timings = [(label, PipelineTimingSimulator(job, plan).run()) for label, plan in configurations.items()]
    return [(label, timing, timing.speedup_over(timings[0][1])) for label, timing in timings]

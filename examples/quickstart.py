#!/usr/bin/env python3
"""Quickstart: estimate Optimus-CC's speedup and verify its quality preservation.

This example exercises both fidelity layers of the library in under a minute:

1. **Performance**: simulate one training iteration of the paper's GPT-8.3B
   configuration (TP8/DP4/PP4 on 128 A100s over InfiniBand HDR) under the baseline
   and the three Optimus-CC technique stacks, and print the projected training time
   for the paper's 230K iterations.
2. **Quality**: train a tiny GPT on a synthetic corpus with and without compressed
   backpropagation and confirm the validation perplexity stays on the baseline.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import ParallelPlan, Topology
from repro.data import LanguageModelingDataLoader, SyntheticCorpus, SyntheticCorpusConfig
from repro.models import GPT_8_3B, functional_config
from repro.simulator import PipelineTimingSimulator, TrainingJob
from repro.training.trainer import Pretrainer
from repro.utils.tables import Table, format_float


def simulate_paper_configuration() -> None:
    """Part 1: performance projection for GPT-8.3B on the paper's cluster."""
    job = TrainingJob(model=GPT_8_3B)
    plans = {
        "Baseline": ParallelPlan.preset("baseline"),
        "CB": ParallelPlan.preset("cb"),
        "CB+FE": ParallelPlan.preset("cb_fe"),
        "CB+FE+SC": ParallelPlan.preset("cb_fe_sc"),
    }

    table = Table(
        title="GPT-8.3B, 128 GPUs: simulated iteration time and 230K-iteration projection",
        columns=["Configuration", "Iteration (s)", "Days", "Speedup"],
    )
    baseline_timing = None
    for label, plan in plans.items():
        timing = PipelineTimingSimulator(job, plan).run()
        if baseline_timing is None:
            baseline_timing = timing
        table.add_row(
            [
                label,
                format_float(timing.iteration_time, 2),
                format_float(timing.days_for(230_000), 1),
                f"{timing.speedup_over(baseline_timing):+.2%}",
            ]
        )
    print(table.render())
    print()


def train_tiny_model() -> None:
    """Part 2: functional training with and without compressed backpropagation."""
    model_config = functional_config(
        vocab_size=64, sequence_length=16, num_layers=2, hidden_size=16, num_heads=2
    )
    corpus = SyntheticCorpus(SyntheticCorpusConfig(vocab_size=64, seed=7))

    table = Table(
        title="Tiny GPT, 2 pipeline stages x 2 data-parallel replicas (functional layer)",
        columns=["Configuration", "Final val. PPL", "Backward bytes saved"],
    )
    topology = Topology(dp=2, pp=2, micro_batches=4)
    for label, plan in (
        ("Baseline", ParallelPlan.baseline(topology)),
        ("Compressed backpropagation", ParallelPlan.cb(topology, rank=4)),
    ):
        loader = LanguageModelingDataLoader(
            corpus,
            sequence_length=16,
            micro_batch_size=4,
            num_micro_batches=topology.micro_batches,
            data_parallel_degree=topology.dp,
        )
        trainer = Pretrainer(model_config, loader, plan, learning_rate=3e-3, seed=11)
        trainer.train(num_iterations=30, validation_interval=10)
        saved = trainer.compression_summary["bytes_saved_fraction"]
        table.add_row(
            [label, format_float(trainer.validation_perplexity(), 2), f"{saved:.0%}"]
        )
    print(table.render())


def main() -> None:
    simulate_paper_configuration()
    train_tiny_model()


if __name__ == "__main__":
    main()

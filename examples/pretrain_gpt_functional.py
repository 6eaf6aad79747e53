#!/usr/bin/env python3
"""Pretrain a small GPT with full 3D parallelism and the complete Optimus-CC stack.

This is the workload the paper's introduction motivates, at functional scale: a GPT
model split across 4 pipeline stages and 2 data-parallel replicas, trained on a
synthetic corpus, with all three Optimus-CC techniques enabled (compressed
backpropagation with lazy error propagation and epilogue-only compression, fused
embedding synchronisation, and selective stage compression).

The script reports, for the baseline and for Optimus-CC:

* the validation-perplexity curve (quality parity),
* zero-shot accuracy on the five synthetic downstream tasks,
* the inter-node traffic per category and how much of it compression removed.

Run with:  python examples/pretrain_gpt_functional.py [--iterations N]
"""

from __future__ import annotations

import argparse

from repro import ParallelPlan, Topology
from repro.data import LanguageModelingDataLoader, SyntheticCorpus, SyntheticCorpusConfig
from repro.data.tasks import build_zero_shot_suite
from repro.models import functional_config
from repro.training.trainer import Pretrainer
from repro.utils.tables import Table, format_float


#: 4 pipeline stages x 2 data-parallel replicas, 8 micro-batches per replica.
TOPOLOGY = Topology(dp=2, pp=4, micro_batches=8)


def build_trainer(plan: ParallelPlan, corpus: SyntheticCorpus, seed: int):
    """Construct a 4-stage x 2-replica trainer for the given plan."""
    model_config = functional_config(
        vocab_size=96, sequence_length=24, num_layers=4, hidden_size=24, num_heads=4
    )
    loader = LanguageModelingDataLoader(
        corpus,
        sequence_length=24,
        micro_batch_size=4,
        num_micro_batches=plan.topology.micro_batches,
        data_parallel_degree=plan.topology.dp,
    )
    return Pretrainer(model_config, loader, plan, learning_rate=2e-3, seed=seed)


def traffic_summary(trainer) -> dict[str, float]:
    """Wire bytes per category accumulated over the run."""
    return trainer.engine.log.by_category()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=80, help="training iterations per run")
    parser.add_argument("--seed", type=int, default=0)
    arguments = parser.parse_args()

    corpus = SyntheticCorpus(SyntheticCorpusConfig(vocab_size=96, seed=1234))
    tasks = build_zero_shot_suite(corpus, examples_per_task=24)

    plans = {
        "Baseline": ParallelPlan.baseline(TOPOLOGY),
        "Optimus-CC (CB+FE+SC)": ParallelPlan.cb_fe_sc(TOPOLOGY, cb_rank=4, dp_rank=3),
    }

    quality_table = Table(
        title="Functional pretraining: quality comparison",
        columns=["Configuration", "Val. PPL", "Mean zero-shot accuracy"],
    )
    traffic_table = Table(
        title="Inter-node traffic per run (MB on the wire, per rank)",
        columns=["Configuration", "Inter-stage bwd", "Data-parallel", "Embedding"],
    )

    for label, plan in plans.items():
        trainer = build_trainer(plan, corpus, arguments.seed)
        print(f"[{label}] training for {arguments.iterations} iterations ...")
        trainer.train(num_iterations=arguments.iterations, validation_interval=max(1, arguments.iterations // 4))

        accuracy = trainer.evaluate_zero_shot(tasks)
        mean_accuracy = sum(accuracy.values()) / len(accuracy)
        quality_table.add_row(
            [label, format_float(trainer.validation_perplexity(), 2), f"{mean_accuracy:.1%}"]
        )

        categories = traffic_summary(trainer)
        backward = categories.get("inter_stage_backward", 0.0) / 1e6
        data_parallel = categories.get("data_parallel", 0.0) / 1e6
        embedding = (
            categories.get("embedding_dp", 0.0) + categories.get("embedding_sync", 0.0)
        ) / 1e6
        traffic_table.add_row(
            [label, format_float(backward, 1), format_float(data_parallel, 1), format_float(embedding, 1)]
        )

        if label != "Baseline":
            summary = trainer.compression_summary
            print(
                f"[{label}] compressed {summary['compressed_fraction']:.0%} of backward "
                f"transfers, saving {summary['bytes_saved_fraction']:.0%} of those bytes"
            )
        print()

    print(quality_table.render())
    print()
    print(traffic_table.render())


if __name__ == "__main__":
    main()

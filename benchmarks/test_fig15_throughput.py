"""Benchmark reproducing Fig. 15: compression/decompression throughput versus rank."""

from __future__ import annotations

from repro.experiments.fig15_throughput import run_fig15


def test_fig15_throughput(benchmark, record):
    result = benchmark.pedantic(run_fig15, rounds=1, iterations=1)
    record("fig15_throughput", result.render())

    for model_name in ("GPT-8.3B", "GPT-175B"):
        points = result.points(model_name)
        # Both kernels stay far above the interconnect bandwidth at every rank
        # (paper Section 9.6: compression is never the bottleneck).
        for point in points:
            if point.rank <= 64:
                assert point.compress_gbps > result.interconnect_gbps
            assert point.decompress_gbps > result.interconnect_gbps
            assert point.decompress_gbps > point.compress_gbps
        # Throughput decreases as the rank grows (orthogonalisation dominates).
        compress = [point.compress_gbps for point in points]
        assert all(a > b for a, b in zip(compress, compress[1:]))

    # The larger model compresses at higher throughput (fixed overheads amortise).
    for small, large in zip(result.points("GPT-8.3B"), result.points("GPT-175B")):
        assert large.compress_gbps > small.compress_gbps

    # The measured NumPy kernel point exists and is positive (CPU-scale numbers).
    # It is printed, not recorded: the committed results file must not change
    # with the machine that ran the tier.
    measured = result.measured_cpu_point
    assert measured is not None
    print(
        "Measured on this machine's CPU (NumPy kernels, small tensor): "
        f"compress {measured.compress_gbps:.2f} Gb/s, "
        f"decompress {measured.decompress_gbps:.2f} Gb/s at rank {measured.rank}."
    )
    assert measured.compress_gbps > 0

    # Per-axis traffic measured through the unified 3D engine: the full stack
    # compresses both the pipeline (PP) and data-parallel (DP) boundaries.
    baseline = result.engine_sample("Baseline")
    full = result.engine_sample("CB+FE+SC")
    assert baseline.axis_compressed_fraction["pipeline_backward"] == 0.0
    assert full.axis_compressed_fraction["pipeline_backward"] > 0.0
    assert full.axis_wire_bytes["pipeline_backward"] < baseline.axis_wire_bytes["pipeline_backward"]
    assert full.data_parallel_wire_bytes < baseline.data_parallel_wire_bytes
    assert full.dp_bytes_saved_fraction > 0.0
    assert full.axis_wire_bytes["embedding"] < baseline.axis_wire_bytes["embedding"]

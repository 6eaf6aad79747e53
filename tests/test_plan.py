"""Tests for the declarative ParallelPlan API and its consumer wiring.

Covers the three contracts of the one configuration vocabulary:

* **round-trip** — ``from_dict(to_dict(p)) == p`` (hypothesis property) and
  invalid boundary/codec/knob combinations raise at construction;
* **cross-layer parity** — the engine and the simulator, both handed the same
  plan, compress the same set of pipeline stages at the DP boundary, and the
  PowerSGD byte models agree exactly;
* **CLI** — ``repro train --preset``, ``--plan file.json``, and the ``repro
  plan show/validate/diff`` subcommands.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.compression import PowerSGDCompressor, TopKCompressor
from repro.compression.base import UNCOMPRESSED_BYTES_PER_ELEMENT
from repro.models.gpt_configs import GPT_2_5B, GPT_8_3B, functional_config
from repro.parallel.engine import ThreeDParallelEngine
from repro.plan import (
    BOUNDARY_CODECS,
    PLAN_PRESETS,
    Boundary,
    CompressionSpec,
    ParallelPlan,
    Schedule,
    Topology,
)
from repro.simulator.cost_model import CostModel, TrainingJob
from repro.simulator.evaluate import evaluate_plan
from repro.simulator.executor import PipelineTimingSimulator, simulate_plan

#: The overlap-off ablation: selective stage compression with the DP all-reduce
#: after the pipeline drains.
OVERLAP_OFF = ParallelPlan.from_json(
    (pathlib.Path(__file__).resolve().parents[1] / "examples/plans/overlap_off.json").read_text(
        encoding="utf-8"
    )
)

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples" / "plans"


# ---------------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------------


def spec_strategy(boundary: Boundary) -> st.SearchStrategy[CompressionSpec]:
    return st.builds(
        CompressionSpec,
        codec=st.sampled_from(BOUNDARY_CODECS[boundary]),
        rank=st.integers(min_value=1, max_value=256),
        bits=st.integers(min_value=1, max_value=8),
        fraction=st.floats(min_value=0.01, max_value=1.0),
        error_feedback=st.booleans(),
        stage_fraction=st.floats(min_value=0.0, max_value=1.0),
        min_elements=st.integers(min_value=0, max_value=4096),
        bucket_bytes=st.integers(min_value=1, max_value=1 << 20),
        epilogue_only=st.booleans(),
    )


plan_strategy = st.builds(
    ParallelPlan,
    topology=st.builds(
        Topology,
        dp=st.integers(min_value=1, max_value=8),
        pp=st.integers(min_value=1, max_value=8),
        tp=st.integers(min_value=1, max_value=8),
        micro_batches=st.integers(min_value=1, max_value=16),
    ),
    schedule=st.one_of(
        st.builds(
            Schedule,
            kind=st.sampled_from(("1f1b", "serial")),
            num_model_chunks=st.integers(min_value=1, max_value=4),
            dp_fire=st.sampled_from(("stage", "micro_batch")),
        ),
        # zb1 is a plain schedule: num_model_chunks is pinned at 1.
        st.builds(
            Schedule,
            kind=st.just("zb1"),
            num_model_chunks=st.just(1),
            dp_fire=st.sampled_from(("stage", "micro_batch")),
        ),
    ),
    compression=st.fixed_dictionaries(
        {
            Boundary.DP: spec_strategy(Boundary.DP),
            Boundary.PP: spec_strategy(Boundary.PP),
            Boundary.EMBEDDING: spec_strategy(Boundary.EMBEDDING),
        }
    ),
)


# ---------------------------------------------------------------------------------
# Round-trip and validation
# ---------------------------------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(plan=plan_strategy)
    def test_dict_round_trip(self, plan):
        assert ParallelPlan.from_dict(plan.to_dict()) == plan

    @settings(max_examples=30, deadline=None)
    @given(plan=plan_strategy)
    def test_json_round_trip(self, plan):
        assert ParallelPlan.from_json(plan.to_json()) == plan

    @settings(max_examples=30, deadline=None)
    @given(plan=plan_strategy)
    def test_json_is_plain_data(self, plan):
        payload = json.loads(plan.to_json())
        assert set(payload) == {"topology", "schedule", "compression"}
        assert set(payload["compression"]) == {"dp", "pp", "embedding"}

    def test_save_load_round_trip(self, tmp_path):
        plan = ParallelPlan.preset("cb_fe_sc")
        path = tmp_path / "plan.json"
        plan.save(path)
        assert ParallelPlan.load(path) == plan

    def test_string_boundary_keys_accepted(self):
        plan = ParallelPlan(compression={"dp": CompressionSpec(codec="qsgd", bits=2)})
        assert plan.spec(Boundary.DP).codec == "qsgd"

    def test_partial_dicts_take_defaults(self):
        plan = ParallelPlan.from_dict(
            {"compression": {"pp": {"codec": "powersgd", "rank": 8}}}
        )
        assert plan.spec(Boundary.PP).rank == 8
        assert plan.spec(Boundary.PP).epilogue_only  # default
        assert plan.spec(Boundary.DP).codec == "none"
        assert plan.topology == Topology()


class TestValidation:
    @pytest.mark.parametrize(
        "boundary, codec",
        [
            (Boundary.PP, "qsgd"),
            (Boundary.PP, "fused"),
            (Boundary.DP, "fused"),
            (Boundary.EMBEDDING, "powersgd"),
            (Boundary.EMBEDDING, "topk"),
        ],
    )
    def test_codec_not_valid_at_boundary(self, boundary, codec):
        with pytest.raises(ValueError, match="not valid at"):
            ParallelPlan(compression={boundary: CompressionSpec(codec=codec)})

    def test_unknown_codec(self):
        with pytest.raises(ValueError):
            CompressionSpec(codec="zip")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank": 0},
            {"bits": 0},
            {"bits": 9},
            {"fraction": 0.0},
            {"fraction": 1.5},
            {"stage_fraction": -0.1},
            {"stage_fraction": 1.5},
            {"min_elements": -1},
            {"bucket_bytes": 0},
        ],
    )
    def test_bad_spec_knobs(self, kwargs):
        with pytest.raises(ValueError):
            CompressionSpec(**kwargs)

    def test_unknown_boundary_key(self):
        with pytest.raises(ValueError, match="unknown boundary"):
            ParallelPlan(compression={"tensor": CompressionSpec()})

    def test_unknown_spec_field(self):
        with pytest.raises(ValueError, match="unknown CompressionSpec field"):
            ParallelPlan.from_dict({"compression": {"dp": {"codec": "none", "ranks": 4}}})

    def test_unknown_section(self):
        with pytest.raises(ValueError, match="unknown plan section"):
            ParallelPlan.from_dict({"topo": {}})

    def test_bad_topology(self):
        with pytest.raises(ValueError):
            Topology(dp=0)
        with pytest.raises(ValueError):
            ParallelPlan.from_dict({"topology": {"dp": 2, "nodes": 4}})

    def test_bad_schedule_kind(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            Schedule(kind="gpipe")

    @pytest.mark.parametrize("cap", [0.5, float("nan")])
    def test_bad_memory_cap_factor(self, cap):
        """NaN compares false both ways, so a ``< 1.0`` check let it through."""
        with pytest.raises(ValueError, match="memory_cap_factor"):
            Schedule(kind="auto", memory_cap_factor=cap)
        payload = json.dumps({"schedule": {"kind": "auto", "memory_cap_factor": cap}})
        with pytest.raises(ValueError, match="memory_cap_factor"):
            ParallelPlan.from_json(payload)
        with pytest.raises(SystemExit, match="memory_cap_factor"):
            cli.main(["train", "--preset", "auto", "--memory-cap", str(cap), "--iterations", "1"])

    def test_infinite_memory_cap_means_no_cap(self):
        schedule = Schedule(kind="auto", memory_cap_factor=float("inf"))
        assert schedule.describe() == "auto@infx"


class TestPlanHelpers:
    def test_presets_cover_the_paper_nomenclature(self):
        assert set(PLAN_PRESETS) == {
            "baseline",
            "cb",
            "cb_non_lep",
            "naive_cb",
            "cb_fe",
            "cb_fe_sc",
            "naive_dp",
            "optimus_topk",
            "zb1",
            "auto",
        }
        paper_labels = {
            "baseline": "Baseline",
            "cb": "CB",
            "cb_non_lep": "CB(Non-LEP)",
            "naive_cb": "CB(naive)",
            "cb_fe": "CB+FE",
            "cb_fe_sc": "CB+FE+SC",
            "naive_dp": "DP(all)",
            "optimus_topk": "CB(TopK)+FE+SC",
        }
        for name in PLAN_PRESETS:
            plan = ParallelPlan.preset(name)
            if name in ("zb1", "auto"):
                # Schedule presets, not compression stacks: every boundary
                # is the baseline's.
                assert plan.schedule.kind == name
                assert plan.compression == ParallelPlan.baseline().compression
                if name == "auto":
                    assert plan.schedule.memory_cap_factor == 1.5
                continue
            assert plan.schedule == Schedule()
            assert plan.stack_label() == paper_labels[name]

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown plan preset"):
            ParallelPlan.preset("warp")

    def test_with_boundary_is_a_sweep_helper(self):
        base = ParallelPlan.preset("cb_fe_sc")
        swept = base.with_boundary(Boundary.DP, codec="topk", fraction=0.1)
        assert swept.spec(Boundary.DP).codec == "topk"
        assert base.spec(Boundary.DP).codec == "powersgd"  # original untouched
        assert swept.spec(Boundary.PP) == base.spec(Boundary.PP)

    def test_with_schedule_and_topology(self):
        plan = ParallelPlan.baseline().with_schedule(kind="serial").with_topology(pp=8)
        assert not plan.schedule.dp_overlap
        assert plan.topology.pp == 8

    def test_proxy_scaled_caps_ranks(self):
        plan = ParallelPlan.preset("cb_fe_sc").proxy_scaled()
        assert plan.spec(Boundary.PP).rank == 2
        assert plan.spec(Boundary.DP).rank == 2

    def test_describe_folds_in_overlap_and_bucket_state(self):
        overlapped = ParallelPlan.preset("cb_fe_sc")
        serial = overlapped.with_schedule(kind="serial")
        rebucketed = overlapped.with_boundary(Boundary.DP, bucket_bytes=128 * 1024)
        labels = {overlapped.describe(), serial.describe(), rebucketed.describe()}
        assert len(labels) == 3
        assert "overlap/64KiB" in overlapped.describe()
        assert "serial-dp" in serial.describe()
        assert "overlap/128KiB" in rebucketed.describe()

    def test_diff_reports_differing_knobs_only(self):
        a = ParallelPlan.preset("cb_fe")
        b = ParallelPlan.preset("cb_fe_sc")
        delta = a.diff(b)
        assert delta == {
            "compression.dp.codec": ("none", "powersgd"),
            "compression.dp.stage_fraction": (1.0, 0.75),
        }
        assert a.diff(a) == {}

    def test_training_job_delivers_schedule_and_topology(self):
        plan = ParallelPlan.baseline().with_topology(
            dp=4, pp=4, tp=8, micro_batches=16
        ).with_schedule(num_model_chunks=2)
        job = plan.training_job(GPT_2_5B)
        assert job.layout.data_parallel == 4
        assert job.layout.pipeline_parallel == 4
        assert job.layout.tensor_parallel == 8
        assert job.num_micro_batches == 16
        assert job.num_model_chunks == 2
        # Chunk count changes the simulated schedule, proving delivery.
        chunked = PipelineTimingSimulator(job, plan).run()
        plain_job = plan.with_schedule(num_model_chunks=1).training_job(GPT_2_5B)
        plain = PipelineTimingSimulator(plain_job, plan).run()
        assert chunked.iteration_time != plain.iteration_time

    def test_non_powersgd_dp_codec_reaches_both_layers(self):
        plan = ParallelPlan.baseline(Topology(dp=2, pp=2)).with_boundary(
            Boundary.DP, codec="topk", fraction=0.05, stage_fraction=1.0
        )
        assert "topk(k=0.05)" in plan.describe()
        model = functional_config(
            vocab_size=32, sequence_length=8, num_layers=2, hidden_size=8, num_heads=2
        )
        reduce = ThreeDParallelEngine(model, plan).dp_reduce
        assert reduce.powersgd is None  # no false PowerSGD-SC claim
        assert isinstance(reduce.compressor, TopKCompressor)
        job = plan.training_job(GPT_2_5B)
        assert (
            PipelineTimingSimulator(job, plan).run().dp_wire_bytes
            < PipelineTimingSimulator(job).run().dp_wire_bytes
        )

    def test_pretrainer_validates_plan_against_loader(self, small_config, loader):
        from repro.training.trainer import Pretrainer

        plan = ParallelPlan.baseline().with_topology(
            pp=2, dp=loader.data_parallel_degree, micro_batches=8
        )
        with pytest.raises(ValueError, match="num_micro_batches"):
            Pretrainer(small_config, loader, plan=plan)
        matching = plan.with_topology(micro_batches=loader.num_micro_batches)
        trainer = Pretrainer(small_config, loader, plan=matching)
        assert trainer.num_stages == 2

    def test_pretrainer_runs_the_schedule_its_plan_names(self, small_config, loader):
        """``repro train --schedule auto|zb1`` used to replay 1f1b silently."""
        from repro.training.trainer import Pretrainer

        def trainer_for(kind, cap=1.0):
            plan = ParallelPlan(
                schedule=Schedule(kind=kind, memory_cap_factor=cap)
            ).with_topology(
                pp=2, dp=loader.data_parallel_degree, micro_batches=loader.num_micro_batches
            )
            return Pretrainer(small_config, loader, plan=plan, seed=5)

        auto = trainer_for("auto", cap=1.5)
        engine = auto.engine
        assert engine.schedule_kind == "auto"
        assert engine.memory_cap_factor == 1.5
        assert engine.plan.schedule.kind == "auto"
        assert [p.schedule_kind for p in engine.pipeline_engines] == ["auto", "auto"]
        assert [p.memory_cap_factor for p in engine.pipeline_engines] == [1.5, 1.5]
        assert engine.bucketed_sync is not None
        assert engine.bucketed_sync.schedule_kind == "auto"
        assert trainer_for("zb1").engine.schedule_kind == "zb1"

        reference = trainer_for("1f1b")
        assert reference.engine.schedule_kind == "1f1b"
        for _ in range(3):
            assert auto.train_iteration() == reference.train_iteration()
        for auto_arena, reference_arena in zip(auto.engine.arenas, reference.engine.arenas):
            assert np.array_equal(auto_arena.data, reference_arena.data)

    def test_plans_are_hashable_value_objects(self):
        plans = {ParallelPlan.baseline(), ParallelPlan.preset("cb_fe_sc"), ParallelPlan.baseline()}
        assert len(plans) == 2
        assert hash(ParallelPlan.preset("cb")) == hash(ParallelPlan.cb())

    def test_measure_takes_its_topology_from_the_plan(self):
        from repro.experiments.engine_traffic import measure_engine_traffic

        plan = ParallelPlan.baseline().with_topology(pp=2, micro_batches=2)
        sample = measure_engine_traffic("probe", plan)
        assert (sample.num_stages, sample.data_parallel_degree) == (2, 2)

    def test_example_plan_files_are_valid(self):
        files = sorted(EXAMPLES_DIR.glob("*.json"))
        assert len(files) >= 4
        for path in files:
            plan = ParallelPlan.load(path)
            assert ParallelPlan.from_dict(plan.to_dict()) == plan


# ---------------------------------------------------------------------------------
# Engine probes
# ---------------------------------------------------------------------------------


def _run_probe(engine, iterations=2, seed=7):
    """Run a deterministic probe and return (records, weights)."""
    rng = np.random.default_rng(seed)
    model = engine.model_config
    for _ in range(iterations):
        batches = [
            [
                (
                    rng.integers(0, model.vocab_size, size=(2, 8)),
                    rng.integers(0, model.vocab_size, size=(2, 8)),
                )
                for _ in range(2)
            ]
            for _ in range(engine.data_parallel_degree)
        ]
        engine.zero_grad()
        engine.run_iteration(batches)
        for arena in engine.arenas:
            arena.data[...] -= 1e-3 * arena.grad
    records = [
        (r.category, r.payload_bytes, r.wire_bytes, r.compressed, r.overlapped)
        for r in engine.log.records
    ]
    weights = [p.data.copy() for p in engine.parameters()]
    return records, weights


class TestDpFireKnob:
    """The micro-batch-granular bucket-firing schedule knob."""

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            Schedule(dp_fire="per_layer")

    def test_round_trips_and_diffs(self):
        plan = ParallelPlan(schedule=Schedule(dp_fire="micro_batch"))
        assert ParallelPlan.from_json(plan.to_json()) == plan
        delta = ParallelPlan().diff(plan)
        assert delta == {"schedule.dp_fire": ("stage", "micro_batch")}

    def test_describe_marks_micro_batch_fire(self):
        stage = ParallelPlan()
        micro = stage.with_schedule(dp_fire="micro_batch")
        assert "mb-fire" not in stage.describe()
        assert "mb-fire" in micro.describe()
        # The serial schedule has no buckets to fire: no marker.
        serial = micro.with_schedule(kind="serial")
        assert "mb-fire" not in serial.describe()

    def test_training_job_gets_dp_fire(self):
        micro = ParallelPlan(schedule=Schedule(dp_fire="micro_batch"))
        assert micro.training_job(GPT_2_5B).dp_fire == "micro_batch"
        # A serial schedule has no overlapped buckets — the simulator keeps the
        # stage-granular window.
        serial = micro.with_schedule(kind="serial")
        assert serial.training_job(GPT_2_5B).dp_fire == "stage"

    def test_presets_default_to_stage_fire(self):
        for name in PLAN_PRESETS:
            assert ParallelPlan.preset(name).schedule.dp_fire == "stage"

    def test_engine_threads_dp_fire_to_bucketed_sync(self):
        config = functional_config(
            vocab_size=32, sequence_length=8, num_layers=2, hidden_size=8, num_heads=2
        )
        engine = ThreeDParallelEngine(
            config,
            plan=ParallelPlan(
                topology=Topology(dp=2, pp=2), schedule=Schedule(dp_fire="micro_batch")
            ),
        )
        assert engine.bucketed_sync is not None
        assert engine.bucketed_sync.dp_fire == "micro_batch"


class TestZb1Schedule:
    """The zero-bubble schedule as a plan value."""

    def test_round_trips_and_diffs(self):
        plan = ParallelPlan.zb1()
        assert ParallelPlan.from_json(plan.to_json()) == plan
        delta = ParallelPlan.baseline().diff(plan)
        assert delta == {"schedule.kind": ("1f1b", "zb1")}

    def test_preset_and_describe(self):
        plan = ParallelPlan.preset("zb1")
        assert plan.schedule.kind == "zb1"
        assert plan.schedule.dp_overlap  # zb1 overlaps the DP all-reduce
        assert "zb1" in plan.describe()

    def test_rejects_interleaving(self):
        with pytest.raises(ValueError, match="num_model_chunks"):
            Schedule(kind="zb1", num_model_chunks=2)

    def test_training_job_gets_the_schedule_kind(self):
        job = ParallelPlan.zb1().training_job(GPT_2_5B)
        assert job.schedule_kind == "zb1"
        assert job.num_model_chunks == 1
        # zb1's native firing granularity is micro-batch (the engine forces it
        # too) — the simulator must model the same behaviour even though the
        # plan's dp_fire field says "stage".
        assert job.dp_fire == "micro_batch"
        # Non-zb1 plans keep the fused-backward pipeline shape and their own
        # firing granularity.
        base_job = ParallelPlan.baseline().training_job(GPT_2_5B)
        assert base_job.schedule_kind == "1f1b"
        assert base_job.dp_fire == "stage"

    def test_engine_threads_the_schedule_kind(self):
        config = functional_config(
            vocab_size=32, sequence_length=8, num_layers=2, hidden_size=8, num_heads=2
        )
        engine = ThreeDParallelEngine(config, plan=ParallelPlan.zb1().with_topology(pp=2, dp=2))
        assert engine.schedule_kind == "zb1"
        assert all(e.schedule_kind == "zb1" for e in engine.pipeline_engines)
        assert engine.bucketed_sync is not None
        assert engine.bucketed_sync.schedule_kind == "zb1"


class TestCliPlanEquivalence:
    def test_preset_cli_and_plan_spellings_are_bit_identical(self):
        """``--preset`` resolves to the proxy-scaled preset, engine for engine."""
        arguments = cli.build_parser().parse_args(["train", "--preset", "cb_fe_sc"])
        cli_plan = cli.build_train_plan(arguments)
        plan = ParallelPlan.preset("cb_fe_sc").proxy_scaled()
        assert cli_plan == plan
        # The default (no --preset) is the same plan.
        assert cli.build_train_plan(cli.build_parser().parse_args(["train"])) == plan

        model = functional_config(
            vocab_size=48, sequence_length=12, num_layers=4, hidden_size=16, num_heads=2
        )
        reference_records, reference_weights = _run_probe(ThreeDParallelEngine(model, plan))
        dp_records = [r for r in reference_records if r[0] == "data_parallel"]
        assert dp_records and any(r[3] for r in dp_records)  # DP compression exercised
        records, weights = _run_probe(ThreeDParallelEngine(model, plan=cli_plan))
        assert records == reference_records
        for mine, theirs in zip(reference_weights, weights):
            assert np.array_equal(mine, theirs)


# ---------------------------------------------------------------------------------
# Cross-layer parity: the simulator and the engine read the same plan
# ---------------------------------------------------------------------------------


class TestCrossLayerParity:
    #: Depths covering the half-to-even cases of ``round(fraction * pp)``:
    #: 0.5 of 1 -> 0, 0.5 of 3 -> 2, 0.5 of 5 -> 2.
    DEPTHS = (1, 2, 3, 4, 5, 8)

    @staticmethod
    def _engine_stages(plan: ParallelPlan) -> set[int]:
        """Stages whose DP gradients the engine's reduce routes through the codec."""
        model = functional_config(
            vocab_size=16,
            sequence_length=4,
            num_layers=plan.topology.pp,
            hidden_size=8,
            num_heads=2,
        )
        return ThreeDParallelEngine(model, plan).dp_reduce.compressed_stages

    @staticmethod
    def _simulator_stages(plan: ParallelPlan) -> set[int]:
        """Stages the simulator charges a compressed DP all-reduce for."""
        job = plan.training_job(GPT_2_5B)
        charged = PipelineTimingSimulator(job, plan).run().dp_times
        exact = PipelineTimingSimulator(job).run().dp_times
        return {stage for stage in range(job.num_stages) if charged[stage] != exact[stage]}

    @pytest.mark.parametrize("pp", DEPTHS)
    @pytest.mark.parametrize("name", sorted(PLAN_PRESETS))
    def test_presets_compress_the_same_stages_in_both_layers(self, name, pp):
        plan = ParallelPlan.preset(name, Topology(dp=2, pp=pp, micro_batches=2))
        stages = self._engine_stages(plan)
        assert stages == self._simulator_stages(plan)
        assert bool(stages) == plan.spec(Boundary.DP).compresses

    @pytest.mark.parametrize("pp", DEPTHS)
    @pytest.mark.parametrize("stage_fraction", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_stage_fraction_selects_the_same_stages_in_both_layers(self, stage_fraction, pp):
        plan = ParallelPlan.naive_dp(Topology(dp=2, pp=pp, micro_batches=2)).with_boundary(
            Boundary.DP, stage_fraction=stage_fraction
        )
        stages = self._engine_stages(plan)
        assert stages == self._simulator_stages(plan)
        assert stages == set(range(int(round(stage_fraction * pp))))

    @pytest.mark.parametrize("rank", [2, 4, 64])
    def test_powersgd_byte_models_agree(self, rank):
        """Engine codec payloads and the cost model count the same elements."""
        job = TrainingJob(model=GPT_2_5B)
        cost = CostModel(job)
        compressor = PowerSGDCompressor(rank=rank, min_compression_elements=0)
        rng = np.random.default_rng(0)
        for rows, cols in cost.stage_weight_matrices(0)[:4]:
            # Simulator's element count for one matrix under powersgd.
            effective = max(1, min(rank, rows, cols))
            sim_elements = min(effective * (rows + cols), rows * cols)
            payload = compressor.compress(rng.standard_normal((rows, cols)), key="m")
            engine_elements = payload.payload_bytes / UNCOMPRESSED_BYTES_PER_ELEMENT
            assert engine_elements == sim_elements

    @pytest.mark.parametrize(
        ("codec", "rank", "fraction"),
        [("powersgd", 2, 0.01), ("powersgd", 64, 0.01)]
        + [("topk", 16, fraction) for fraction in (0.01, 0.1, 0.5)],
    )
    def test_pp_byte_models_agree(self, codec, rank, fraction):
        """A compressed PP transfer costs the simulator what the engine's codec sends.

        Read from the replay itself: with every backward transfer compressed,
        the pipeline's wire bytes over the uncompressed plan's, against the
        codec's payload over the activation gradient's plain bytes (the NIC
        and TP multipliers cancel).
        """
        plan = ParallelPlan.preset("cb_fe_sc")
        compressed = plan.with_boundary(
            Boundary.PP, codec=codec, rank=rank, fraction=fraction, epilogue_only=False
        )
        plain = plan.with_boundary(Boundary.PP, codec="none")
        job = plan.training_job(GPT_2_5B)
        wire = simulate_plan(job, compressed).interstage_wire_bytes
        plain_wire = simulate_plan(job, plain).interstage_wire_bytes
        # As many forward transfers (plain in both plans) as backward ones.
        sim_ratio = (wire - plain_wire / 2) / (plain_wire / 2)

        rows, cols = job.micro_batch_size * job.seq_length, GPT_2_5B.hidden_size
        compressor = (
            PowerSGDCompressor(rank=rank, min_compression_elements=0)
            if codec == "powersgd"
            else TopKCompressor(fraction=fraction)
        )
        gradient = np.random.default_rng(0).standard_normal((rows, cols))
        payload = compressor.compress(gradient, key="activation_grad")
        engine_ratio = payload.payload_bytes / (rows * cols * UNCOMPRESSED_BYTES_PER_ELEMENT)
        assert sim_ratio == pytest.approx(engine_ratio, rel=1e-9)

    def test_engine_measured_savings_follow_the_shared_plan(self):
        """End to end: the engine's measured DP savings match the plan's intent."""
        from repro.experiments.engine_traffic import measure_engine_traffic

        plan = ParallelPlan.preset("cb_fe_sc").proxy_scaled()
        sample = measure_engine_traffic("parity", plan)
        assert sample.dp_bytes_saved_fraction > 0.0
        # 75% of 4 stages -> stages {0, 1, 2} on both layers.
        assert plan.spec(Boundary.DP).compressed_stages(plan.topology.pp) == {0, 1, 2}


class TestSerialSchedule:
    """``kind="serial"`` means the same thing in both layers: nothing overlapped."""

    def test_the_simulator_times_serial_without_the_overlap(self):
        twin = OVERLAP_OFF.with_schedule(kind="1f1b")
        assert evaluate_plan(OVERLAP_OFF, GPT_8_3B) != evaluate_plan(twin, GPT_8_3B)
        job = OVERLAP_OFF.training_job(GPT_8_3B)
        assert job.schedule_kind == "serial"
        serial = simulate_plan(job, OVERLAP_OFF)
        overlapped = simulate_plan(twin.training_job(GPT_8_3B), twin)
        assert serial.dp_overlapped_fraction == 0.0
        assert overlapped.dp_overlapped_fraction > 0.0
        assert serial.dp_wire_bytes == overlapped.dp_wire_bytes
        assert serial.iteration_time > overlapped.iteration_time
        # Same pipeline: only where the DP all-reduce starts differs.
        assert serial.stage_backward_finish == overlapped.stage_backward_finish

    @pytest.mark.parametrize("pp", [1, 2, 4, 8])
    @pytest.mark.parametrize("name", sorted(PLAN_PRESETS))
    def test_serial_is_never_faster_than_its_1f1b_twin(self, name, pp):
        plan = ParallelPlan.preset(name, Topology(dp=2, pp=pp, micro_batches=8))
        twin = plan.with_schedule(kind="1f1b")
        serial = plan.with_schedule(kind="serial")
        for model in (GPT_2_5B, GPT_8_3B):
            assert (
                evaluate_plan(serial, model).iteration_time_s
                >= evaluate_plan(twin, model).iteration_time_s
            )

    def test_the_engine_exposes_every_serial_dp_byte(self):
        model = functional_config(
            vocab_size=32, sequence_length=8, num_layers=2, hidden_size=16, num_heads=2
        )
        plan = OVERLAP_OFF.proxy_scaled().with_topology(pp=2, dp=2, micro_batches=2)
        rng = np.random.default_rng(0)
        batches = [
            [(rng.integers(0, 32, size=(2, 8)), rng.integers(0, 32, size=(2, 8)))] * 2
            for _ in range(2)
        ]
        serial = ThreeDParallelEngine(model, plan).run_iteration(batches)
        twin = ThreeDParallelEngine(model, plan.with_schedule(kind="1f1b")).run_iteration(batches)
        assert serial.axis_wire_bytes["data_parallel"] > 0
        assert serial.dp_overlapped_fraction == 0.0
        assert twin.dp_overlapped_fraction > 0.0
        assert serial.axis_wire_bytes == twin.axis_wire_bytes


# ---------------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------------


TRAIN_PROBE = ("train", "--preset", "cb_fe_sc", "--stages", "2", "--iterations", "4")


@functools.lru_cache(maxsize=None)
def _train_stdout(*flags: str) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main([*TRAIN_PROBE, *flags]) == 0
    return stdout.getvalue()


def _train_report(stdout: str) -> tuple[str, list[str]]:
    """The final loss and the traffic block (table through residual memory)."""
    lines = stdout.splitlines()
    loss = next(line for line in lines if "final training loss" in line).rsplit(" ", 1)[1]
    start = lines.index("Measured per-axis wire traffic")
    end = next(index for index, line in enumerate(lines) if line.startswith("Error-feedback"))
    return loss, lines[start : end + 1]


class TestPlanCli:
    def test_plan_show_preset(self, capsys):
        assert cli.main(["plan", "show", "cb_fe_sc"]) == 0
        out = capsys.readouterr().out
        assert "CB+FE+SC" in out and '"topology"' in out

    def test_plan_show_rejects_unknown(self):
        with pytest.raises(SystemExit):
            cli.main(["plan", "show", "not_a_preset_or_file"])

    def test_plan_validate_examples(self, capsys):
        files = [str(path) for path in sorted(EXAMPLES_DIR.glob("*.json"))]
        assert cli.main(["plan", "validate", *files]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == len(files)

    def test_plan_validate_checks_the_json_round_trip(self, tmp_path, capsys):
        """CI's glob step must reject files that load but do not round-trip."""
        # A plan whose JSON carries an unknown *valid-looking* section passes
        # from_dict validation only if it round-trips; simulate drift by
        # monkey-free construction: a file that parses but normalises away a
        # field would differ after to_json.  All shipped examples round-trip.
        good = tmp_path / "good.json"
        ParallelPlan.zb1().save(good)
        assert cli.main(["plan", "validate", str(good)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    @pytest.mark.parametrize(
        "flags",
        [(), ("--guard",), ("--checkpoint-every", "3", "--checkpoint-dir", "{dir}")],
        ids=["plain", "guard", "checkpoint"],
    )
    def test_train_has_one_path_and_one_report(self, flags, tmp_path):
        """Guarded and checkpointing runs train the plain run's bits and print its traffic."""
        flags = tuple(flag.format(dir=tmp_path) for flag in flags)
        assert _train_report(_train_stdout(*flags)) == _train_report(_train_stdout())

    def test_resumed_train_reports_only_its_own_iterations(self, tmp_path):
        loss, block = _train_report(_train_stdout())
        directory = str(tmp_path)
        _train_stdout("--iterations", "3", "--checkpoint-every", "3", "--checkpoint-dir", directory)
        resumed = _train_stdout("--resume", "latest", "--checkpoint-dir", directory)
        resumed_loss, resumed_block = _train_report(resumed)
        assert resumed_loss == loss
        assert "\nTrained 1 iterations " in resumed
        # One of four iterations: a quarter of the (per-iteration constant) PP
        # forward and embedding bytes.
        row, resumed_row = (table[4].split("|") for table in (block, resumed_block))
        for column in (2, 5):
            assert float(resumed_row[column]) * 4 == float(row[column])

    def test_train_schedule_flag_selects_zb1(self, capsys):
        assert (
            cli.main(
                ["train", "--preset", "baseline", "--schedule", "zb1", "--iterations", "1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "zb1" in out

    def test_train_preset_zb1(self, capsys):
        assert cli.main(["train", "--preset", "zb1", "--iterations", "1"]) == 0
        assert "zb1" in capsys.readouterr().out

    def test_schedule_flag_conflicts_rejected(self):
        with pytest.raises(SystemExit, match="--schedule"):
            cli.main(
                ["train", "--preset", "baseline", "--schedule", "zb1", "--serial-dp",
                 "--iterations", "1"]
            )

    def test_plan_validate_fails_on_invalid_file(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        ParallelPlan.baseline().save(good)
        bad = tmp_path / "bad.json"
        bad.write_text('{"compression": {"dp": {"codec": "zip"}}}')
        with pytest.raises(SystemExit, match="1 invalid"):
            cli.main(["plan", "validate", str(good), str(bad)])
        out = capsys.readouterr().out
        assert "OK" in out and "FAIL" in out

    @pytest.mark.parametrize("boundary", ["dp", "pp", "embedding"])
    def test_forward_compression_knob_is_refused(self, boundary, tmp_path, capsys):
        """A plan file that still carries the deleted knob (as every plan file
        written before it went did) fails, naming the key."""
        document = ParallelPlan.cb_fe_sc().to_dict()
        document["compression"][boundary]["compress_forward"] = False
        text = json.dumps(document)
        with pytest.raises(ValueError, match="compress_forward"):
            ParallelPlan.from_json(text)
        path = tmp_path / "plan.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as raised:
            cli.main(["plan", "validate", str(path)])
        assert raised.value.code not in (0, None)
        assert "compress_forward" in capsys.readouterr().out

    def test_plan_diff(self, capsys):
        assert cli.main(["plan", "diff", "cb_fe", "cb_fe_sc"]) == 0
        out = capsys.readouterr().out
        assert "compression.dp.codec" in out
        assert cli.main(["plan", "diff", "cb", "cb"]) == 0
        assert "identical" in capsys.readouterr().out

    def test_train_accepts_plan_file(self, tmp_path, capsys):
        path = tmp_path / "probe.json"
        ParallelPlan.baseline().with_topology(pp=2).save(path)
        assert cli.main(["train", "--plan", str(path), "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "PP2 x DP2 x TP1" in out

    def test_train_preset_and_plan_are_mutually_exclusive(self, tmp_path):
        path = tmp_path / "probe.json"
        ParallelPlan.baseline().save(path)
        with pytest.raises(SystemExit, match="mutually exclusive"):
            cli.main(["train", "--plan", str(path), "--preset", "baseline"])

    def test_train_config_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["train", "--config", "cb"])
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_train_rejects_bad_topology_cleanly(self):
        with pytest.raises(SystemExit, match="pp must be positive"):
            cli.main(["train", "--stages", "0"])

    def test_plan_file_rank_is_taken_verbatim(self, tmp_path):
        """Restating a --plan file's own codec must not proxy-cap its rank."""
        path = tmp_path / "r8.json"
        ParallelPlan.cb_fe_sc(dp_rank=8).save(path)
        arguments = cli.build_parser().parse_args(
            ["train", "--plan", str(path), "--dp-codec", "powersgd"]
        )
        assert cli.build_train_plan(arguments).spec(Boundary.DP).rank == 8
        preset_args = cli.build_parser().parse_args(
            ["train", "--preset", "naive_dp", "--dp-codec", "powersgd"]
        )
        assert cli.build_train_plan(preset_args).spec(Boundary.DP).rank == 2

    def test_overlap_dp_flag_flips_a_serial_plan_back(self, tmp_path):
        path = tmp_path / "serial.json"
        ParallelPlan.baseline().with_schedule(kind="serial").save(path)
        arguments = cli.build_parser().parse_args(
            ["train", "--plan", str(path), "--overlap-dp"]
        )
        assert cli.build_train_plan(arguments).schedule.dp_overlap
        with pytest.raises(SystemExit, match="mutually exclusive"):
            cli.main(["train", "--serial-dp", "--overlap-dp"])

    def test_train_flags_layer_onto_the_plan(self):
        arguments = cli.build_parser().parse_args(
            [
                "train",
                "--preset",
                "baseline",
                "--dp-codec",
                "qsgd",
                "--dp-qsgd-bits",
                "2",
                "--serial-dp",
                "--stages",
                "3",
                "--dp-bucket-kb",
                "16",
            ]
        )
        plan = cli.build_train_plan(arguments)
        dp = plan.spec(Boundary.DP)
        assert dp.codec == "qsgd" and dp.bits == 2
        assert dp.bucket_bytes == 16 * 1024
        assert plan.schedule.kind == "serial"
        assert plan.topology.pp == 3

    def test_bucket_default_derives_from_the_dataclass(self):
        """--dp-bucket-kb omitted -> the plan keeps the dataclass default."""
        arguments = cli.build_parser().parse_args(["train", "--preset", "baseline"])
        plan = cli.build_train_plan(arguments)
        assert plan.spec(Boundary.DP).bucket_bytes == CompressionSpec.bucket_bytes


class TestExecutorKnob:
    """The plan's execution-backend selector (``repro.exec`` integration)."""

    def test_round_trip_and_describe(self):
        plan = ParallelPlan.preset("cb_fe_sc").with_executor("process")
        assert plan.executor == "process"
        assert ParallelPlan.from_dict(plan.to_dict()) == plan
        assert plan.describe().endswith("proc-exec")
        assert "proc-exec" not in plan.with_executor("serial").describe()

    def test_serial_is_omitted_from_json(self):
        """Byte-stability: existing plan files never gain an executor key."""
        payload = ParallelPlan.preset("baseline").to_dict()
        assert "executor" not in payload
        assert ParallelPlan.from_dict(payload).executor == "serial"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown executor kind"):
            ParallelPlan.baseline().with_executor("threads")
        with pytest.raises(ValueError, match="unknown executor kind"):
            ParallelPlan.from_dict({"executor": "threads"})
        with pytest.raises(ValueError, match="executor must be a string"):
            ParallelPlan.from_dict({"executor": 2})

    def test_cli_flag_layers_onto_any_plan(self):
        arguments = cli.build_parser().parse_args(
            ["train", "--preset", "baseline", "--executor", "process"]
        )
        assert cli.build_train_plan(arguments).executor == "process"
        arguments = cli.build_parser().parse_args(["train", "--preset", "baseline"])
        assert cli.build_train_plan(arguments).executor == "serial"

    def test_train_executor_process_smoke(self, capsys):
        """Fast-tier CI smoke: the full CLI path over the process executor."""
        assert (
            cli.main(
                ["train", "--preset", "cb_fe_sc", "--stages", "2", "--executor",
                 "process", "--iterations", "1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "proc-exec" in out and "final training loss" in out

"""Schedule study — 1F1B vs ZB-H1 (``"zb1"``) vs the synthesized ``"auto"`` schedule.

Two fidelity layers, mirroring the rest of the experiment suite:

* the **timing simulator** sweeps PP x DP layouts of a paper-scale model and
  reports, per schedule kind, the simulated iteration time, the pipeline bubble
  fraction, and the end-to-end speedup over 1f1b — the zero-bubble claim is
  that splitting each backward into an activation-gradient pass (B) and a
  deferred weight-gradient pass (W) lets W passes fill the cool-down bubble,
  so the bubble fraction must drop strictly for ``pp >= 2``; the synthesized
  schedule additionally sweeps its activation-memory cap (1x degenerates to
  zb1, ~2x approaches zero bubble by admitting extra in-flight forwards);
* a **functional probe** trains the same tiny model through the unified 3D
  engine under every schedule and reports the largest absolute weight
  difference — the schedules must be numerically *identical* (0.0), because
  they only reorder when weight gradients are accumulated, never what they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.engine_traffic import probe_trainer
from repro.models.gpt_configs import GPT_8_3B, PaperModelSpec
from repro.parallel.process_groups import ParallelLayout
from repro.plan import ParallelPlan, Topology
from repro.simulator.cost_model import TrainingJob
from repro.simulator.throughput import SchedulePoint, schedule_cap_sweep, schedule_throughput
from repro.utils.tables import Table, format_float

#: ``(pp, dp)`` layouts swept by the simulator study (TP fixed at the paper's 8).
DEFAULT_LAYOUTS = ((2, 8), (4, 4), (8, 2))

#: Memory caps swept for the synthesized schedule (multiples of ZB-H1's footprint).
DEFAULT_CAPS = (1.0, 1.5, 2.0)

#: Schedule kinds the functional parity probe trains (all must agree exactly).
PARITY_KINDS = ("1f1b", "zb1", "auto")


@dataclass
class ScheduleComparisonResult:
    """Per-layout schedule simulator numbers plus the functional parity probe."""

    model_name: str
    #: ``{(pp, dp): {kind: SchedulePoint}}`` — auto cap-sweep points are keyed
    #: ``"auto@<cap:g>"`` (e.g. ``"auto@1.5"``) next to the plain kinds.
    sweeps: dict[tuple[int, int], dict[str, SchedulePoint]] = field(default_factory=dict)
    #: Largest absolute weight difference between the 1f1b-trained functional
    #: probe and any other schedule's (must be exactly 0.0).
    functional_weight_delta: float = float("nan")
    functional_layout: tuple[int, int] = (0, 0)

    def point(self, pp: int, dp: int, kind: str) -> SchedulePoint:
        return self.sweeps[(pp, dp)][kind]

    def render(self) -> str:
        table = Table(
            title=(
                f"{self.model_name}: pipeline schedules — 1f1b vs zero-bubble (zb1) "
                "vs synthesized (auto)"
            ),
            columns=[
                "PPxDP",
                "1f1b iter (s)",
                "zb1 iter (s)",
                "1f1b bubble",
                "zb1 bubble",
                "zb1 speedup",
            ]
            + [f"auto@{cap:g}x bubble" for cap in DEFAULT_CAPS],
        )
        for (pp, dp), points in sorted(self.sweeps.items()):
            base, zb1 = points["1f1b"], points["zb1"]
            row = [
                f"PP{pp}xDP{dp}",
                format_float(base.iteration_time_s, 2),
                format_float(zb1.iteration_time_s, 2),
                f"{base.bubble_fraction:.1%}",
                f"{zb1.bubble_fraction:.1%}",
                f"{zb1.speedup_over(base):+.2%}",
            ]
            for cap in DEFAULT_CAPS:
                auto = points.get(f"auto@{cap:g}")
                row.append(f"{auto.bubble_fraction:.1%}" if auto is not None else "-")
            table.add_row(row)
        lines = [table.render()]
        pp, dp = self.functional_layout
        kinds = "/".join(PARITY_KINDS)
        lines.append(
            f"Functional parity probe (PP{pp}xDP{dp}, {kinds}): max weight delta "
            f"= {self.functional_weight_delta:.1e} (schedules are bit-identical)"
        )
        return "\n".join(lines)


def functional_schedule_parity(
    pp: int = 2,
    dp: int = 2,
    iterations: int = 2,
    seed: int = 3,
    kinds: tuple[str, ...] = PARITY_KINDS,
    memory_cap_factor: float = 1.5,
) -> float:
    """Train the tiny probe under each schedule kind and return the max weight delta.

    A real multi-step trajectory through ``Pretrainer.train_iteration`` (the
    :func:`~repro.experiments.engine_traffic.probe_trainer` model): every
    iteration ends in a fused-Adam step, so the comparison is over *weights
    after training*, not a single gradient computation.  The schedules must
    agree exactly (0.0): the split-backward schedules (zb1 and the synthesized
    auto, here run at ``memory_cap_factor``) only reorder when each weight
    gradient is accumulated, never what it is.
    """
    topology = Topology(dp=dp, pp=pp, tp=1, micro_batches=4)
    weights = {}
    for kind in kinds:
        changes = {"kind": kind}
        if kind == "auto":
            changes["memory_cap_factor"] = memory_cap_factor
        plan = ParallelPlan(topology=topology).with_schedule(**changes)
        with probe_trainer(plan, seed) as trainer:
            for _ in range(iterations):
                trainer.train_iteration()
            weights[kind] = trainer.engine.arenas[0].data.copy()
    reference = weights[kinds[0]]
    return max(
        (float(np.max(np.abs(reference - weights[kind]))) for kind in kinds[1:]),
        default=0.0,
    )


def run_schedule_comparison(
    model: PaperModelSpec = GPT_8_3B,
    layouts: tuple[tuple[int, int], ...] = DEFAULT_LAYOUTS,
    micro_batch_size: int = 8,
    global_batch_size: int = 512,
    caps: tuple[float, ...] = DEFAULT_CAPS,
) -> ScheduleComparisonResult:
    """Sweep PP x DP layouts under every schedule and run the parity probe."""
    result = ScheduleComparisonResult(model_name=model.name)
    for pp, dp in layouts:
        job = TrainingJob(
            model=model,
            layout=ParallelLayout(tensor_parallel=8, pipeline_parallel=pp, data_parallel=dp),
            micro_batch_size=micro_batch_size,
            global_batch_size=global_batch_size,
            num_model_chunks=1,
        )
        points = {point.kind: point for point in schedule_throughput(job, kinds=("1f1b", "zb1"))}
        for point in schedule_cap_sweep(job, caps=caps):
            points[f"auto@{point.memory_cap_factor:g}"] = point
        result.sweeps[(pp, dp)] = points
    result.functional_layout = (2, 2)
    result.functional_weight_delta = functional_schedule_parity(*result.functional_layout)
    return result

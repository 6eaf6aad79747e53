"""The paper-fidelity ledger: every paper-reported number the code reproduces, and how far off it is.

One row per number: the reproduced value, the paper's, the gap and a verdict
from a fixed vocabulary, judged against a band this module states:

* ``within band`` — the gap is inside the band;
* ``direction ok`` — outside the band, but on the paper's side of zero (a
  speedup that is a speedup), or a comparison the paper reports that holds;
* ``gap`` — outside the band and not even that;
* ``trend reversed`` — a comparison the paper reports that comes out the
  other way.

The rows come from the simulator alone, through the loops the figure modules
use: Table 2's wall-clock side (its eight day counts and six speedups) and the
paper's headline trend, that the full stack gains more on the bigger model;
Fig. 14's floor, one row per (TP, PP) layout; Fig. 3's "Opt-CC (TopK)
trains slower than Opt-CC"; and Fig. 14's two depth trends, CB gaining more
as the pipeline gets deeper and SC more as it gets shallower.  The paper gives
the last two as orderings without a magnitude, so their rows have no band.
``repro reproduce ledger`` writes it to ``benchmarks/results/FIDELITY.txt``
and ``FIDELITY.json``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field, replace

from repro.experiments.fig03_motivation import simulate_fig03
from repro.experiments.fig14_config_sensitivity import PAPER_MIN_SPEEDUP, run_fig14
from repro.experiments.table2_pretraining import Table2Result, simulate_table2
from repro.utils.tables import Table

#: Where ``repro reproduce ledger`` writes, relative to the repository root.
RESULTS_DIR = pathlib.Path("benchmarks") / "results"

#: Day counts: the relative gap, reproduced / paper - 1, that is within band.
DAYS_BAND = 0.10
#: Speedups and trends: the gap in percentage points that is within band.
POINTS_BAND = 5.0

#: The verdicts, best first.
VERDICTS = ("within band", "direction ok", "gap", "trend reversed")


@dataclass(frozen=True)
class FidelityRow:
    """One paper-reported number: reproduced, the paper's, the gap, the verdict."""

    row: str
    unit: str
    reproduced: float
    #: ``None`` for an ordering the paper reports without a magnitude.
    paper: float | None
    gap: float | None
    verdict: str


def _days_row(model: str, label: str, days: float, paper: float) -> FidelityRow:
    gap = days / paper - 1.0
    verdict = "within band" if abs(gap) <= DAYS_BAND else "gap"
    return FidelityRow(f"Table 2 days {model} {label}", "days", days, paper, gap, verdict)


def _points_row(row: str, reproduced: float, paper: float, comparison: bool) -> FidelityRow:
    """A speedup in percent, or (``comparison``) a difference of two whose sign the paper reports."""
    gap = reproduced - paper
    if abs(gap) <= POINTS_BAND:
        verdict = "within band"
    elif (reproduced > 0) == (paper > 0):
        verdict = "direction ok"
    else:
        verdict = "trend reversed" if comparison else "gap"
    return FidelityRow(row, "points" if comparison else "percent", reproduced, paper, gap, verdict)


def _at_least_row(row: str, reproduced: float, floor: float) -> FidelityRow:
    """A speedup in percent the paper reports a floor for: at or above it is within band."""
    judged = _points_row(row, reproduced, floor, comparison=False)
    return replace(judged, verdict="within band") if reproduced >= floor else judged


def _ordering_row(row: str, difference: float, unit: str) -> FidelityRow:
    """A difference (in ``unit``) the paper reports as positive, without a magnitude."""
    verdict = "direction ok" if difference > 0 else "trend reversed" if difference < 0 else "gap"
    return FidelityRow(row, unit, difference, None, None, verdict)


@dataclass
class FidelityLedger:
    """The ledger's rows, rendered as a table and as JSON."""

    rows: list[FidelityRow] = field(default_factory=list)

    def render(self) -> str:
        table = Table(
            title="Paper-fidelity ledger",
            columns=["Row", "Reproduced", "Paper", "Gap", "Verdict"],
        )
        for row in self.rows:
            if row.paper is None:
                suffix = " d" if row.unit == "days" else " pt"
                values = [f"{row.reproduced:+.2f}{suffix}", "> 0", "n/a"]
            elif row.unit == "days":
                values = [f"{row.reproduced:.2f} d", f"{row.paper:.2f} d", f"{row.gap:+.1%}"]
            else:
                suffix = "%" if row.unit == "percent" else " pt"
                values = [
                    f"{row.reproduced:+.2f}{suffix}", f"{row.paper:+.2f}{suffix}", f"{row.gap:+.2f} pt"
                ]
            table.add_row([row.row, *values, row.verdict])
        bands = (
            f"Bands: days within {DAYS_BAND:.0%} of the paper's; speedups and trends "
            f"within {POINTS_BAND:.0f} percentage points (pt).  Outside the band a "
            "speedup on the paper's side of zero, or a trend that holds, is 'direction ok'.  "
            "A floor ('at least') is within band from the band below it upwards; an ordering "
            "the paper gives no magnitude for ('> 0') is 'direction ok' if it holds, a 'gap' if tied."
        )
        return f"{table.render()}\n{bands}"

    def to_json(self) -> str:
        document = {
            "bands": {"days_relative": DAYS_BAND, "points": POINTS_BAND},
            "verdicts": list(VERDICTS),
            "rows": [
                {
                    **asdict(row),
                    **{
                        name: round(getattr(row, name), 6)
                        for name in ("reproduced", "paper", "gap")
                        if getattr(row, name) is not None
                    },
                }
                for row in self.rows
            ],
        }
        return json.dumps(document, indent=2) + "\n"

    def write(self, directory: pathlib.Path | str = RESULTS_DIR) -> list[pathlib.Path]:
        """Write ``FIDELITY.txt`` and ``FIDELITY.json`` into ``directory``; the paths."""
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = [directory / "FIDELITY.txt", directory / "FIDELITY.json"]
        paths[0].write_text(self.render() + "\n", encoding="utf-8")
        paths[1].write_text(self.to_json(), encoding="utf-8")
        return paths


def run_ledger() -> FidelityLedger:
    """Every ledger row, from the simulator alone."""
    cells = {(model, label): (days, speedup) for model, label, days, speedup in simulate_table2()}
    ledger = FidelityLedger()
    for (model, label), paper_days in Table2Result.PAPER_DAYS.items():
        ledger.rows.append(_days_row(model, label, cells[model, label][0], paper_days))
    for (model, label), paper_speedup in Table2Result.PAPER_SPEEDUP.items():
        ledger.rows.append(
            _points_row(
                f"Table 2 speedup {model} {label}",
                100.0 * cells[model, label][1],
                100.0 * paper_speedup,
                comparison=False,
            )
        )
    full = [(model, "CB+FE+SC") for model in ("GPT-8.3B", "GPT-2.5B")]
    ledger.rows.append(
        _points_row(
            "CB+FE+SC(8.3B) > CB+FE+SC(2.5B)",
            100.0 * (cells[full[0]][1] - cells[full[1]][1]),
            100.0 * (Table2Result.PAPER_SPEEDUP[full[0]] - Table2Result.PAPER_SPEEDUP[full[1]]),
            comparison=True,
        )
    )
    fig14 = run_fig14()
    for row in fig14.rows:
        if row.label == "CB+FE+SC":
            ledger.rows.append(
                _at_least_row(
                    f"Fig. 14 speedup {row.layout_label} CB+FE+SC, at least",
                    100.0 * row.speedup,
                    100.0 * PAPER_MIN_SPEEDUP,
                )
            )
    days = {label: bar_days for label, bar_days, _ in simulate_fig03()}
    ledger.rows.append(
        _ordering_row(
            "Fig. 3 days Opt-CC (TopK) - Opt-CC", days["Opt-CC (TopK)"] - days["Opt-CC"], "days"
        )
    )
    # Deeper pipelines gain more from CB, shallower ones more from SC.
    cb, sc = fig14.cb_gain_by_depth(), fig14.sc_gain_by_depth()
    for row, difference in (
        ("CB gain PP8 > PP4", cb[8] - cb[4]),
        ("CB gain PP16 > PP8", cb[16] - cb[8]),
        ("SC gain PP4 > PP8", sc[4] - sc[8]),
        ("SC gain PP8 > PP16", sc[8] - sc[16]),
    ):
        ledger.rows.append(_ordering_row(f"Fig. 14 {row}", 100.0 * difference, "points"))
    return ledger


def write_ledger(directory: pathlib.Path | str = RESULTS_DIR) -> FidelityLedger:
    """``repro reproduce ledger``: build the ledger and write its two files."""
    ledger = run_ledger()
    ledger.write(directory)
    return ledger

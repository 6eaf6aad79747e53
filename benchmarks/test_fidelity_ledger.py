"""Benchmark writing the paper-fidelity ledger and pinning its verdicts.

The ledger comes from the simulator alone.  A verdict may get better, never
worse: a cost-model change that moves a row further from the paper fails here.
"""

from __future__ import annotations

import json
import pathlib

from repro.experiments.fidelity_ledger import VERDICTS, write_ledger

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Every row's verdict when the row was introduced.
PINNED = {
    "Table 2 days GPT-8.3B Baseline": "gap",
    "Table 2 days GPT-8.3B CB": "gap",
    "Table 2 days GPT-8.3B CB+FE": "within band",
    "Table 2 days GPT-8.3B CB+FE+SC": "within band",
    "Table 2 days GPT-2.5B Baseline": "gap",
    "Table 2 days GPT-2.5B CB": "gap",
    "Table 2 days GPT-2.5B CB+FE": "gap",
    "Table 2 days GPT-2.5B CB+FE+SC": "gap",
    "Table 2 speedup GPT-8.3B CB": "within band",
    "Table 2 speedup GPT-8.3B CB+FE": "direction ok",
    "Table 2 speedup GPT-8.3B CB+FE+SC": "direction ok",
    "Table 2 speedup GPT-2.5B CB": "within band",
    "Table 2 speedup GPT-2.5B CB+FE": "direction ok",
    "Table 2 speedup GPT-2.5B CB+FE+SC": "direction ok",
    "CB+FE+SC(8.3B) > CB+FE+SC(2.5B)": "trend reversed",
    "Fig. 14 speedup TP8/PP4 CB+FE+SC, at least": "within band",
    "Fig. 14 speedup TP4/PP8 CB+FE+SC, at least": "within band",
    "Fig. 14 speedup TP2/PP16 CB+FE+SC, at least": "within band",
    "Fig. 3 days Opt-CC (TopK) - Opt-CC": "gap",
    "Fig. 14 CB gain PP8 > PP4": "direction ok",
    "Fig. 14 CB gain PP16 > PP8": "direction ok",
    "Fig. 14 SC gain PP4 > PP8": "trend reversed",
    "Fig. 14 SC gain PP8 > PP16": "direction ok",
}


def test_fidelity_ledger():
    ledger = write_ledger(RESULTS_DIR)
    print(f"\n{ledger.render()}\n[written to {RESULTS_DIR / 'FIDELITY.txt'}]")
    verdicts = {row.row: row.verdict for row in ledger.rows}
    assert list(verdicts) == list(PINNED)
    for row, pinned in PINNED.items():
        assert VERDICTS.index(verdicts[row]) <= VERDICTS.index(pinned), row
    written = json.loads((RESULTS_DIR / "FIDELITY.json").read_text(encoding="utf-8"))
    assert [row["verdict"] for row in written["rows"]] == list(verdicts.values())
    assert written["bands"] == {"days_relative": 0.10, "points": 5.0}

"""Figure 4-2: end-to-end percent speedup over pure-copy.

Times one full lazy trial with deep prefetch (PM-End IOU PF15 — a
best-case Pasmac configuration) and regenerates the figure's rows.
"""

from benchmarks.conftest import run_once
from repro.experiments.figures import figure_4_2
from repro.experiments.tables import render
from repro.testbed import Testbed


def pm_end_pf15():
    return Testbed(seed=1987).migrate(
        "pm-end", strategy="pure-iou", options={"prefetch": 15}
    )


def test_figure_4_2(benchmark, artifact, matrix):
    result = run_once(benchmark, pm_end_pf15)
    assert result.verified

    rows = figure_4_2(matrix)
    for row in rows:
        # PF1 never loses to PF0 (within a point of noise).
        assert row["iou_pf1"] >= row["iou_pf0"] - 1.0
    artifact("figure_4_2", render(rows, float_format="{:.1f}"))

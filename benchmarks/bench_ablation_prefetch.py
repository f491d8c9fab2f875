"""Ablation: prefetch policy depth and its hit ratios (DESIGN.md §5.1).

Complements Figures 4-1/4-4 with the §4.3.3 hit-ratio narrative: the
sequential Pasmac holds ~78% at every depth, while the scattered Lisp
decays from ~40% toward ~20%, which is why deep prefetch helps one and
hurts the other.
"""

from benchmarks.conftest import run_once
from repro.experiments.ablations import prefetch_depth_study
from repro.experiments.tables import render
from repro.testbed import Testbed


def pm_start_pf7():
    return Testbed(seed=1987).migrate(
        "pm-start", strategy="pure-iou", options={"prefetch": 7}
    )


def test_ablation_prefetch_hit_ratios(benchmark, artifact, matrix):
    result = run_once(benchmark, pm_start_pf7)
    assert result.verified

    rows = prefetch_depth_study(matrix)
    pasmac_ratios = [row["pasmac_hit_ratio"] for row in rows]
    lisp_ratios = [row["lisp_hit_ratio"] for row in rows]
    # Pasmac steady; Lisp declining (paper §4.3.3).
    assert max(pasmac_ratios) - min(pasmac_ratios) < 0.10
    assert lisp_ratios[0] > 0.3 and lisp_ratios[-1] < 0.25
    artifact("ablation_prefetch", render(rows))

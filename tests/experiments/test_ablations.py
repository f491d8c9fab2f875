"""Tests for the programmatic ablation studies."""

import pytest

from repro.experiments import ablations


def test_noious_study_rows(matrix):
    rows = ablations.noious_study(matrix)
    by_name = {row["workload"]: row for row in rows}
    assert by_name["lisp-t"]["transfer_ratio"] > 500
    assert by_name["minprog"]["transfer_ratio"] > 30
    # Caching slashes every transfer phase, by up to three orders of
    # magnitude for the Lisp giants.
    assert all(row["transfer_ratio"] > 30 for row in rows)
    assert max(row["transfer_ratio"] for row in rows) > 500


def test_fragment_size_monotonic():
    rows = ablations.fragment_size_study(sizes=(288, 576, 1152, 2304, 4608))
    times = [row["copy_transfer_s"] for row in rows]
    assert times == sorted(times, reverse=True)
    # The 576-byte default sits where doubling buys less than 2x.
    assert times[1] / times[3] < 2.5


def test_rs_carve_reproduces_anomaly():
    rows = ablations.rs_carve_study(carve_ms_values=(0.0, 3.0))
    assert rows[0]["anomaly_ratio"] < 1.25
    # At 3 ms (the paper fit) Lisp pays ~2x per page, as in Table 4-5.
    assert 1.6 < rows[1]["anomaly_ratio"] < 2.4


def test_prefetch_depth_families_diverge(matrix):
    rows = ablations.prefetch_depth_study(matrix, prefetches=(1, 3, 7, 15))
    first, last = rows[0], rows[-1]
    assert abs(first["pasmac_hit_ratio"] - last["pasmac_hit_ratio"]) < 0.1
    assert first["lisp_hit_ratio"] > last["lisp_hit_ratio"] + 0.15
    # §4.3.3: Pasmac steady at every depth; Lisp from ~40% toward ~20%.
    pasmac = [row["pasmac_hit_ratio"] for row in rows]
    assert max(pasmac) - min(pasmac) < 0.10
    assert first["lisp_hit_ratio"] > 0.3 and last["lisp_hit_ratio"] < 0.25


def test_ws_window_spans_iou_to_copy():
    rows = ablations.ws_window_study(windows_s=(0.5, 10.0, 3600.0))
    shipped = [row["pages_shipped"] for row in rows]
    assert shipped == sorted(shipped)
    assert shipped[0] < shipped[-1]


def test_ws_window_local_sweet_spot():
    """The calibrated τ=10 s beats both a too-small window (misses the
    hot pages) and a moderately larger one (ships cooling disk-cache
    pages).  For a >50%-touched workload the τ→∞ limit — ship
    everything ever referenced — eventually wins again, exactly the
    §4.3.4 breakeven law."""
    rows = ablations.ws_window_study(windows_s=(0.5, 2.0, 10.0, 60.0))
    shipped = [row["pages_shipped"] for row in rows]
    assert shipped == sorted(shipped)
    te = {row["window_s"]: row["transfer_plus_exec_s"] for row in rows}
    assert te[10.0] < te[0.5]
    assert te[10.0] < te[60.0]

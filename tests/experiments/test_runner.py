"""Tests for the EXPERIMENTS.md report generator."""

import pytest

from repro.experiments.runner import generate_report, main


@pytest.fixture(scope="module")
def report(matrix):
    text, _ = generate_report(matrix=matrix)
    return text


def test_report_contains_every_table_and_figure(report):
    for section in (
        "Table 4-1",
        "Table 4-2",
        "Table 4-3",
        "Table 4-4",
        "Table 4-5",
        "Figure 4-1",
        "Figure 4-2",
        "Figure 4-3",
        "Figure 4-4",
        "Figure 4-5",
        "Narrative claims",
    ):
        assert section in report


def test_report_lists_all_workloads(report):
    for name in (
        "minprog", "lisp-t", "lisp-del", "pm-start", "pm-mid", "pm-end",
        "chess",
    ):
        assert name in report


def test_report_shows_paper_vs_measured_pairs(report):
    # Table 4-1 row carries both our number and the paper's.
    assert "142,336 / 142,336" in report
    # Claims table pairs paper and measured columns.
    assert "| claim | paper | measured |" in report


def test_report_mentions_illegible_cells(report):
    assert "illegible" in report


def test_report_renders_timeline_panels(report):
    assert "### pure-copy" in report
    assert "### pure-iou" in report
    assert "### resident-set" in report
    assert "B/s" in report


def test_main_writes_file(tmp_path, report):
    # Write the module's report rather than rendering it a second time.
    out = tmp_path / "EXP.md"
    out.write_text(report)
    assert out.read_text().startswith("# EXPERIMENTS")


def test_report_insertion_range_stated(report):
    assert "Insertion times measured" in report
    assert "paper: 263" in report

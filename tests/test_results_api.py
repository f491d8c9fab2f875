"""Result-object and world-accessor API tests."""

import pytest

from repro.experiments.matrix import TrialMatrix
from repro.faults import FaultPlan
from repro.testbed import Testbed


def test_world_accessors():
    world = Testbed(seed=2).world(host_names=("x", "y", "z"))
    assert world.host("y").name == "y"
    assert world.manager("z").host is world.host("z")
    assert world.source.name == "x"
    assert world.dest.name == "y"
    assert world.source_manager.host is world.source
    with pytest.raises(KeyError):
        world.host("nope")


def test_migration_result_marks_and_repr(matrix):
    result = matrix.iou("minprog")
    marks = result.marks
    assert marks["trial.start"] == 0.0
    assert marks["trial.end"] > marks["exec.start"] > marks["rimas.end"]
    # marks is a copy: mutating it doesn't corrupt the result.
    marks["trial.start"] = 99
    assert result.marks["trial.start"] == 0.0
    text = repr(result)
    assert "minprog" in text and "pure-iou" in text


def test_migration_result_phase_arithmetic(matrix):
    result = matrix.iou("chess")
    assert result.excise_s == pytest.approx(
        result._marks["excise.end"] - result._marks["excise.start"]
    )
    assert result.transfer_plus_exec_s == pytest.approx(
        result.transfer_s + result.exec_s
    )
    assert result.end_to_end_s >= (
        result.excise_s
        + result.core_transfer_s
        + result.transfer_s
        + result.insert_s
        + result.exec_s
    ) - 1e-6


def test_killed_migration_is_not_ok_even_when_its_pages_verified():
    """``migrate`` shares the trial verdict: completed and verified."""
    plan = FaultPlan.from_dict({"crashes": [{"host": "alpha", "at": 3.0}]})
    result = Testbed(faults=plan).migrate("minprog")
    assert result.outcome == "killed"
    assert result.verified
    assert not result.ok


def test_missing_mark_returns_none():
    result = Testbed(seed=2).migrate("minprog", run_remote=False)
    result._marks.pop("insert.end", None)
    assert result.insert_s is None


def test_bytes_by_category_partitions_total(matrix):
    result = matrix.iou("pm-end")
    assert sum(result.bytes_by_category.values()) == result.bytes_total
    assert "imag.read.reply" in result.bytes_by_category
    assert "migrate.core" in result.bytes_by_category


def test_matrix_cells_cover_full_sweep():
    matrix = TrialMatrix(seed=3)
    cells = list(matrix.cells(workloads=("minprog",), prefetches=(0, 1)))
    # 1 copy + 2 strategies x 2 prefetches.
    assert len(cells) == 5
    # The cache collapses pure-copy prefetch variants into one cell.
    assert matrix.result("minprog", "pure-copy", 7) is matrix.copy("minprog")


def test_chain_and_precopy_reprs():
    bed = Testbed(seed=2)
    chain = bed.migrate_chain("minprog", strategy="pure-iou")
    assert "alpha→beta→gamma" in repr(chain).replace(" -> ", "→") or "alpha" in repr(chain)
    precopy = bed.migrate_precopy("minprog")
    assert "rounds=" in repr(precopy)
    assert precopy.precopy_s > 0
    assert precopy.exec_s >= 0
    assert precopy.end_to_end_s >= precopy.downtime_s
"""Sensitivity analysis: the paper's conclusions must be robust."""

import pytest

from repro.experiments.sensitivity import (
    PERTURBABLE,
    check_conclusions,
    fragile_conclusions,
    sweep,
)


def test_baseline_conclusions_all_hold(matrix):
    verdicts = check_conclusions(matrix)
    failed = [name for name, ok in verdicts.items() if not ok]
    assert not failed


@pytest.fixture(scope="module")
def full_sweep():
    """Every perturbable constant halved and doubled (about 15 s)."""
    return sweep(parameters=PERTURBABLE, factors=(0.5, 2.0))


@pytest.mark.parametrize("parameter", ["nms_per_byte_s", "migration_setup_s"])
def test_single_parameter_halving_and_doubling(full_sweep, parameter):
    rows = [row for row in full_sweep if row["parameter"] == parameter]
    assert len(rows) == 2
    for row in rows:
        assert row["all_hold"], (
            f"{parameter} x{row['factor']} broke "
            f"{[k for k, v in row.items() if v is False]}"
        )


def test_no_conclusion_is_fragile_under_any_constant(full_sweep):
    assert len(full_sweep) == 2 * len(PERTURBABLE)
    assert fragile_conclusions(full_sweep) == []


def test_sweep_row_shape():
    rows = sweep(parameters=("pager_overhead_s",), factors=(2.0,))
    row = rows[0]
    assert row["parameter"] == "pager_overhead_s"
    assert row["factor"] == 2.0
    assert "iou_transfer_fastest" in row
    assert isinstance(row["all_hold"], bool)


def test_perturbable_list_names_real_fields():
    from repro.calibration import DEFAULT_CALIBRATION

    for name in PERTURBABLE:
        assert hasattr(DEFAULT_CALIBRATION, name)

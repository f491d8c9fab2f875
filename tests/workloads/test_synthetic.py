"""Tests for the synthetic-workload factory."""

import pytest

from repro.accent.constants import PAGE_SIZE
from repro.migration.strategy import PURE_COPY, PURE_IOU
from repro.testbed import Testbed
from repro.workloads.spec import Locality
from repro.workloads.synthetic import make_synthetic


def test_basic_construction():
    spec = make_synthetic(real_kb=100, utilisation=0.3)
    assert spec.real_bytes == 100 * 1024
    assert spec.touched_fraction == pytest.approx(0.3, abs=0.01)
    assert spec.locality is Locality.CLUSTERED
    assert spec.resident_bytes <= spec.real_bytes


def test_locality_accepts_string_and_enum():
    assert make_synthetic(64, 0.5, locality="sequential").locality is (
        Locality.SEQUENTIAL
    )
    assert make_synthetic(64, 0.5, locality=Locality.SCATTERED).locality is (
        Locality.SCATTERED
    )
    with pytest.raises(ValueError, match="unknown locality"):
        make_synthetic(64, 0.5, locality="quantum")


def test_utilisation_bounds_checked():
    with pytest.raises(ValueError):
        make_synthetic(64, 0.0)
    with pytest.raises(ValueError):
        make_synthetic(64, 1.5)
    with pytest.raises(ValueError):
        make_synthetic(64, 0.5, zero_fill_ratio=0)


def test_rs_overlap_controls_union():
    tight = make_synthetic(200, 0.5, rs_overlap=1.0)
    loose = make_synthetic(200, 0.5, rs_overlap=0.0)
    assert tight.rs_union_fraction < loose.rs_union_fraction
    assert tight.touched_in_rs_pages > loose.touched_in_rs_pages


def test_tiny_sizes_are_viable():
    spec = make_synthetic(real_kb=4, utilisation=1.0)
    assert spec.real_pages >= 8
    assert spec.real_runs >= 1


def test_synthetic_specs_migrate_and_verify():
    spec = make_synthetic(
        real_kb=256, utilisation=0.2, locality="sequential", compute_s=2.0
    )
    bed = Testbed(seed=12)
    for strategy in (PURE_COPY, PURE_IOU, "resident-set", "working-set"):
        result = bed.migrate(spec, strategy=strategy, options={"prefetch": 1})
        assert result.verified, strategy


def test_breakeven_visible_through_factory():
    """Low utilisation wins with IOU; high loses — the §4.3.4 law."""
    bed = Testbed(seed=12)
    low = make_synthetic(400, 0.10, compute_s=5.0, name="low")
    high = make_synthetic(400, 0.80, compute_s=5.0, name="high")
    for spec, expect_iou_wins in ((low, True), (high, False)):
        copy = bed.migrate(spec, strategy=PURE_COPY)
        iou = bed.migrate(spec, strategy=PURE_IOU)
        wins = iou.transfer_plus_exec_s < copy.transfer_plus_exec_s
        assert wins == expect_iou_wins, spec.name

"""Tests for the working-set transfer strategy (extension of §4.2.2)."""

import pytest

from repro.migration.strategy import WORKING_SET, WorkingSet
from repro.testbed import Testbed
from repro.workloads.registry import WORKLOADS


@pytest.fixture(scope="module")
def bed():
    return Testbed(seed=1987)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_working_set_verifies_everywhere(bed, workload):
    result = bed.migrate(workload, strategy=WORKING_SET)
    assert result.verified


def test_working_set_is_subset_of_resident_set(bed):
    """Denning's WS ⊆ physical residency: the WS strategy never ships
    more than RS does."""
    for workload in WORKLOADS:
        ws = bed.migrate(workload, strategy=WORKING_SET)
        rs = bed.migrate(workload, strategy="resident-set")
        assert ws.pages_bulk <= rs.pages_bulk, workload


def test_working_set_ships_less_dead_weight(bed):
    """The disk-cache pages RS drags along (old Pasmac file images,
    §4.2.3) stay home under WS."""
    for workload in ("pm-start", "pm-mid", "pm-end", "chess"):
        ws = bed.migrate(workload, strategy=WORKING_SET)
        rs = bed.migrate(workload, strategy="resident-set")
        assert (
            ws.fraction_of_real_transferred
            < rs.fraction_of_real_transferred - 0.1
        ), workload


def test_working_set_never_loses_to_resident_set(bed):
    """End-to-end, shipping the *true* working set is at least as good
    as shipping the resident set for every representative — resident
    sets fail as an approximation, not as an idea."""
    for workload in WORKLOADS:
        ws = bed.migrate(workload, strategy=WORKING_SET)
        rs = bed.migrate(workload, strategy="resident-set")
        assert (
            ws.transfer_plus_exec_s <= rs.transfer_plus_exec_s * 1.01
        ), workload


def test_working_set_beats_pure_iou_for_pasmac(bed):
    """With an accurate predictor, pre-shipping pays even past the
    IOU breakeven: Pasmac's hot pages arrive free of fault latency."""
    for workload in ("pm-mid", "pm-end"):
        ws = bed.migrate(workload, strategy=WORKING_SET)
        iou = bed.migrate(workload, strategy="pure-iou")
        assert ws.transfer_plus_exec_s < iou.transfer_plus_exec_s, workload


def test_window_zero_degenerates_to_pure_iou_shipment(bed):
    """τ→0 selects nothing: everything goes as IOUs."""
    result = Testbed(seed=1987).migrate(
        "pm-mid", strategy=WorkingSet(window_s=0.0)
    )
    assert result.pages_bulk == 0
    assert result.verified


def test_huge_window_degenerates_to_pure_copy_shipment():
    """τ→∞ selects every page ever referenced — all real pages here,
    since the builder stamps each page's pre-migration history."""
    result = Testbed(seed=1987).migrate(
        "minprog", strategy=WorkingSet(window_s=1e9)
    )
    assert result.pages_bulk == WORKLOADS["minprog"].real_pages
    assert result.verified


def test_last_touch_tracking_updates_on_remote_execution(bed):
    """Kernel touch path stamps recency (the estimator's raw input)."""
    world = bed.world()
    from repro.workloads.builder import build_process

    built = build_process(world.source, WORKLOADS["minprog"], world.streams)
    space = built.process.space
    target = built.plan.touched_order[0]
    stamped_before = space.last_touch(target)
    assert stamped_before is not None and stamped_before <= 0

    def toucher():
        yield world.engine.timeout(5.0)
        cost = world.source.kernel.touch(built.process, target)
        if cost is not None:
            yield from cost

    world.engine.run(until=world.engine.process(toucher()))
    assert space.last_touch(target) == pytest.approx(5.0)

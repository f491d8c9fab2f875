"""Tests for the iterative pre-copy baseline (§5, Theimer's V)."""

import pytest

from repro.accent.ipc.message import Message, RegionSection
from repro.accent.vm.page import Page
from repro.migration.precopy import OP_PRECOPY_ROUND, default_dirty_rate
from repro.testbed import Testbed
from repro.workloads.registry import WORKLOADS


@pytest.fixture(scope="module")
def bed():
    return Testbed(seed=1987)


@pytest.fixture(scope="module")
def precopied(bed):
    """Each representative's default pre-copy migration."""
    return {workload: bed.migrate_precopy(workload) for workload in WORKLOADS}


def stopped_s(result):
    """Excision through insertion: how long a migration stops its process."""
    return (result.excise_s + result.core_transfer_s + result.transfer_s
            + result.insert_s)


def test_precopy_verifies_all_workload_pages(bed):
    for workload in ("minprog", "pm-mid", "chess"):
        result = bed.migrate_precopy(workload)
        assert result.verified, workload


def test_precopy_reduces_downtime_vs_stop_and_copy(bed):
    """V's headline: the process is stopped far shorter than a full
    pure-copy transfer."""
    precopy = bed.migrate_precopy("pm-mid")
    copy = bed.migrate("pm-mid", strategy="pure-copy")
    assert precopy.downtime_s < 0.35 * stopped_s(copy)


def test_precopy_ships_more_bytes_than_copy(precopied, matrix):
    """...but both hosts still pay the transfer costs, plus re-dirtied
    pages shipped repeatedly (Theimer's overruns)."""
    precopy, copy = precopied["pm-mid"], matrix.copy("pm-mid")
    assert precopy.bytes_total > copy.bytes_total
    assert precopy.pages_shipped > WORKLOADS["pm-mid"].real_pages
    for workload, precopy in precopied.items():
        copy = matrix.copy(workload)
        assert precopy.bytes_total >= 0.99 * copy.bytes_total, workload


def test_precopy_never_beats_iou_on_traffic(precopied, matrix):
    """§5: copy-on-reference cuts traffic below pre-copy's, and its
    downtime is never more than half a second above pre-copy's."""
    for workload, precopy in precopied.items():
        iou = matrix.iou(workload)
        assert iou.bytes_total < precopy.bytes_total, workload
        assert stopped_s(iou) <= precopy.downtime_s + 0.5, workload


def test_fast_dirtier_never_converges(bed):
    """A process dirtying faster than the link copies hits the round
    cap and degenerates to stop-and-copy with extra traffic."""
    result = bed.migrate_precopy("lisp-t")
    assert len(result.rounds) == 5  # max_rounds cap
    assert result.pages_shipped == 5 * WORKLOADS["lisp-t"].real_pages
    copy = bed.migrate("lisp-t", strategy="pure-copy")
    assert result.bytes_total > 4 * copy.bytes_total


def test_slow_dirtier_converges_quickly(bed):
    result = bed.migrate_precopy("chess", dirty_rate_pps=0.5)
    assert len(result.rounds) == 1
    assert result.downtime_s < 3.0


def test_remote_execution_is_all_local_after_precopy(bed):
    result = bed.migrate_precopy("pm-mid")
    assert "imaginary" not in result.faults
    assert result.faults.get("fill-zero") == WORKLOADS["pm-mid"].zero_touch_pages


def test_default_dirty_rate_scales_with_write_intensity():
    fast = default_dirty_rate(WORKLOADS["minprog"])   # tiny compute_s
    slow = default_dirty_rate(WORKLOADS["chess"])     # 500 s of compute
    assert fast > slow


def test_stash_merge_prefers_freshest_page(bed):
    """Unit-level: a later round's page overwrites an earlier one, and
    the final RIMAS page overwrites both."""
    world = bed.world()
    manager = world.dest_manager
    old = Message(
        manager.port,
        OP_PRECOPY_ROUND,
        sections=[RegionSection({7: Page(b"old")}, force_copy=True)],
        meta={"process_name": "p"},
    )
    new = Message(
        manager.port,
        OP_PRECOPY_ROUND,
        sections=[RegionSection({7: Page(b"new"), 8: Page(b"eight")},
                                force_copy=True)],
        meta={"process_name": "p"},
    )
    manager._absorb_precopy_round(old)
    manager._absorb_precopy_round(new)
    assert manager._precopy_stash["p"][7].data[:3] == b"new"

    rimas = Message(
        manager.port,
        "migrate.rimas",
        sections=[RegionSection({7: Page(b"final")}, force_copy=True)],
        meta={"process_name": "p", "precopy": True},
    )
    manager._merge_precopy_stash("p", rimas)
    region = rimas.first_section(RegionSection)
    assert region.pages[7].data[:5] == b"final"
    assert region.pages[8].data[:5] == b"eight"
    assert "p" not in manager._precopy_stash

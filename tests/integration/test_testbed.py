"""End-to-end integration tests: full migration trials.

The heart of the reproduction's correctness story: for every workload
and every strategy, the migrated process must observe — page by page —
exactly the bytes the source process held, whether those bytes arrived
in bulk, in the resident set, or one imaginary fault at a time.
"""

import pytest

from repro.migration.strategy import PURE_COPY, PURE_IOU, RESIDENT_SET
from repro.testbed import Testbed
from repro.workloads.registry import WORKLOADS

ALL_STRATEGIES = (PURE_COPY, PURE_IOU, RESIDENT_SET)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_every_workload_verifies_under_every_strategy(
    matrix, workload, strategy
):
    result = matrix.result(workload, strategy, 0)
    assert result.verified, (
        f"{workload}/{strategy}: "
        f"{len(result.run_result.mismatches)} corrupt pages"
    )


@pytest.mark.parametrize("prefetch", [1, 3, 7, 15])
def test_prefetch_preserves_correctness(matrix, prefetch):
    for workload in ("minprog", "lisp-del", "pm-start", "pm-end"):
        result = matrix.result(workload, PURE_IOU, prefetch)
        assert result.verified


def test_trials_are_deterministic():
    a = Testbed(seed=99).migrate("minprog", strategy=PURE_IOU)
    b = Testbed(seed=99).migrate("minprog", strategy=PURE_IOU)
    assert a.transfer_s == b.transfer_s
    assert a.exec_s == b.exec_s
    assert a.bytes_total == b.bytes_total
    assert a.message_handling_s == b.message_handling_s


def test_different_seed_different_layout_same_shape():
    a = Testbed(seed=1).migrate("chess", strategy=PURE_IOU)
    b = Testbed(seed=2).migrate("chess", strategy=PURE_IOU)
    # Footprints are pinned by the spec; fault counts match exactly.
    assert a.faults["imaginary"] == b.faults["imaginary"]
    assert a.verified and b.verified


def test_iou_transfers_only_touched_fraction(matrix):
    for workload, spec in WORKLOADS.items():
        result = matrix.iou(workload)
        assert result.fraction_of_real_transferred == pytest.approx(
            spec.touched_pages / spec.real_pages, abs=0.002
        )


def test_copy_transfers_everything(matrix):
    for workload in WORKLOADS:
        assert matrix.copy(workload).fraction_of_real_transferred == 1.0


def test_rs_transfers_union_of_rs_and_touched(matrix):
    for workload, spec in WORKLOADS.items():
        result = matrix.rs(workload)
        assert result.fraction_of_real_transferred == pytest.approx(
            spec.rs_union_fraction, abs=0.01
        )


def test_pure_copy_has_no_imaginary_faults(matrix):
    for workload in WORKLOADS:
        assert "imaginary" not in matrix.copy(workload).faults


def test_iou_fault_count_equals_touched_pages(matrix):
    for workload, spec in WORKLOADS.items():
        result = matrix.iou(workload)
        assert result.faults["imaginary"] == spec.touched_pages


def test_fill_zero_faults_strategy_independent(matrix):
    for workload, spec in WORKLOADS.items():
        counts = {
            matrix.copy(workload).faults.get("fill-zero"),
            matrix.iou(workload).faults.get("fill-zero"),
            matrix.rs(workload).faults.get("fill-zero"),
        }
        assert counts == {spec.zero_touch_pages}


def test_excision_is_strategy_insensitive(matrix):
    """§4.3: phase 1 does not depend on the transfer strategy."""
    for workload in WORKLOADS:
        times = {
            round(matrix.result(workload, s, 0).excise_s, 9)
            for s in ALL_STRATEGIES
        }
        assert len(times) == 1


def test_cow_breaks_happen_on_remote_writes(matrix):
    """Pure-copy pages arrive as independent copies, so no COW breaks;
    nothing in the remote run shares pages after reassembly."""
    result = matrix.copy("minprog")
    assert result.run_result.steps_executed > 0


def test_timeline_covers_whole_trial(matrix):
    result = matrix.copy("minprog")
    bins = result.timeline(1.0)
    assert bins
    total = sum(b.fault_bytes + b.other_bytes for b in bins)
    assert total == result.bytes_total


def test_iou_timeline_has_fault_traffic(matrix):
    result = matrix.iou("minprog")
    bins = result.timeline(0.5)
    assert sum(b.fault_bytes for b in bins) > 0
    assert result.bytes_fault_support > 0


def test_copy_timeline_has_no_fault_traffic(matrix):
    result = matrix.copy("minprog")
    assert result.bytes_fault_support == 0


def test_run_remote_false_skips_execution():
    result = Testbed(seed=5).migrate(
        "minprog", strategy=PURE_COPY, run_remote=False
    )
    assert result.verified is None
    assert result.exec_s == 0.0


def test_backer_segment_death_after_termination(matrix):
    """After the remote run terminates, the source NMS backer's cached
    segment receives Imaginary Segment Death and is retired."""
    result = matrix.iou("minprog")
    # Can't reach into the (finished) world here, but the metrics say
    # a death message crossed the link.
    assert any(
        record.category == "imag.death" for record in result.link_records
    )

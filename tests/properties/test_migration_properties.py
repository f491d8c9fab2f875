"""Property-based end-to-end migration: random miniature workloads.

Generates small synthetic workload specs (random footprints, localities
and overlaps), migrates them under every strategy and random prefetch,
and asserts the pipeline invariants: every touched page verifies, byte
conservation holds, and the strategies ship what they promise.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accent.constants import PAGE_SIZE
from repro.migration.strategy import PURE_COPY, PURE_IOU, RESIDENT_SET
from repro.testbed import Testbed
from repro.workloads.spec import Locality, WorkloadSpec


@st.composite
def tiny_spec(draw):
    real_pages = draw(st.integers(4, 40))
    zero_pages = draw(st.integers(real_pages + 2, 3 * real_pages + 8))
    total_pages = real_pages + zero_pages
    rs_pages = draw(st.integers(1, real_pages))
    touched_fraction = draw(
        st.floats(0.1, 1.0, allow_nan=False, allow_infinity=False)
    )
    touched_pages = max(1, round(touched_fraction * real_pages))
    max_overlap = min(rs_pages, touched_pages)
    overlap = draw(st.integers(0, max_overlap))
    union = rs_pages + touched_pages - overlap
    if union > real_pages:
        union = real_pages
    runs = draw(st.integers(1, max(1, min(real_pages, zero_pages - 1))))
    return WorkloadSpec(
        name=f"tiny-{real_pages}-{rs_pages}-{runs}",
        description="hypothesis-generated miniature workload",
        real_bytes=real_pages * PAGE_SIZE,
        total_bytes=total_pages * PAGE_SIZE,
        resident_bytes=rs_pages * PAGE_SIZE,
        touched_fraction=touched_pages / real_pages,
        rs_union_fraction=union / real_pages,
        real_runs=runs,
        map_entries=draw(st.integers(1, 50)),
        locality=draw(st.sampled_from(list(Locality))),
        compute_s=draw(st.floats(0.0, 2.0, allow_nan=False)),
        zero_touch_pages=draw(st.integers(0, 5)),
    )


@given(
    tiny_spec(),
    st.sampled_from([PURE_COPY, PURE_IOU, RESIDENT_SET]),
    st.integers(0, 15),
    st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_random_workloads_migrate_and_verify(spec, strategy, prefetch, seed):
    result = Testbed(seed=seed).migrate(
        spec, strategy=strategy, options={"prefetch": prefetch}
    )
    assert result.verified, result.run_result.mismatches
    # Phase ordering always holds.
    assert result.excise_s > 0
    assert result.transfer_s > 0
    assert result.insert_s > 0
    # What crossed the wire never exceeds what exists, and pure-copy
    # ships everything.  Sections at or below the NMS cache threshold
    # ship physically even under the lazy strategies.
    from repro.net.netmsgserver import NetMsgServer

    threshold = NetMsgServer.IOU_CACHE_THRESHOLD_BYTES
    assert result.pages_transferred <= spec.real_pages
    if strategy == PURE_COPY:
        assert result.pages_bulk == spec.real_pages
        assert "imaginary" not in result.faults
    if strategy == PURE_IOU and prefetch == 0:
        if spec.real_bytes > threshold:
            assert result.pages_demand == spec.touched_pages
            assert result.pages_bulk == 0
        else:
            assert result.pages_bulk == spec.real_pages
    if strategy == RESIDENT_SET:
        owed_bytes = spec.real_bytes - spec.resident_bytes
        if owed_bytes > threshold:
            assert result.pages_bulk == spec.resident_pages
        else:
            assert result.pages_bulk == spec.real_pages


@given(tiny_spec(), st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_strategy_transfer_ordering_holds_for_random_workloads(spec, seed):
    """IOU transfer is never slower than RS, which never beats copy by
    being bigger: the Table 4-5 ordering is structural, not tuned."""
    bed = Testbed(seed=seed)
    iou = bed.migrate(spec, strategy=PURE_IOU)
    rs = bed.migrate(spec, strategy=RESIDENT_SET)
    copy = bed.migrate(spec, strategy=PURE_COPY)
    assert iou.transfer_s <= rs.transfer_s + 1e-9
    assert rs.transfer_s <= copy.transfer_s * 1.5 + spec.real_pages * 0.003 + 1.0
    # Byte savings require the paper's premise — touching only part of
    # the space; demand-fetching everything costs per-fault overhead.
    if spec.touched_fraction <= 0.5 and spec.real_bytes > 4096:
        assert iou.bytes_total <= copy.bytes_total

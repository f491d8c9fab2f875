"""Unit tests for layout generation and page-set selection."""

import dataclasses
import hashlib
import json
import random

import pytest

from repro.workloads.layout import (
    _select_zero_touches,
    make_layout,
    partition,
)
from repro.workloads.registry import WORKLOADS
from repro.workloads.spec import Locality
from repro.workloads.trace import build_trace


@pytest.fixture(params=["minprog", "pm-start", "chess", "lisp-t"])
def spec(request):
    return WORKLOADS[request.param]


def layout_for(spec, seed=3):
    return make_layout(spec, random.Random(seed))


# -------------------------------------------------------------- partition --
def test_partition_sums_and_minimum():
    rng = random.Random(1)
    sizes = partition(100, 7, rng)
    assert sum(sizes) == 100
    assert len(sizes) == 7
    assert all(size >= 1 for size in sizes)


def test_partition_exact_fit():
    sizes = partition(5, 5, random.Random(0))
    assert sizes == [1, 1, 1, 1, 1]


def test_partition_single_part():
    assert partition(42, 1, random.Random(0)) == [42]


def test_partition_impossible_raises():
    with pytest.raises(ValueError):
        partition(3, 5, random.Random(0))
    with pytest.raises(ValueError):
        partition(3, 0, random.Random(0))


def test_partition_deterministic():
    assert partition(1000, 9, random.Random(4)) == partition(
        1000, 9, random.Random(4)
    )


# ------------------------------------------------------------------ plans --
def test_plan_page_counts_match_spec(spec):
    plan = layout_for(spec)
    assert len(plan.real_indices) == spec.real_pages
    assert len(plan.touched_order) == spec.touched_pages
    assert len(plan.resident) == spec.resident_pages
    assert len(plan.zero_touches) == spec.zero_touch_pages


def test_plan_run_count_matches_spec(spec):
    plan = layout_for(spec)
    runs = 1
    for prev, cur in zip(plan.real_indices, plan.real_indices[1:]):
        if cur != prev + 1:
            runs += 1
    assert runs == spec.real_runs


def test_real_indices_sorted_and_unique(spec):
    plan = layout_for(spec)
    assert list(plan.real_indices) == sorted(set(plan.real_indices))


def test_touched_and_resident_are_real_pages(spec):
    plan = layout_for(spec)
    real = set(plan.real_indices)
    assert set(plan.touched_order) <= real
    assert plan.resident <= real


def test_touched_order_has_no_duplicates(spec):
    plan = layout_for(spec)
    assert len(plan.touched_order) == len(set(plan.touched_order))


def test_zero_touches_are_outside_real_pages(spec):
    plan = layout_for(spec)
    real = set(plan.real_indices)
    region_first = plan.region_start // 512
    region_last = region_first + spec.total_pages - 1
    for index in plan.zero_touches:
        assert index not in real
        assert region_first <= index <= region_last


def test_overlap_matches_table_4_3(spec):
    plan = layout_for(spec)
    overlap = len(plan.touched & plan.resident)
    assert overlap == min(spec.touched_in_rs_pages, spec.touched_pages)


def test_sequential_order_is_ascending():
    plan = layout_for(WORKLOADS["pm-start"])
    order = plan.touched_order
    # The bulk of the sweep ascends (a small tail of skipped pages may
    # be appended when the sweep exhausts the space).
    ascending = sum(1 for a, b in zip(order, order[1:]) if b > a)
    assert ascending >= 0.95 * (len(order) - 1)


def test_scattered_order_is_not_ascending():
    plan = layout_for(WORKLOADS["lisp-t"])
    order = plan.touched_order
    ascending = sum(1 for a, b in zip(order, order[1:]) if b == a + 1)
    assert ascending < 0.6 * (len(order) - 1)


def test_layout_deterministic_per_seed():
    a = layout_for(WORKLOADS["chess"], seed=9)
    b = layout_for(WORKLOADS["chess"], seed=9)
    assert a.real_indices == b.real_indices
    assert a.touched_order == b.touched_order
    assert a.resident == b.resident


def test_layout_varies_with_seed():
    a = layout_for(WORKLOADS["chess"], seed=1)
    b = layout_for(WORKLOADS["chess"], seed=2)
    assert a.touched_order != b.touched_order


def test_touched_set_is_computed_once():
    # Rebuilt on every access, each `x in plan.touched` costs O(touched).
    plan = layout_for(WORKLOADS["lisp-t"])
    assert plan.touched is plan.touched
    assert plan.touched == set(plan.touched_order)


def test_zero_touches_survive_a_plan_copy():
    spec = WORKLOADS["minprog"]
    copy = dataclasses.replace(layout_for(spec))
    _select_zero_touches(spec, random.Random(5), copy)
    assert len(copy.zero_touches) == spec.zero_touch_pages


# ------------------------------------------------------------ pinned draws --
def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def layout_and_trace_digests(name, seed):
    """Digests of one spec's layout and trace, drawn as the builder does."""
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    plan = make_layout(spec, rng)
    trace = build_trace(spec, plan, rng)
    layout = {
        "real_indices": list(plan.real_indices),
        "touched_order": list(plan.touched_order),
        "resident": sorted(plan.resident),
        "recent": sorted(plan.recent),
        "zero_touches": list(plan.zero_touches),
    }
    steps = [list(step) for step in trace.steps]
    return digest(layout), digest(steps)


#: (layout digest, trace digest) per (spec, seed).  Any change to the
#: order or number of RNG draws in layout or trace generation moves
#: these, so a rewrite cannot silently reshape every workload.
PINNED_DRAWS = {
    ("minprog", 1987): (
        "85bd42d0f32ee16c56ef9eb59cbb27021f7b9fc06e5aba5a6e173ded175cc3e0",
        "b541bbb7b485832e2b5a65ef9bd480fbfdd21f8c2aa166adbe6e28ffa46c08e3",
    ),
    ("minprog", 3): (
        "80a7aa33dc0a24751e36d406ea9e37ff49b68acaab9e291a5a6da6c86d68797f",
        "8f60db777d7c4f3ab04bb9f00a26b5dfb4fccbb3604f966c067f4900399d27c4",
    ),
    ("lisp-t", 1987): (
        "d8e7855caee93a8e2b7c3d9f7a39bdbe8e5ed9dd4fbf022e489259d6568cb283",
        "3ec50044ed450868291379686ceb8b52aba818845a20ab77e82e6a18aef7a0df",
    ),
    ("lisp-t", 3): (
        "925392a19bf06cdd3eb29723dd17f64d3556dfca4e9f520321fc59aa765003ff",
        "5d99b008515dcbc83b8c69f5242437b35c0b190dc88863766d9b9ec4f8dcb22a",
    ),
    ("lisp-del", 1987): (
        "e6426753ce9aac815af2155089a7e24206f0ea8aba58fca32de0955719eeeca4",
        "95773e64f2e55ecc69ff5739e2d16183fb887f0cc7badb64d21465c133681c96",
    ),
    ("lisp-del", 3): (
        "460862af07eb22ffea2296777c4a92c444dcfb1a7be42bc21abeabe7b965e557",
        "c4b63024774a658efcb2fa072cd134eac2f584139603d433f5321c6334f78be5",
    ),
    ("pm-start", 1987): (
        "57e3745dfe1325bfc14a0b7c45cc10865bbbd1e7adbfd89b2e39832254efd1f6",
        "09386bea4dc3292845af2d9684152a76b118aa2385691613911942b6fcac777c",
    ),
    ("pm-start", 3): (
        "215cd5971687394f280e57a4f4eeba4b905a066077ddb4488ce9a84f6df85dd9",
        "d99acbdb92fb88a9dbb00201719aadfa7c3e4fccadf82aca5e7d5efd2968fe6a",
    ),
    ("pm-mid", 1987): (
        "214ccb15ef322858bb63f6243d7566880d318cf6a61f20828b7762d942feba6f",
        "7c73240e9152316aab9a7bb42cb9fd43ec4e2656806d4046269c6adaf490c39d",
    ),
    ("pm-mid", 3): (
        "6abe35e8650cb7fcbd31fefb020a83b472c676c13493084eb7381a369fe62019",
        "cf2dcb25ae5b083ec6d53a2206847209ebf878a103839863d7e52283ba9768ba",
    ),
    ("pm-end", 1987): (
        "37ff739295f8e738c26dd10313bb491f9730c992d7e87e06d79efe2564d4257d",
        "4db6df9661d98397d54b9ac705bbb0a3c5b88ee74ebb2455f0a75927496f786a",
    ),
    ("pm-end", 3): (
        "71868a94bca18ac6644b14915f4c847c1a919b353afb416522959821a49fe9b9",
        "c382ca25a5c0c65fbc2aac7835cd9fee9f08e00ebf2b74cccc6d99466cc94c25",
    ),
    ("chess", 1987): (
        "5943e603d66dfbbcc0a1000794a1bde96668f6bc6937e1217c67c2cec3541f85",
        "82343a5176980a036e9c379833a066e2d2a13bab42ad6ed200f8ceade0d192a0",
    ),
    ("chess", 3): (
        "7cf9c9d4afc6b42dbc79f94d6e435fd64521457b05c2d5fa9adfca80b8101b95",
        "f0a1db715d9e5744856c4ecd1872270befd2647827957d77185b87d775d0a913",
    ),
}


@pytest.mark.parametrize("name, seed", sorted(PINNED_DRAWS))
def test_layout_and_trace_draws_are_pinned(name, seed):
    assert layout_and_trace_digests(name, seed) == PINNED_DRAWS[name, seed]


def test_every_workload_has_pinned_draws():
    assert {name for name, _ in PINNED_DRAWS} == set(WORKLOADS)

"""Unit tests for trace generation, content and the builder."""

import hashlib
import json
import random

import pytest

from repro.accent.constants import PAGE_SIZE
from repro.accent.vm.address_space import Residency
from repro.sim import SeededStreams
from repro.testbed import Testbed
from repro.workloads.builder import build_process
from repro.workloads.content import (
    WRITE_MARKER,
    page_head,
    page_payload,
    written_head,
)
from repro.workloads.layout import make_layout
from repro.workloads.registry import WORKLOADS
from repro.workloads.trace import build_trace


# ---------------------------------------------------------------- content --
def test_page_payload_is_deterministic_and_distinct():
    assert page_payload("w", 1) == page_payload("w", 1)
    assert page_payload("w", 1) != page_payload("w", 2)
    assert page_payload("w", 1) != page_payload("x", 1)
    assert len(page_payload("w", 1)) == PAGE_SIZE


def test_page_head_prefixes_payload():
    assert page_payload("w", 5).startswith(page_head("w", 5))


def test_written_head_carries_marker():
    head = written_head("w", 3)
    assert head.startswith(WRITE_MARKER)
    assert len(head) == len(page_head("w", 3))


# ------------------------------------------------------------------ trace --
def trace_for(name):
    spec = WORKLOADS[name]
    rng = random.Random(13)
    plan = make_layout(spec, rng)
    return spec, plan, build_trace(spec, plan, rng)


def test_trace_covers_touched_pages_exactly():
    spec, plan, trace = trace_for("minprog")
    assert trace.touched_real_pages() == plan.touched
    assert len(trace.real_steps) == spec.touched_pages


def test_trace_includes_zero_touches():
    spec, plan, trace = trace_for("minprog")
    zero_steps = trace.zero_steps
    assert len(zero_steps) == spec.zero_touch_pages
    assert {s.page_index for s in zero_steps} == set(plan.zero_touches)


def test_trace_compute_slice():
    spec, plan, trace = trace_for("chess")
    assert trace.compute_slice_s * len(trace) == pytest.approx(spec.compute_s)


def test_trace_has_writes_and_reads():
    spec, plan, trace = trace_for("pm-start")
    writes = [s for s in trace.real_steps if s.write]
    assert 0 < len(writes) < len(trace.real_steps)
    ratio = len(writes) / len(trace.real_steps)
    assert ratio == pytest.approx(spec.write_fraction, abs=0.1)


# ---------------------------------------------------------------- builder --
@pytest.fixture
def world():
    return Testbed(seed=31).world()


def test_builder_materialises_footprint(world):
    spec = WORKLOADS["minprog"]
    built = build_process(world.source, spec, world.streams)
    space = built.process.space
    assert space.real_bytes == spec.real_bytes
    assert space.total_bytes == spec.total_bytes
    assert space.resident_bytes() == spec.resident_bytes
    assert len(space.real_runs()) == spec.real_runs


def test_builder_places_nonresident_pages_on_disk(world):
    spec = WORKLOADS["minprog"]
    built = build_process(world.source, spec, world.streams)
    space = built.process.space
    for index in built.plan.real_indices:
        entry = space.entry(index)
        if index in built.plan.resident:
            assert entry.residency is Residency.RESIDENT
            assert (space.space_id, index) in world.source.physical
        else:
            assert entry.residency is Residency.ON_DISK
            assert world.source.disk.holds(space.space_id, index)


def test_builder_writes_verifiable_contents(world):
    spec = WORKLOADS["minprog"]
    built = build_process(world.source, spec, world.streams)
    space = built.process.space
    for index in built.plan.real_indices[:10]:
        expected = page_payload(spec.name, index)
        assert space.peek(index * PAGE_SIZE, PAGE_SIZE) == expected


def test_builder_registers_process_with_rights(world):
    built = build_process(world.source, WORKLOADS["chess"], world.streams)
    process = built.process
    assert world.source.kernel.lookup("chess") is process
    assert len(process.port_rights) == 2
    assert process.map_entries == WORKLOADS["chess"].map_entries
    assert process.blueprint == "chess"


def test_builder_is_deterministic():
    world_a = Testbed(seed=31).world()
    world_b = Testbed(seed=31).world()
    a = build_process(world_a.source, WORKLOADS["chess"], world_a.streams)
    b = build_process(world_b.source, WORKLOADS["chess"], world_b.streams)
    assert a.plan.real_indices == b.plan.real_indices
    assert [s.page_index for s in a.trace.steps] == [
        s.page_index for s in b.trace.steps
    ]


def test_builder_lisp_is_fast_despite_4gb(world):
    """Building a 4 GB Lisp space must not materialise 8M pages."""
    import time

    start = time.time()
    built = build_process(world.source, WORKLOADS["lisp-t"], world.streams)
    assert time.time() - start < 5.0
    assert built.process.space.total_bytes == 4_228_129_280


def page_table_digest(name, seed):
    """Digest of a freshly built process: page table and frame order."""
    world = Testbed(seed=seed).world()
    built = build_process(world.source, WORKLOADS[name], world.streams)
    space = built.process.space
    pages = [
        [index, entry.residency.value, repr(entry.last_touch)]
        for index, entry in sorted(space.page_table.items())
    ]
    frames = [
        index for _, index in world.source.physical.resident_keys(
            space.space_id
        )
    ]
    text = json.dumps(
        {"pages": pages, "frames": frames},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(text.encode()).hexdigest()


#: Pins every builder draw: which pages are resident, each page's
#: pre-migration ``last_touch`` and the physical-LRU insertion order.
PINNED_PAGE_TABLES = {
    ("minprog", 1987):
        "46ed21d7d28b568f1567900acaf4bd93b80b80604f04d773d84852f23f0923a1",
    ("minprog", 31):
        "437f0355f824ebfef9dea54e2a29d90688c6c2d5a93a5c5c0e31b848157f2cd7",
    ("lisp-t", 1987):
        "8786cbdda1b76b08596c49aabb4e272a088fd23bac69b09dbc1471c1f3811885",
    ("lisp-t", 31):
        "8d7405318023d0fd6ac9fa1606781275b86fcbafb864ed6eacffe1c14f37d496",
    ("lisp-del", 1987):
        "a5a036205b1c509e5bb0ffc80edddfdb9a57b0e485b70160c70e539dc82e0ada",
    ("lisp-del", 31):
        "0a8a1983cd3d172db8d992b9e6dc5d1548366bf5ccfb0f6f26b80455da03c2be",
    ("pm-start", 1987):
        "62f298f461298cbc8719ad4587467cf88d7de1b8317961e51964a3f939214bae",
    ("pm-start", 31):
        "0db6af6d9f59a4418e3b07bbcd06e7c4e600a12fae87caedcee1aadd5bf9d91d",
    ("pm-mid", 1987):
        "e44f6de7d5aa44026ef77b60a1167c3ebd783d1bb0d9fd854289b8721564b69e",
    ("pm-mid", 31):
        "9d7918549e7f72b3c096558cb03370099d557089040ee98b27816684df84681b",
    ("pm-end", 1987):
        "928fedd0e7a4ae25bfe3823667b570c2fee703c0e83325e888468801b9db98ce",
    ("pm-end", 31):
        "eeaf642fd3b86005d473c9a8ed61f9a5caf8a9d33beccad3ddd55b5184032703",
    ("chess", 1987):
        "af28c645c73b4d292f0bbb897701d62bfaea9a53f3d01c69845e7276777f437b",
    ("chess", 31):
        "0a339e6b98a1146409ccdb5bf5e8e9b20af12970ad2d2b825beef6444cd842b1",
}


@pytest.mark.parametrize("name, seed", sorted(PINNED_PAGE_TABLES))
def test_builder_page_table_is_pinned(name, seed):
    assert page_table_digest(name, seed) == PINNED_PAGE_TABLES[name, seed]

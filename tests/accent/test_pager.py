"""Unit tests for the Pager/Scheduler fault paths."""

import pytest

from repro.accent.constants import PAGE_SIZE
from repro.accent.ipc.message import InlineSection, Message, RegionSection
from repro.accent.pager import (
    OP_IMAG_READ_REPLY,
    OP_IMAG_READ_REPLY_PART,
    PagerError,
)
from repro.accent.vm.address_space import AddressSpace, Residency
from repro.accent.vm.page import Page
from repro.cor.backer import BackingServer
from repro.cor.imaginary import ImaginaryHandle
from repro.faults import FaultPlan
from repro.testbed import Testbed
from repro.workloads.content import page_payload


def make_space(host, pages=16):
    space = AddressSpace(name="pager-test")
    space.validate(0, pages * PAGE_SIZE)
    host.register_space(space)
    return space


def run(world, generator):
    proc = world.engine.process(generator)
    return world.engine.run(until=proc)


def test_fill_zero_fault_installs_zero_page(world):
    space = make_space(world.source)
    pager = world.source.pager

    run(world, pager.fill_zero_fault(space, 3))
    entry = space.entry(3)
    assert entry.residency is Residency.RESIDENT
    assert entry.page.data == bytes(PAGE_SIZE)
    assert world.engine.now == pytest.approx(world.calibration.fill_zero_s)
    assert world.metrics.faults["fill-zero"] == 1


def test_fill_zero_never_touches_disk(world):
    space = make_space(world.source)
    run(world, world.source.pager.fill_zero_fault(space, 0))
    assert world.source.disk.reads == 0


def test_disk_fault_costs_40_8_ms(world):
    """pager overhead + disk service + map-in = the paper's 40.8 ms."""
    space = make_space(world.source)
    page = Page(b"ondisk")
    space.install_page(5, page, Residency.ON_DISK)
    world.source.disk.store_instant(space.space_id, 5, page)

    run(world, world.source.pager.disk_fault(space, 5))
    assert space.entry(5).residency is Residency.RESIDENT
    assert world.engine.now == pytest.approx(0.0408, rel=1e-6)
    assert world.metrics.faults["disk"] == 1


def test_imaginary_fault_fetches_from_backer(world):
    """A local backing server delivers an owed page through IPC."""
    backer = BackingServer(world.source, prefetch=0)
    stash = {4: Page(page_payload("w", 4)), 5: Page(page_payload("w", 5))}
    segment = backer.create_segment(stash)

    space = AddressSpace(name="imag-test")
    space.map_imaginary(0, 8 * PAGE_SIZE, segment.handle)
    world.source.register_space(space)

    mapping = space.region_at(4 * PAGE_SIZE)
    run(world, world.source.pager.imaginary_fault(space, 4, mapping))

    entry = space.entry(4)
    assert entry is not None
    assert entry.page.data == page_payload("w", 4)
    assert space.entry(5) is None  # prefetch off
    assert world.metrics.faults["imaginary"] == 1
    assert 4 not in segment.owed
    assert 5 in segment.owed


def test_imaginary_fault_with_prefetch_installs_companions(world):
    backer = BackingServer(world.source, prefetch=2)
    stash = {i: Page(page_payload("w", i)) for i in range(4, 10)}
    segment = backer.create_segment(stash)

    space = AddressSpace(name="imag-prefetch")
    space.map_imaginary(0, 16 * PAGE_SIZE, segment.handle)
    world.source.register_space(space)

    mapping = space.region_at(4 * PAGE_SIZE)
    run(world, world.source.pager.imaginary_fault(space, 4, mapping))

    assert space.entry(4) is not None and not space.entry(4).prefetched
    assert space.entry(5) is not None and space.entry(5).prefetched
    assert space.entry(6) is not None and space.entry(6).prefetched
    assert space.entry(7) is None
    assert world.metrics.prefetched_pages == 2


def test_concurrent_faults_on_same_page_are_deduplicated(world):
    backer = BackingServer(world.source, prefetch=0)
    segment = backer.create_segment({0: Page(b"shared")})
    space = AddressSpace(name="dedupe")
    space.map_imaginary(0, PAGE_SIZE, segment.handle)
    world.source.register_space(space)
    mapping = space.region_at(0)
    pager = world.source.pager

    done = []

    def faulter(tag):
        yield from pager.imaginary_fault(space, 0, mapping)
        done.append(tag)

    world.engine.process(faulter("a"))
    world.engine.process(faulter("b"))
    world.engine.run()
    assert sorted(done) == ["a", "b"]
    # Only one request reached the backer.
    assert segment.requests == 1
    assert world.metrics.faults["imaginary"] == 1


def test_eviction_pages_out_to_disk(world):
    """With a tiny frame pool, new pages push the LRU victim to disk."""
    world.source.physical.frame_count = 2
    space = make_space(world.source)
    pager = world.source.pager

    run(world, pager.fill_zero_fault(space, 0))
    run(world, pager.fill_zero_fault(space, 1))
    run(world, pager.fill_zero_fault(space, 2))

    assert space.entry(0).residency is Residency.ON_DISK
    assert world.source.disk.holds(space.space_id, 0)
    assert space.entry(1).residency is Residency.RESIDENT
    assert space.entry(2).residency is Residency.RESIDENT
    assert world.source.disk.writes == 1


def test_evicted_page_comes_back_via_disk_fault(world):
    world.source.physical.frame_count = 2
    space = make_space(world.source)
    pager = world.source.pager
    run(world, pager.fill_zero_fault(space, 0))
    space.page_table[0].page = space.page_table[0].page.write(0, b"v0")
    run(world, pager.fill_zero_fault(space, 1))
    run(world, pager.fill_zero_fault(space, 2))  # evicts page 0
    run(world, pager.disk_fault(space, 0))
    assert space.entry(0).residency is Residency.RESIDENT
    assert space.peek(0, 2) == b"v0"


@pytest.mark.parametrize(
    "shape", [(1, 1), (8, 4)], ids=["serial", "batched"]
)
def test_origin_miss_reply_raises_pager_error(world, shape):
    """The origin is the last source: a miss from it is a protocol
    error, not a fall-through, in the serial and the batched shape."""
    host = world.source
    port = host.create_port(name="stub-origin")

    def stub_origin():
        request = yield port.receive()
        meta = request.meta
        if "request_id" in meta:
            op = OP_IMAG_READ_REPLY_PART
            reply_meta = {"request_id": meta["request_id"], "part": 1,
                          "parts": 1, "miss": True}
        else:
            op = OP_IMAG_READ_REPLY
            reply_meta = {"fault_id": meta["fault_id"], "miss": True}
        host.kernel.post(Message(
            dest=request.reply_port, op=op,
            sections=[InlineSection(bytes(4))], meta=reply_meta,
        ))

    world.engine.process(stub_origin())
    space = AddressSpace(name="miss")
    space.map_imaginary(0, 4 * PAGE_SIZE, ImaginaryHandle(99, port))
    host.register_space(space)
    host.pager.batch, host.pager.pipeline = shape
    with pytest.raises(PagerError, match="miss"):
        run(world, host.pager.imaginary_fault(space, 1, space.region_at(0)))


def test_reply_part_landing_mid_install_is_not_waited_for_twice(world):
    """A batched reply part that lands while an earlier part installs
    fires the stream's wake-up with nobody waiting.  The fetch takes
    that part from the queue, and must still wait for the next one
    rather than resume on the spent wake-up."""
    host = world.source
    engine = world.engine
    port = host.create_port(name="stub-origin")

    def stub_origin():
        request = yield port.receive()
        for number, (index, gap) in enumerate(
            [(1, 0.0005), (2, 0.1), (3, 0.0)], start=1
        ):
            host.kernel.post(Message(
                dest=request.reply_port, op=OP_IMAG_READ_REPLY_PART,
                sections=[RegionSection({index: Page(bytes([index]))})],
                meta={"request_id": request.meta["request_id"],
                      "part": number, "parts": 3},
            ))
            yield engine.timeout(gap)

    engine.process(stub_origin())
    space = AddressSpace(name="parts")
    space.map_imaginary(0, 4 * PAGE_SIZE, ImaginaryHandle(99, port))
    host.register_space(space)
    host.pager.batch, host.pager.pipeline = 8, 4
    run(world, host.pager.imaginary_fault(space, 1, space.region_at(0)))
    engine.run()
    assert [space.entry(i).page.data[:1] for i in (1, 2, 3)] == [
        b"\x01", b"\x02", b"\x03"
    ]
    assert space.entry(3).prefetched


def _post_unmatched_reply(world):
    host = world.source
    host.kernel.post(Message(
        dest=host.pager.reply_port, op=OP_IMAG_READ_REPLY,
        sections=[InlineSection(bytes(4))], meta={"fault_id": "no-such"},
    ))
    world.engine.run()
    return host


def test_unmatched_reply_is_a_protocol_error_on_a_perfect_net(world):
    with pytest.raises(PagerError, match="unmatched imaginary reply"):
        _post_unmatched_reply(world)


def test_unmatched_reply_counts_as_stale_under_a_fault_plan():
    """With faults on, a reply can outlast its request's deadline: the
    reply loop counts it and keeps serving."""
    world = Testbed(seed=42, faults=FaultPlan.from_dict({})).world()
    host = _post_unmatched_reply(world)
    stale = world.obs.registry.counter(
        "stale_replies_total", labels=("host",)
    )
    assert stale.value(host=host.name) == 1
    _post_unmatched_reply(world)
    assert stale.value(host=host.name) == 2

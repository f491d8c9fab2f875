"""Unit tests for the kernel: touch path, send path, registration."""

import pytest

from repro.accent.constants import PAGE_SIZE
from repro.accent.ipc.message import InlineSection, Message, RegionSection
from repro.accent.ipc.port import PortRight, RECEIVE, SEND
from repro.accent.kernel import AddressingError, KernelError
from repro.accent.process import AccentProcess
from repro.accent.vm.address_space import AddressSpace, Residency
from repro.accent.vm.page import Page
from repro.cor.backer import BackingServer


def make_process(host, name="proc", pages=16):
    space = AddressSpace(name=name)
    space.validate(0, pages * PAGE_SIZE)
    process = AccentProcess(name=name, space=space, map_entries=10)
    host.kernel.register(process)
    return process


def run(world, generator):
    proc = world.engine.process(generator)
    return world.engine.run(until=proc)


# ----------------------------------------------------------- registration --
def test_register_sets_host_and_space(world):
    process = make_process(world.source)
    assert process.host is world.source
    assert world.source.kernel.lookup("proc") is process
    assert world.source.space_by_id(process.space.space_id) is process.space


def test_register_duplicate_name_rejected(world):
    make_process(world.source)
    with pytest.raises(KernelError):
        make_process(world.source)


def test_register_moves_receive_right_home(world):
    port = world.dest.create_port(name="wanderer")
    space = AddressSpace(name="r")
    space.validate(0, PAGE_SIZE)
    process = AccentProcess(
        name="r", space=space, port_rights=[PortRight(port, RECEIVE)]
    )
    world.source.kernel.register(process)
    assert port.home_host is world.source


def test_lookup_unknown_raises(world):
    with pytest.raises(KernelError):
        world.source.kernel.lookup("ghost")


# ----------------------------------------------------------------- touch --
def test_touch_resident_page_is_free(world):
    process = make_process(world.source)
    space = process.space
    space.install_page(0, Page(b"data"))
    world.source.physical.allocate(space.space_id, 0)
    assert world.source.kernel.touch(process, 0) is None
    assert world.engine.now == 0.0


def test_touch_zero_page_fill_zero_faults(world):
    process = make_process(world.source)
    cost = world.source.kernel.touch(process, 2)
    assert cost is not None
    run(world, cost)
    assert process.space.has_page(2)
    assert world.metrics.faults["fill-zero"] == 1


def test_touch_on_disk_page_disk_faults(world):
    process = make_process(world.source)
    space = process.space
    page = Page(b"x")
    space.install_page(1, page, Residency.ON_DISK)
    world.source.disk.store_instant(space.space_id, 1, page)
    run(world, world.source.kernel.touch(process, 1))
    assert space.residency(1) is Residency.RESIDENT
    assert world.metrics.faults["disk"] == 1


def test_touch_bad_mem_raises_addressing_error(world):
    process = make_process(world.source, pages=4)
    cost = world.source.kernel.touch(process, 100)
    with pytest.raises(AddressingError):
        world.engine.run(until=world.engine.process(cost))


def test_write_touch_on_shared_page_breaks_cow(world):
    process = make_process(world.source)
    space = process.space
    page = Page(b"shared")
    page.share()  # simulate another mapping
    space.install_page(0, page)
    world.source.physical.allocate(space.space_id, 0)
    cost = world.source.kernel.touch(process, 0, write=True)
    assert cost is not None
    run(world, cost)
    assert world.source.kernel.stats.cow_breaks == 1
    assert world.engine.now == pytest.approx(world.calibration.cow_break_s)


def test_read_touch_on_shared_page_no_cow(world):
    process = make_process(world.source)
    page = Page(b"shared")
    page.share()
    process.space.install_page(0, page)
    world.source.physical.allocate(process.space.space_id, 0)
    assert world.source.kernel.touch(process, 0, write=False) is None


def test_touch_prefetched_page_counts_hit(world):
    process = make_process(world.source)
    space = process.space
    space.install_page(0, Page())
    world.source.physical.allocate(space.space_id, 0)
    space.mark_prefetched(0)
    world.source.kernel.touch(process, 0)
    assert world.metrics.prefetch_hits == 1
    assert not space.prefetched(0)
    # A second touch does not double-count.
    world.source.kernel.touch(process, 0)
    assert world.metrics.prefetch_hits == 1


# ------------------------------------------------------------------ send --
def test_local_send_delivers_to_queue(world):
    port = world.source.create_port(name="inbox")
    message = Message(port, "ping", sections=[InlineSection(b"x")])
    run(world, world.source.kernel.send(message))
    assert port.queue.try_get() is message
    assert world.engine.now == pytest.approx(world.calibration.ipc_local_s)


def test_remote_send_routes_through_nms(world):
    port = world.dest.create_port(name="remote-inbox")
    message = Message(port, "ping", sections=[InlineSection(b"x")])
    run(world, world.source.kernel.send(message))
    delivered = port.queue.try_get()
    assert delivered is not None
    assert delivered.op == "ping"
    assert world.metrics.total_link_bytes > 0


def test_send_accounts_mapped_vs_copied(world):
    port = world.source.create_port()
    big = RegionSection({i: Page() for i in range(8)})  # 4 KB > threshold
    small = RegionSection({0: Page()})  # 512 B <= threshold
    run(world, world.source.kernel.send(Message(port, "big", sections=[big])))
    run(world, world.source.kernel.send(Message(port, "small", sections=[small])))
    stats = world.source.kernel.stats
    assert stats.mapped_bytes == 8 * PAGE_SIZE
    assert stats.copied_bytes == PAGE_SIZE
    assert stats.messages == 2


def test_mapped_send_shares_pages_cow(world):
    port = world.source.create_port()
    pages = {i: Page() for i in range(8)}
    section = RegionSection(pages)
    run(world, world.source.kernel.send(Message(port, "m", sections=[section])))
    assert all(page.refs == 2 for page in pages.values())


def test_copied_send_forks_pages(world):
    port = world.source.create_port()
    original = Page(b"orig")
    section = RegionSection({0: original})
    run(world, world.source.kernel.send(Message(port, "m", sections=[section])))
    assert original.refs == 1
    assert section.pages[0] is not original
    assert section.pages[0].data == original.data


def test_post_is_fire_and_forget(world):
    port = world.source.create_port()
    world.source.kernel.post(Message(port, "async", sections=[]))
    world.engine.run()
    assert len(port.queue) == 1


# ------------------------------------------------------------- terminate --
def test_terminate_notifies_backers_and_cleans_up(world):
    backer = BackingServer(world.source, prefetch=0)
    segment = backer.create_segment({0: Page(), 1: Page()})
    space = AddressSpace(name="t")
    space.map_imaginary(0, 2 * PAGE_SIZE, segment.handle)
    process = AccentProcess(name="t", space=space)
    world.source.kernel.register(process)

    run(world, world.source.kernel.terminate("t"))
    world.engine.run()  # drain the death message
    assert segment.dead
    assert segment.segment_id not in backer.segments
    assert backer.retired[0][3] == 2  # total pages recorded
    with pytest.raises(KernelError):
        world.source.kernel.lookup("t")

"""Unit tests for the ExciseProcess / InsertProcess kernel traps."""

import pytest

from repro.accent.constants import PAGE_SIZE
from repro.accent.ipc.message import (
    AMapSection,
    InlineSection,
    IOUSection,
    RegionSection,
    RightsSection,
)
from repro.accent.ipc.port import PortRight, RECEIVE, SEND
from repro.accent.kernel import KernelError
from repro.accent.process import AccentProcess, ProcessStatus
from repro.accent.vm.accessibility import IMAG_MEM, REAL_MEM, REAL_ZERO_MEM
from repro.accent.vm.address_space import AddressSpace, Residency
from repro.accent.vm.page import Page
from repro.cor.backer import BackingServer


def build_victim(world, name="victim", map_entries=10):
    """A process with real pages (some on disk), zero gaps and rights."""
    host = world.source
    space = AddressSpace(name=name)
    space.validate(0, 32 * PAGE_SIZE)
    contents = {}
    for index in (1, 2, 3, 8, 9, 20):
        page = Page(f"page-{index}".encode())
        contents[index] = page.data
        if index in (8, 9):
            space.install_page(index, page, Residency.ON_DISK)
            host.disk.store_instant(space.space_id, index, page)
        else:
            space.install_page(index, page, Residency.RESIDENT)
            host.physical.allocate(space.space_id, index)
    self_port = host.create_port(name=f"{name}-self")
    peer_port = host.create_port(name=f"{name}-peer")
    process = AccentProcess(
        name=name,
        space=space,
        port_rights=[PortRight(self_port, RECEIVE), PortRight(peer_port, SEND)],
        map_entries=map_entries,
        microstate=b"\x01" * 256,
    )
    host.kernel.register(process)
    return process, contents, self_port


def run(world, generator):
    proc = world.engine.process(generator)
    return world.engine.run(until=proc)


def test_excise_removes_process(world):
    process, _, _ = build_victim(world)
    run(world, world.source.kernel.excise_process("victim"))
    assert process.status is ProcessStatus.EXCISED
    assert process.host is None
    with pytest.raises(KernelError):
        world.source.kernel.lookup("victim")
    # Frames and disk images are released.
    assert world.source.physical.resident_keys(process.space.space_id) == []
    assert not world.source.disk.holds(process.space.space_id, 8)


def test_excise_core_message_contents(world):
    process, _, self_port = build_victim(world)
    core, rimas = run(world, world.source.kernel.excise_process("victim"))
    assert core.op == "migrate.core"
    assert core.meta["process_name"] == "victim"
    assert core.meta["map_entries"] == 10
    payload = core.first_section(InlineSection).payload
    assert payload[:256] == b"\x01" * 256
    assert len(payload) == 1024  # ~1 KB of non-space context (§3.1)
    rights = core.first_section(RightsSection).rights
    assert {r.port for r in rights} == {self_port, rights[1].port}
    amap = core.first_section(AMapSection).amap
    assert amap.real_bytes == 6 * PAGE_SIZE
    assert amap.total_bytes == 32 * PAGE_SIZE


def test_excise_rimas_carries_all_real_pages(world):
    process, contents, _ = build_victim(world)
    _, rimas = run(world, world.source.kernel.excise_process("victim"))
    region = rimas.first_section(RegionSection)
    assert sorted(region.pages) == [1, 2, 3, 8, 9, 20]
    for index, data in contents.items():
        assert region.pages[index].data == data
    assert rimas.meta["resident_indices"] == [1, 2, 3, 20]


def test_excise_charges_modelled_time(world):
    process, _, _ = build_victim(world, map_entries=100)
    runs = len(process.space.real_runs())
    run(world, world.source.kernel.excise_process("victim"))
    calibration = world.calibration
    expected = (
        calibration.excise_fixed_s
        + calibration.excise_amap_s(100)
        + calibration.excise_rimas_s(runs)
    )
    assert world.engine.now == pytest.approx(expected)


def test_insert_reconstructs_identical_space(world):
    process, contents, self_port = build_victim(world)
    original_total = process.space.total_bytes
    core, rimas = run(world, world.source.kernel.excise_process("victim"))

    reborn = run(world, world.dest.kernel.insert_process(core, rimas))
    assert reborn.name == "victim"
    assert reborn.status is ProcessStatus.RUNNABLE
    assert reborn.host is world.dest
    assert reborn.space.total_bytes == original_total
    assert reborn.space.real_bytes == 6 * PAGE_SIZE
    for index, data in contents.items():
        assert reborn.space.peek(index * PAGE_SIZE, len(data)) == data
    assert reborn.microstate == b"\x01" * 256


def test_insert_moves_receive_rights_to_new_host(world):
    _, _, self_port = build_victim(world)
    core, rimas = run(world, world.source.kernel.excise_process("victim"))
    run(world, world.dest.kernel.insert_process(core, rimas))
    assert self_port.home_host is world.dest


def test_insert_with_iou_section_maps_imaginary(world):
    """An IOU-substituted RIMAS reconstructs as imaginary mappings."""
    process, contents, _ = build_victim(world)
    core, rimas = run(world, world.source.kernel.excise_process("victim"))
    # Substitute the region section with an IOU (as the NMS would).
    backer = BackingServer(world.source, prefetch=0)
    region = rimas.first_section(RegionSection)
    segment = backer.create_segment(region.pages)
    rimas.sections[rimas.sections.index(region)] = IOUSection(
        segment.handle, region.pages.keys()
    )

    reborn = run(world, world.dest.kernel.insert_process(core, rimas))
    space = reborn.space
    assert space.real_bytes == 0
    assert space.imaginary_bytes == 6 * PAGE_SIZE
    assert space.accessibility(PAGE_SIZE) is IMAG_MEM
    assert space.accessibility(0) is REAL_ZERO_MEM

    # Touching an owed page now fetches it from the backer.
    run(world, world.dest.kernel.touch(reborn, 8))
    assert space.peek(8 * PAGE_SIZE, 6) == contents[8][:6]


def test_insert_mixed_shipped_and_owed(world):
    """RS-style RIMAS: some pages shipped, others owed."""
    process, contents, _ = build_victim(world)
    core, rimas = run(world, world.source.kernel.excise_process("victim"))
    region = rimas.first_section(RegionSection)
    backer = BackingServer(world.source, prefetch=0)
    shipped = {i: p for i, p in region.pages.items() if i in (1, 2, 3, 20)}
    owed = {i: p for i, p in region.pages.items() if i in (8, 9)}
    segment = backer.create_segment(owed)
    rimas.sections = [
        RegionSection(shipped, force_copy=True),
        IOUSection(segment.handle, owed.keys()),
    ]
    reborn = run(world, world.dest.kernel.insert_process(core, rimas))
    space = reborn.space
    assert space.real_bytes == 4 * PAGE_SIZE
    assert space.imaginary_bytes == 2 * PAGE_SIZE
    assert space.accessibility(2 * PAGE_SIZE) is REAL_MEM
    assert space.accessibility(8 * PAGE_SIZE) is IMAG_MEM


def test_insert_missing_page_raises(world):
    process, _, _ = build_victim(world)
    core, rimas = run(world, world.source.kernel.excise_process("victim"))
    region = rimas.first_section(RegionSection)
    del region.pages[8]  # lose a page
    with pytest.raises(KernelError, match="lost page 8"):
        run(world, world.dest.kernel.insert_process(core, rimas))


def test_insert_malformed_core_raises(world):
    process, _, _ = build_victim(world)
    core, rimas = run(world, world.source.kernel.excise_process("victim"))
    core.sections = [s for s in core.sections if not isinstance(s, AMapSection)]
    with pytest.raises(KernelError, match="malformed"):
        run(world, world.dest.kernel.insert_process(core, rimas))


def test_insert_charges_modelled_time(world):
    process, _, _ = build_victim(world, map_entries=50)
    runs = len(process.space.real_runs())
    core, rimas = run(world, world.source.kernel.excise_process("victim"))
    before = world.engine.now
    run(world, world.dest.kernel.insert_process(core, rimas))
    assert world.engine.now - before == pytest.approx(
        world.calibration.insert_s(runs, 50)
    )


def test_double_migration_round_trip(world):
    """Excise at source, insert at dest, excise again, insert at source:
    the process context survives a second hop with pages still intact
    (inherited IOUs are not needed because all pages were shipped)."""
    process, contents, _ = build_victim(world)
    core, rimas = run(world, world.source.kernel.excise_process("victim"))
    run(world, world.dest.kernel.insert_process(core, rimas))
    core2, rimas2 = run(world, world.dest.kernel.excise_process("victim"))
    reborn = run(world, world.source.kernel.insert_process(core2, rimas2))
    for index, data in contents.items():
        assert reborn.space.peek(index * PAGE_SIZE, len(data)) == data


def test_reexcise_with_outstanding_ious_inherits_them(world):
    """Excising a process that still owes pages produces inherited IOU
    sections pointing at the original backer (double-migration path)."""
    process, contents, _ = build_victim(world)
    core, rimas = run(world, world.source.kernel.excise_process("victim"))
    backer = BackingServer(world.source, prefetch=0)
    region = rimas.first_section(RegionSection)
    segment = backer.create_segment(region.pages)
    rimas.sections[rimas.sections.index(region)] = IOUSection(
        segment.handle, region.pages.keys()
    )
    reborn = run(world, world.dest.kernel.insert_process(core, rimas))
    # Touch one page so it becomes real at the destination.
    run(world, world.dest.kernel.touch(reborn, 1))

    core2, rimas2 = run(world, world.dest.kernel.excise_process("victim"))
    region2 = rimas2.first_section(RegionSection)
    assert sorted(region2.pages) == [1]
    inherited = rimas2.sections_of(IOUSection)
    assert len(inherited) == 1
    assert sorted(inherited[0].page_indices) == [2, 3, 8, 9, 20]
    assert inherited[0].handle.segment_id == segment.segment_id

    # Insert back at the source; owed pages are still fetchable.
    reborn2 = run(world, world.source.kernel.insert_process(core2, rimas2))
    run(world, world.source.kernel.touch(reborn2, 9))
    assert reborn2.space.peek(9 * PAGE_SIZE, 6) == contents[9][:6]

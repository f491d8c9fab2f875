"""Unit tests for Host helpers and AccentProcess."""

import pytest

from repro.accent.constants import PAGE_SIZE
from repro.accent.ipc.port import PortRight, RECEIVE, SEND
from repro.accent.process import (
    AccentProcess,
    KERNEL_STACK_BYTES,
    MICROSTATE_BYTES,
    PCB_BYTES,
    ProcessStatus,
)
from repro.accent.vm.address_space import AddressSpace, Residency
from repro.accent.vm.page import Page


def make_space(pages=8):
    space = AddressSpace(name="hp")
    space.validate(0, pages * PAGE_SIZE)
    return space


# ------------------------------------------------------------------ host --
def test_create_port_homed_at_host(world):
    port = world.source.create_port(name="svc")
    assert port.home_host is world.source
    assert port in world.registry


def test_bulk_install_claims_a_frame(world):
    host = world.source
    space = make_space()
    host.register_space(space)
    host.kernel.install_run(space, [0], [Page()])
    assert space.residency(0) is Residency.RESIDENT
    assert (space.space_id, 0) in host.physical


def test_bulk_claim_reports_an_overfill(world):
    """A full pool evicts in order; a builder refuses any victim."""
    host = world.source
    host.physical.frame_count = 1
    space = make_space()
    host.register_space(space)
    space.install_run([0, 1], [Page(), Page()])
    assert host.physical.claim(space.space_id, [0, 1]) == [
        (space.space_id, 0)
    ]
    assert host.physical.resident_keys() == [(space.space_id, 1)]


def test_bulk_disk_images_round_trip(world):
    host = world.source
    space = make_space()
    host.register_space(space)
    page = Page(b"imaged")
    space.install_run([0], [page], Residency.ON_DISK)
    host.disk.store_images(space.space_id, {0: page})
    assert space.residency(0) is Residency.ON_DISK
    assert host.disk.holds(space.space_id, 0)
    assert (space.space_id, 0) not in host.physical

    def read_back():
        return (yield from host.disk.read(space.space_id, 0))

    reader = world.engine.process(read_back())
    world.engine.run(until=reader)
    assert reader.value is page


def test_space_registry_lifecycle(world):
    space = make_space()
    world.source.register_space(space)
    assert world.source.space_by_id(space.space_id) is space
    world.source.unregister_space(space)
    with pytest.raises(KeyError):
        world.source.space_by_id(space.space_id)


# --------------------------------------------------------------- process --
def test_core_context_is_one_kilobyte():
    """§3.1: the non-address-space context is roughly 1 KB."""
    process = AccentProcess(name="p", space=make_space())
    assert process.core_context_bytes == (
        MICROSTATE_BYTES + KERNEL_STACK_BYTES + PCB_BYTES
    )
    assert process.core_context_bytes == 1024


def test_process_defaults():
    process = AccentProcess(name="p", space=make_space())
    assert process.status is ProcessStatus.RUNNABLE
    assert process.host is None
    assert process.blueprint is None
    assert process.port_rights == []


def test_rights_for_filters_by_kind(world):
    receive_port = world.source.create_port()
    send_port = world.source.create_port()
    process = AccentProcess(
        name="p",
        space=make_space(),
        port_rights=[
            PortRight(receive_port, RECEIVE),
            PortRight(send_port, SEND),
        ],
    )
    assert [r.port for r in process.rights_for(RECEIVE)] == [receive_port]
    assert [r.port for r in process.rights_for(SEND)] == [send_port]


def test_process_serials_are_unique():
    a = AccentProcess(name="a", space=make_space())
    b = AccentProcess(name="b", space=make_space())
    assert a.serial != b.serial

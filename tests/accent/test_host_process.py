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


def test_make_resident_instant_claims_frame(world):
    space = make_space()
    world.source.register_space(space)
    space.install_page(0, Page(), Residency.ON_DISK)
    world.source.physical.evict(space.space_id, 0)
    world.source.make_resident_instant(space, 0)
    assert space.entry(0).residency is Residency.RESIDENT
    assert (space.space_id, 0) in world.source.physical


def test_make_resident_instant_rejects_overfill(world):
    world.source.physical.frame_count = 1
    space = make_space()
    world.source.register_space(space)
    space.install_page(0, Page(), Residency.RESIDENT)
    world.source.physical.allocate(space.space_id, 0)
    space.install_page(1, Page(), Residency.ON_DISK)
    with pytest.raises(RuntimeError, match="overfilled"):
        world.source.make_resident_instant(space, 1)


def test_place_on_disk_instant_round_trip(world):
    space = make_space()
    world.source.register_space(space)
    space.install_page(0, Page(b"imaged"), Residency.RESIDENT)
    world.source.physical.allocate(space.space_id, 0)
    world.source.place_on_disk_instant(space, 0)
    assert space.entry(0).residency is Residency.ON_DISK
    assert world.source.disk.holds(space.space_id, 0)
    assert (space.space_id, 0) not in world.source.physical


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

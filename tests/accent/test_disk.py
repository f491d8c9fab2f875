"""Unit tests for the paging disk."""

import pytest

from repro.accent.disk import DiskError
from repro.accent.vm.page import Page


def test_store_instant_and_holds(world):
    disk = world.source.disk
    disk.store_instant(1, 5, Page(b"img"))
    assert disk.holds(1, 5)
    assert not disk.holds(1, 6)


def test_read_charges_service_time(world):
    disk = world.source.disk
    page = Page(b"payload")
    disk.store_instant(1, 5, page)

    def reader():
        got = yield from disk.read(1, 5)
        return got

    proc = world.engine.process(reader())
    got = world.engine.run(until=proc)
    assert got is page
    assert world.engine.now == pytest.approx(
        world.calibration.disk_service_s
    )
    assert disk.reads == 1


def test_read_missing_page_raises(world):
    disk = world.source.disk

    def reader():
        yield from disk.read(1, 99)

    with pytest.raises(DiskError):
        world.engine.run(until=world.engine.process(reader()))


def test_write_stores_page(world):
    disk = world.source.disk
    page = Page(b"out")

    def writer():
        yield from disk.write(2, 7, page)

    world.engine.run(until=world.engine.process(writer()))
    assert disk.holds(2, 7)
    assert disk.writes == 1


def test_disk_arm_serialises_requests(world):
    disk = world.source.disk
    disk.store_instant(1, 0, Page())
    disk.store_instant(1, 1, Page())
    finish_times = []

    def reader(index):
        yield from disk.read(1, index)
        finish_times.append(world.engine.now)

    world.engine.process(reader(0))
    world.engine.process(reader(1))
    world.engine.run()
    service = world.calibration.disk_service_s
    assert finish_times == pytest.approx([service, 2 * service])


def test_drop_space_discards_only_that_space(world):
    disk = world.source.disk
    kept = {(2, 0): Page(b"two-0"), (3, 1): Page(b"three-1")}
    disk.store_instant(1, 0, Page())
    disk.store_instant(1, 1, Page())
    for (space_id, index), page in kept.items():
        disk.store_instant(space_id, index, page)
    assert disk.drop_space(1) == 2
    assert disk.drop_space(1) == 0
    assert not disk.holds(1, 0) and not disk.holds(1, 1)
    assert all(disk.holds(*key) for key in kept)

    def reader():
        got = {}
        for key in kept:
            got[key] = yield from disk.read(*key)
        return got

    assert world.engine.run(until=world.engine.process(reader())) == kept

    def dropped():
        yield from disk.read(1, 0)

    with pytest.raises(DiskError):
        world.engine.run(until=world.engine.process(dropped()))

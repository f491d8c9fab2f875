"""Unit tests for the backing server protocol."""

import pytest

from repro.accent.constants import PAGE_SIZE
from repro.accent.ipc.message import InlineSection, Message, RegionSection
from repro.accent.pager import OP_IMAG_DEATH, OP_IMAG_READ, OP_IMAG_READ_REPLY
from repro.accent.vm.page import Page
from repro.cor.backer import BackerError, BackingServer


def read_request(world, backer, segment, index, fault_id=1):
    reply_port = world.source.create_port(name="reply")
    request = Message(
        dest=backer.port,
        op=OP_IMAG_READ,
        sections=[InlineSection(bytes(16))],
        reply_port=reply_port,
        meta={
            "fault_id": fault_id,
            "page_index": index,
            "segment_id": segment.segment_id,
        },
    )
    return request, reply_port


def test_read_request_produces_reply(world):
    backer = BackingServer(world.source, prefetch=0)
    segment = backer.create_segment({5: Page(b"five")})
    request, reply_port = read_request(world, backer, segment, 5)

    world.source.kernel.post(request)
    world.engine.run()
    reply = reply_port.queue.try_get()
    assert reply is not None
    assert reply.op == OP_IMAG_READ_REPLY
    assert reply.meta["fault_id"] == 1
    region = reply.first_section(RegionSection)
    assert region.force_copy  # replies must ship physically
    assert region.pages[5].data[:4] == b"five"


def test_reply_includes_prefetch_and_records_metric(world):
    backer = BackingServer(world.source, prefetch=3)
    segment = backer.create_segment({i: Page() for i in range(8)})
    request, reply_port = read_request(world, backer, segment, 0)
    world.source.kernel.post(request)
    world.engine.run()
    reply = reply_port.queue.try_get()
    assert sorted(reply.first_section(RegionSection).pages) == [0, 1, 2, 3]
    assert world.metrics.prefetched_pages == 3


def test_unknown_segment_raises(world):
    backer = BackingServer(world.source)
    segment = backer.create_segment({0: Page()})
    request, _ = read_request(world, backer, segment, 0)
    request.meta["segment_id"] = 999
    world.source.kernel.post(request)
    with pytest.raises(BackerError):
        world.engine.run()


def test_unexpected_op_raises(world):
    backer = BackingServer(world.source)
    bogus = Message(dest=backer.port, op="bogus", sections=[])
    world.source.kernel.post(bogus)
    with pytest.raises(BackerError):
        world.engine.run()


def test_death_retires_segment(world):
    backer = BackingServer(world.source)
    segment = backer.create_segment({0: Page(), 1: Page()})
    segment.take_batch([0], 1)
    death = Message(
        dest=backer.port,
        op=OP_IMAG_DEATH,
        sections=[InlineSection(bytes(8))],
        meta={"segment_id": segment.segment_id},
    )
    world.source.kernel.post(death)
    world.engine.run()
    assert segment.dead
    assert backer.retired == [(segment.segment_id, segment.label, 1, 2)]
    assert backer.delivered_page_count() == 1


def test_death_for_unknown_segment_is_ignored(world):
    backer = BackingServer(world.source)
    death = Message(
        dest=backer.port,
        op=OP_IMAG_DEATH,
        sections=[InlineSection(bytes(8))],
        meta={"segment_id": 424242},
    )
    world.source.kernel.post(death)
    world.engine.run()
    assert backer.retired == []


def test_delivered_count_mixes_live_and_retired(world):
    backer = BackingServer(world.source)
    live = backer.create_segment({0: Page(), 1: Page()})
    live.take_batch([0], 1)
    dead = backer.create_segment({10: Page()})
    dead.take_batch([10], 1)
    death = Message(
        dest=backer.port,
        op=OP_IMAG_DEATH,
        sections=[InlineSection(bytes(8))],
        meta={"segment_id": dead.segment_id},
    )
    world.source.kernel.post(death)
    world.engine.run()
    assert backer.delivered_page_count() == 2


def test_backer_lookup_time_charged(world):
    backer = BackingServer(world.source, prefetch=0)
    segment = backer.create_segment({0: Page()})
    request, reply_port = read_request(world, backer, segment, 0)
    world.source.kernel.post(request)
    world.engine.run()
    # request send + backer lookup + reply send, all local.
    calibration = world.calibration
    minimum = calibration.backer_lookup_s + 2 * calibration.ipc_local_s
    assert world.engine.now >= minimum

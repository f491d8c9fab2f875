"""Unit tests for the shared-medium link.

A frame crosses in the two stages the fragment chain calls:
``Link.enter`` queues it for the medium, and after its serialisation
time ``Link.settle`` releases the medium and decides its fate.
:func:`frame` drives them as the chain does.
"""

import pytest

from repro.net.link import Link
from repro.obs.span import NULL_SPAN, Tracer
from repro.sim import Engine
from repro.calibration import Calibration


def frame(link, nbytes, source="a", dest="b", span=NULL_SPAN):
    """Generator: one frame through the link's stages; returns whether
    it was delivered (after the propagation latency if it was)."""
    engine = link.engine
    calibration = link.calibration
    req = link.enter()
    yield req
    yield engine.timeout((nbytes * 8.0) / calibration.link_bandwidth_bps)
    if not link.settle(req, nbytes, source, dest, span):
        return False
    yield engine.timeout(calibration.link_latency_s)
    return True


def test_transmit_time_is_serialisation_plus_latency():
    eng = Engine()
    calibration = Calibration()
    link = Link(eng, calibration)

    # 1250 B at 10 Mbit/s = 1 ms
    eng.run(until=eng.process(frame(link, 1250)))
    assert eng.now == pytest.approx(0.001 + calibration.link_latency_s)
    assert link.frames == 1
    assert link.bytes == 1250


def test_medium_serialises_but_latency_overlaps():
    eng = Engine()
    calibration = Calibration(link_latency_s=0.010)
    link = Link(eng, calibration)
    done = []

    def sender(tag):
        yield from frame(link, 12500)  # 10 ms serialisation
        done.append((tag, eng.now))

    eng.process(sender("a"))
    eng.process(sender("b"))
    eng.run()
    # a: 10 ms serialise + 10 ms latency = 20 ms.
    # b: waits 10 ms for the medium, then 10 + 10 -> 30 ms.
    assert done[0] == ("a", pytest.approx(0.020))
    assert done[1] == ("b", pytest.approx(0.030))


def test_utilisation_reflects_busy_medium():
    eng = Engine()
    link = Link(eng, Calibration(link_latency_s=0.0))

    eng.run(until=eng.process(frame(link, 125_000)))  # 100 ms
    assert link.utilisation() == pytest.approx(1.0)


class _AlwaysDrop:
    """Stub fault model: eats every frame, remembers why it was asked."""

    def __init__(self):
        self.recorded = []
        self.asked = []

    def should_drop(self, source, dest, now):
        self.asked.append((source, dest, now))
        return "loss"

    def record_drop(self, reason):
        self.recorded.append(reason)


def test_transmit_returns_true_when_delivered():
    eng = Engine()
    link = Link(eng, Calibration())
    span = Tracer(clock=lambda: eng.now).span("ship")

    assert eng.run(until=eng.process(frame(link, 1250, span=span))) is True
    assert link.drops == 0
    # Without a fault model the span is not credited per frame.
    assert span.counters == {}


def test_dropped_frame_burns_medium_time_but_is_not_counted():
    eng = Engine()
    calibration = Calibration()
    link = Link(eng, calibration)
    link.faults = _AlwaysDrop()
    span = Tracer(clock=lambda: eng.now).span("ship")

    delivered = eng.run(until=eng.process(frame(link, 1250, span=span)))
    assert delivered is False
    assert link.drops == 1
    assert link.faults.recorded == ["loss"]
    # Judged once, on its endpoints, when serialisation ended.
    assert link.faults.asked == [("a", "b", pytest.approx(0.001))]
    assert span.counters == {"drops": 1}
    # The frame never arrived: no delivery accounting...
    assert link.frames == 0
    assert link.bytes == 0
    assert (link.inflight, link.medium.count) == (0, 0)
    # ...and no propagation latency — only the 1 ms serialisation burnt.
    assert eng.now == pytest.approx(0.001)


def test_settle_credits_delivered_frames_under_a_fault_model():
    eng = Engine()
    link = Link(eng, Calibration())
    link.faults = _AlwaysDrop()
    link.faults.should_drop = lambda source, dest, now: None
    span = Tracer(clock=lambda: eng.now).span("ship")

    assert eng.run(until=eng.process(frame(link, 1250, span=span))) is True
    assert span.counters == {"frames": 1}
    assert (link.frames, link.bytes, link.drops) == (1, 1250, 0)


def test_enter_counts_queued_frames_in_flight():
    eng = Engine()
    link = Link(eng, Calibration())
    first = link.enter()
    second = link.enter()
    assert (link.inflight, link.peak_inflight) == (2, 2)
    assert (link.medium.count, link.medium.queued) == (1, 1)
    # Settling the first hands the medium to the second.
    assert link.settle(first, 100, "a", "b", NULL_SPAN)
    assert (link.inflight, link.peak_inflight) == (1, 2)
    assert link.medium.count == 1 and second.triggered

"""Unit tests for the metrics collector."""

import pytest

from repro.metrics.collector import MetricsCollector
from repro.sim import Engine


@pytest.fixture
def collector():
    return MetricsCollector(Engine())


def test_record_link_accumulates(collector):
    collector.record_link(100, "migrate.rimas", "alpha", "beta")
    collector.record_link(50, "imag.read", "beta", "alpha")
    assert collector.total_link_bytes == 150
    assert len(collector.link_records) == 2


def test_fault_support_bytes_split(collector):
    collector.record_link(100, "migrate.rimas", "a", "b")
    collector.record_link(30, "imag.read", "b", "a")
    collector.record_link(70, "imag.read.reply", "a", "b")
    assert collector.fault_support_bytes == 100
    assert collector.link_bytes_by_category() == {
        "migrate.rimas": 100,
        "imag.read": 30,
        "imag.read.reply": 70,
    }


def test_nms_accounting_per_host(collector):
    collector.record_nms("alpha", 0.01)
    collector.record_nms("alpha", 0.02)
    collector.record_nms("beta", 0.04)
    assert collector.nms_messages == {"alpha": 2, "beta": 1}
    assert collector.total_message_handling_s == pytest.approx(0.07)
    assert collector.total_messages == 3


def test_fault_counters(collector):
    collector.record_fault("imaginary")
    collector.record_fault("imaginary")
    collector.record_fault("disk")
    assert collector.faults == {"imaginary": 2, "disk": 1}


def test_prefetch_hit_ratio(collector):
    assert (collector.prefetched_pages, collector.prefetch_hits) == (0, 0)
    collector.record_prefetch(4)
    collector.record_prefetch_hit()
    collector.record_prefetch_hit()
    assert (collector.prefetched_pages, collector.prefetch_hits) == (4, 2)


def test_marks_and_span():
    engine = Engine()
    collector = MetricsCollector(engine)
    collector.mark("start")
    engine.timeout(2.5)
    engine.run()
    collector.mark("end")
    assert collector.span("start", "end") == pytest.approx(2.5)


def test_link_records_carry_time():
    engine = Engine()
    collector = MetricsCollector(engine)
    engine.timeout(1.0)
    engine.run()
    collector.record_link(10, "x", "a", "b")
    assert collector.link_records[0].time == pytest.approx(1.0)

"""The fault-lifecycle profiler: stage timings per imaginary fault."""

import pytest

from repro.faults import Crash, FaultPlan
from repro.obs.lifecycle import (
    FaultRecord,
    LifecycleProfiler,
    STAGES,
    aggregate,
)
from repro.testbed import Testbed


# -- unit ------------------------------------------------------------------------
def drive(profiler, fault_id, base=0.0):
    profiler.raised(
        fault_id, trace_id="t1", page=7, segment_id=3, host="beta",
        now=base,
    )
    profiler.request_done(fault_id, now=base + 0.030)
    profiler.service_done(fault_id, backer="alpha", pages=4, now=base + 0.034)
    profiler.reply_done(fault_id, now=base + 0.100)
    profiler.resumed(fault_id, now=base + 0.102)


def test_stage_durations_partition_the_fault():
    profiler = LifecycleProfiler()
    drive(profiler, 1)
    (record,) = profiler.records
    assert record.complete
    assert record.backer == "alpha" and record.pages == 4
    assert record.stage_s("request") == pytest.approx(0.030)
    assert record.stage_s("service") == pytest.approx(0.004)
    assert record.stage_s("reply") == pytest.approx(0.066)
    assert record.stage_s("resume") == pytest.approx(0.002)
    assert record.stage_s("total") == pytest.approx(0.102)
    parts = sum(
        record.stage_s(stage) for stage in STAGES if stage != "total"
    )
    assert parts == pytest.approx(record.stage_s("total"))


def test_incomplete_and_failed_faults_stay_open():
    profiler = LifecycleProfiler()
    profiler.raised(1, trace_id=None, page=0, segment_id=1, host="beta",
                    now=5.0)
    profiler.request_done(1, now=5.1)
    profiler.failed(1, "backer crashed", now=5.2)
    (record,) = profiler.records
    assert not record.complete
    assert record.failure == "backer crashed"
    assert record.stage_s("service") is None
    assert record.stage_s("total") is None
    # Updates for unknown fault ids are ignored, not errors.
    profiler.reply_done(99, now=6.0)
    profiler.resumed(99, now=6.0)
    assert len(profiler.records) == 1


def test_record_round_trips_through_dict_form():
    profiler = LifecycleProfiler()
    drive(profiler, 1, base=2.5)
    (record,) = profiler.records
    rebuilt = FaultRecord.from_dict(record.to_dict())
    assert rebuilt.to_dict() == record.to_dict()
    for stage in STAGES:
        assert rebuilt.stage_s(stage) == record.stage_s(stage)


def test_aggregate_accepts_records_or_dicts():
    profiler = LifecycleProfiler()
    for fault_id in range(1, 21):
        drive(profiler, fault_id, base=float(fault_id))
    profiler.raised(99, trace_id=None, page=1, segment_id=1, host="beta",
                    now=50.0)
    profiler.failed(99, "gone", now=51.0)

    stats = aggregate(profiler.records)
    assert stats["count"] == 21
    assert stats["complete"] == 20
    assert stats["failed"] == 1
    request = stats["stages"]["request"]
    assert request["count"] == 20
    assert request["mean"] == pytest.approx(0.030)
    assert request["p50"] == pytest.approx(0.030)
    assert request["p99"] == pytest.approx(0.030)
    assert request["max"] == pytest.approx(0.030)
    # Identical statistics from the serialised form.
    assert aggregate(profiler.snapshot()) == stats


def test_aggregate_of_nothing_is_empty():
    stats = aggregate([])
    assert stats == {"count": 0, "complete": 0, "failed": 0, "stages": {}}


# -- integration -----------------------------------------------------------------
@pytest.fixture(scope="module")
def result():
    return Testbed(seed=1987, instrument=True).migrate(
        "minprog", strategy="pure-iou", options={"prefetch": 3}
    )


def test_every_imaginary_fault_yields_a_complete_record(result):
    records = result.fault_records
    assert len(records) == result.faults["imaginary"]
    for record in records:
        assert record["trace_id"] == "t1"
        assert record["host"] == "beta"
        assert record["backer"] == "alpha"
        assert record["pages"] >= 1
        assert record["failure"] is None
        # Marks are monotone through the five stamps.
        marks = [record[m] for m in
                 ("raised", "request_at", "service_at", "reply_at",
                  "resumed_at")]
        assert all(m is not None for m in marks)
        assert marks == sorted(marks)


def test_stage_percentiles_separate_request_service_reply(result):
    stats = aggregate(result.fault_records)
    assert stats["complete"] == stats["count"] > 0
    for stage in ("request", "service", "reply", "resume", "total"):
        assert stats["stages"][stage]["count"] == stats["count"]
        assert stats["stages"][stage]["p50"] > 0
    # The reply leg hauls the pages; the request leg is 16 bytes.
    assert stats["stages"]["reply"]["p50"] > stats["stages"]["service"]["p50"]


def test_lifecycle_totals_match_the_latency_histogram(result):
    hist = result.obs.registry.histogram("imag_fault_seconds").labels()
    stats = aggregate(result.fault_records)
    assert stats["count"] == hist.count
    assert stats["stages"]["total"]["count"] == hist.count
    total_sum = sum(
        record["resumed_at"] - record["raised"]
        for record in result.fault_records
    )
    assert total_sum == pytest.approx(hist.sum, rel=1e-9)


def test_crash_without_flusher_records_the_failure():
    plan = FaultPlan(crashes=[Crash(host="alpha", at=5.0)])
    result = Testbed(seed=1987, instrument=True, faults=plan).migrate(
        "minprog", strategy="pure-iou"
    )
    assert result.outcome == "killed"
    failures = [r for r in result.fault_records if r["failure"]]
    assert failures
    assert all(r["resumed_at"] is None for r in failures)


def test_disabled_instrumentation_records_nothing():
    result = Testbed(seed=1987).migrate("minprog", strategy="pure-iou")
    assert result.fault_records == []
    assert result.obs.lifecycle is None

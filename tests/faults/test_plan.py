"""Unit tests for fault-plan parsing and validation."""

import json

import pytest

from repro.faults import Crash, FaultPlan, FaultPlanError, LossRule, Partition


def test_empty_plan():
    plan = FaultPlan()
    assert plan.empty
    assert not plan.flush.enabled


def test_from_dict_full_shape():
    plan = FaultPlan.from_dict({
        "loss": [{"rate": 0.1, "source": "alpha", "start": 2.0, "end": 9.0}],
        "partitions": [{"a": "alpha", "b": "beta", "start": 1.0, "end": 2.0}],
        "crashes": [{"host": "beta", "at": 5.0, "recover_at": 8.0}],
        "flush": {"enabled": True, "batch_pages": 8, "interval_s": 0.1},
    })
    assert plan.loss[0].rate == 0.1
    assert plan.partitions[0].severs("beta", "alpha", 1.5)
    assert plan.crashes[0].recover_at == 8.0
    assert plan.flush.enabled and plan.flush.batch_pages == 8
    assert not plan.empty


def test_round_trips_through_json(tmp_path):
    original = FaultPlan.from_dict({
        "loss": [{"rate": 0.05}],
        "crashes": [{"host": "alpha", "at": 3.0}],
        "flush": {"enabled": True},
    })
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(original.to_dict()))
    reloaded = FaultPlan.from_json(path)
    assert reloaded.to_dict() == original.to_dict()


@pytest.mark.parametrize("bad", [
    {"loss": [{"rate": 1.5}]},
    {"loss": [{"rate": 0.1, "start": 5.0, "end": 1.0}]},
    {"partitions": [{"a": "x", "b": "y", "start": 2.0, "end": 1.0}]},
    {"crashes": [{"host": "x", "at": -1.0}]},
    {"crashes": [{"host": "x", "at": 5.0, "recover_at": 5.0}]},
    {"flush": {"enabled": True, "batch_pages": 0}},
    {"typo": []},
    {"loss": [{"rat": 0.1}]},
    {"flush": {"enabled": True, "pipeline": 2}},  # the knob was removed
])
def test_malformed_plans_raise(bad):
    with pytest.raises(FaultPlanError):
        FaultPlan.from_dict(bad)


def test_invalid_json_file_raises(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FaultPlanError, match="invalid JSON"):
        FaultPlan.from_json(path)


def test_loss_rule_windows_and_endpoints():
    rule = LossRule(rate=1.0, source="alpha", dest="beta", start=1.0, end=2.0)
    assert rule.matches("alpha", "beta", 1.0)
    assert not rule.matches("alpha", "beta", 2.0)   # end-exclusive
    assert not rule.matches("beta", "alpha", 1.5)   # directional
    anywhere = LossRule(rate=0.5)
    assert anywhere.matches("x", "y", 1e9)          # open-ended


def test_partition_is_symmetric_and_windowed():
    part = Partition(a="alpha", b="beta", start=1.0, end=2.0)
    assert part.severs("alpha", "beta", 1.5)
    assert part.severs("beta", "alpha", 1.5)
    assert not part.severs("alpha", "gamma", 1.5)
    assert not part.severs("alpha", "beta", 0.5)


def test_crash_fields():
    crash = Crash(host="alpha", at=2.0)
    assert crash.recover_at is None

"""Tests for the event trace log."""

import pytest

from repro.sim import Engine
from repro.sim.trace import TraceLog


def test_attach_records_processed_events():
    eng = Engine()
    log = TraceLog.attach(eng)
    eng.timeout(1.0)
    eng.timeout(2.5)
    eng.run()
    assert len(log) == 2
    assert [entry.time for entry in log.entries] == [1.0, 2.5]
    assert log.entries[0].kind == "Timeout"
    assert "delay=1.0" in log.entries[0].detail


def test_process_events_carry_names():
    eng = Engine()
    log = TraceLog.attach(eng)

    def body():
        yield eng.timeout(1.0)

    eng.process(body(), name="worker")
    eng.run()
    names = [entry.detail for entry in log.of_kind("Process")]
    assert names == ["worker"]


def test_capacity_bounds_memory():
    eng = Engine()
    log = TraceLog.attach(eng, capacity=5)
    for index in range(20):
        eng.timeout(index * 0.1)
    eng.run()
    assert len(log) == 5
    assert log.entries[-1].time == pytest.approx(1.9)


def test_between_filters_window():
    eng = Engine()
    log = TraceLog.attach(eng)
    for delay in (1.0, 2.0, 3.0, 4.0):
        eng.timeout(delay)
    eng.run()
    window = log.between(2.0, 4.0)
    assert [entry.time for entry in window] == [2.0, 3.0]


def test_manual_record_uses_clock():
    eng = Engine()
    log = TraceLog.attach(eng)
    eng.run(until=5.0)
    log.record("phase", "transfer-start")
    assert log.entries[-1] == (5.0, "phase", "transfer-start")


def test_format_renders_tail():
    eng = Engine()
    log = TraceLog.attach(eng)
    eng.timeout(1.0)
    eng.run()
    text = log.format()
    assert "Timeout" in text
    assert "1.0" in text


def test_observer_off_by_default_costs_nothing():
    eng = Engine()
    assert eng._observers == []
    eng.timeout(1.0)
    eng.run()  # no error, nothing recorded anywhere


def test_trace_full_migration_trial():
    """A trace can be attached to a whole testbed world."""
    from repro.testbed import Testbed

    world = Testbed(seed=5).world()
    log = TraceLog.attach(world.engine, capacity=50_000)
    from repro.workloads.builder import build_process
    from repro.workloads.registry import WORKLOADS

    build_process(world.source, WORKLOADS["minprog"], world.streams)

    def trial():
        insertion = world.dest_manager.expect_insertion("minprog")
        yield from world.source_manager.migrate(
            "minprog", world.dest_manager, "pure-iou"
        )
        yield insertion

    world.engine.run(until=world.engine.process(trial()))
    # Excision, core + RIMAS shipment and insertion produce dozens of
    # events (fragments, store puts/gets, resource grants).
    assert len(log) > 50
    assert log.of_kind("Process")
    kinds = {entry.kind for entry in log.entries}
    assert {"Timeout", "StorePut", "StoreGet", "Request"} <= kinds


# -- observer fan-out --------------------------------------------------------------
def test_attach_joins_an_existing_observer_instead_of_clobbering():
    eng = Engine()
    seen = []
    eng.add_observer(lambda now, event: seen.append(now))
    log = TraceLog.attach(eng)
    eng.timeout(1.0)
    eng.run()
    # Both the pre-existing observer and the log saw the event.
    assert seen == [1.0]
    assert len(log) == 1


def test_two_trace_logs_can_coexist():
    eng = Engine()
    first = TraceLog.attach(eng)
    second = TraceLog.attach(eng)
    eng.timeout(1.0)
    eng.run()
    assert len(first) == 1
    assert len(second) == 1


def test_detach_removes_only_its_own_observer():
    eng = Engine()
    keeper = TraceLog.attach(eng)
    leaver = TraceLog.attach(eng)
    leaver.detach()
    eng.timeout(1.0)
    eng.run()
    assert len(keeper) == 1
    assert len(leaver) == 0
    leaver.detach()  # idempotent

"""Unit tests for the DES engine and event primitives."""

import pytest

from repro.sim import DEFERRED, URGENT, Engine, Event, SimulationError
from repro.sim.errors import EmptySchedule
from repro.sim.refqueue import ReferenceEngine


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_clock_honours_initial_time():
    assert Engine(initial_time=12.5).now == 12.5


def test_run_empty_engine_returns_none():
    eng = Engine()
    assert eng.run() is None
    assert eng.now == 0.0


def test_timeout_advances_clock():
    eng = Engine()
    eng.timeout(4.25)
    eng.run()
    assert eng.now == 4.25


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1)


def test_step_on_empty_queue_raises():
    with pytest.raises(EmptySchedule):
        Engine().step()


def test_peek_reports_next_event_time():
    eng = Engine()
    eng.timeout(7.0)
    eng.timeout(3.0)
    assert eng.peek() == 3.0


def test_peek_empty_is_infinite():
    assert Engine().peek() == float("inf")


def test_events_process_in_time_order():
    eng = Engine()
    order = []
    for delay in (5.0, 1.0, 3.0):
        ev = eng.timeout(delay, value=delay)
        ev.callbacks.append(lambda e: order.append(e.value))
    eng.run()
    assert order == [1.0, 3.0, 5.0]


def test_same_time_events_fifo_by_insertion():
    eng = Engine()
    order = []
    for tag in "abc":
        ev = eng.timeout(2.0, value=tag)
        ev.callbacks.append(lambda e: order.append(e.value))
    eng.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_processes_strictly_earlier_events():
    eng = Engine()
    fired = []
    eng.timeout(1.0, "early").callbacks.append(lambda e: fired.append(e.value))
    eng.timeout(5.0, "late").callbacks.append(lambda e: fired.append(e.value))
    eng.run(until=5.0)
    assert fired == ["early"]
    assert eng.now == 5.0


def test_run_until_time_in_past_raises():
    eng = Engine(initial_time=10.0)
    with pytest.raises(SimulationError):
        eng.run(until=5.0)


def test_run_until_event_returns_value():
    eng = Engine()
    assert eng.run(until=eng.timeout(2.0, value="payload")) == "payload"
    assert eng.now == 2.0


def test_run_until_never_triggered_event_is_deadlock():
    eng = Engine()
    pending = eng.event()
    with pytest.raises(SimulationError, match="deadlock"):
        eng.run(until=pending)


def test_event_succeed_carries_value():
    eng = Engine()
    ev = eng.event()
    ev.succeed({"k": 1})
    eng.run()
    assert ev.ok
    assert ev.value == {"k": 1}


def test_event_double_trigger_rejected():
    eng = Engine()
    ev = eng.event().succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_value_before_trigger_raises():
    eng = Engine()
    with pytest.raises(SimulationError):
        _ = eng.event().value


def test_failed_event_with_no_waiter_surfaces_at_run():
    eng = Engine()
    eng.event().fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        eng.run()


def test_defused_failure_does_not_surface():
    eng = Engine()
    ev = eng.event()
    ev.fail(RuntimeError("handled"))
    ev.defuse()
    eng.run()
    assert not ev.ok


def test_fail_requires_exception_instance():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.event().fail("not an exception")


def test_run_until_failed_event_raises_its_error():
    eng = Engine()
    ev = eng.event()
    ev.fail(ValueError("expected"))
    with pytest.raises(ValueError, match="expected"):
        eng.run(until=ev)


def test_all_of_collects_every_value():
    eng = Engine()
    a, b = eng.timeout(1, "a"), eng.timeout(2, "b")
    both = eng.all_of([a, b])
    eng.run(until=both)
    assert both.value == {a: "a", b: "b"}
    assert eng.now == 2


def test_any_of_fires_on_first():
    eng = Engine()
    fast, slow = eng.timeout(1, "fast"), eng.timeout(9, "slow")
    first = eng.any_of([fast, slow])
    eng.run(until=first)
    assert first.value == {fast: "fast"}
    assert eng.now == 1


def test_all_of_empty_succeeds_immediately():
    eng = Engine()
    both = eng.all_of([])
    eng.run(until=both)
    assert both.value == {}


def test_condition_fails_if_constituent_fails():
    eng = Engine()
    good = eng.timeout(5, "ok")
    bad = eng.event()
    bad.fail(KeyError("broken"))
    both = eng.all_of([good, bad])
    with pytest.raises(KeyError):
        eng.run(until=both)


def test_schedule_into_past_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(Event(eng), delay=-0.5)


@pytest.mark.parametrize("engine_cls", [Engine, ReferenceEngine])
@pytest.mark.parametrize("priority", [-1, 3])
def test_unknown_priority_rejected_on_every_path(engine_cls, priority):
    eng = engine_cls()
    with pytest.raises(SimulationError, match="unknown scheduling priority"):
        Event(eng).succeed(priority=priority)
    with pytest.raises(SimulationError, match="unknown scheduling priority"):
        eng.schedule(Event(eng), delay=1.0, priority=priority)
    assert eng.run() is None and eng.now == 0.0


def _logging_event(eng, order, label):
    """A triggered but unqueued event (so the test makes the
    ``schedule`` call) whose dispatch appends ``label`` to ``order``."""
    event = Event(eng)
    event._ok, event._value = True, label
    event.callbacks.append(lambda _: order.append(label))
    return event


@pytest.mark.parametrize("engine_cls", [Engine, ReferenceEngine])
def test_future_priority_orders_one_instant(engine_cls):
    eng = engine_cls()
    order = []
    for label, priority in (("deferred", DEFERRED), ("normal", None),
                            ("urgent", URGENT)):
        eng.schedule(_logging_event(eng, order, label), 2.0, priority)
    eng.run()
    assert order == ["urgent", "normal", "deferred"] and eng.now == 2.0


@pytest.mark.parametrize("engine_cls", [Engine, ReferenceEngine])
def test_delay_that_rounds_to_now_stays_at_now(engine_cls):
    eng = engine_cls(initial_time=1.0)
    order = []
    eng.schedule(_logging_event(eng, order, "zero"), 0.0)
    eng.schedule(_logging_event(eng, order, "tiny"), 1e-300, URGENT)
    eng.run()
    assert order == ["tiny", "zero"] and eng.now == 1.0


def test_urgent_priority_runs_first_at_same_time():
    from repro.sim import URGENT

    eng = Engine()
    order = []
    normal = eng.event()
    normal.callbacks.append(lambda e: order.append("normal"))
    urgent = eng.event()
    urgent.callbacks.append(lambda e: order.append("urgent"))
    normal.succeed()
    urgent.succeed(priority=URGENT)
    eng.run()
    assert order == ["urgent", "normal"]

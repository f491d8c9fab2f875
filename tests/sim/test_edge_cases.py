"""Edge-case tests for the simulation kernel."""

import pytest

from repro.sim import AllOf, AnyOf, Engine, Event, Interrupt, Store
from repro.sim.errors import StopProcess


def test_timeout_zero_fires_immediately_in_order():
    eng = Engine()
    order = []
    eng.timeout(0.0, "a").callbacks.append(lambda e: order.append(e.value))
    eng.timeout(0.0, "b").callbacks.append(lambda e: order.append(e.value))
    eng.run()
    assert order == ["a", "b"]
    assert eng.now == 0.0


def test_any_of_with_already_processed_event():
    eng = Engine()
    ready = eng.event()
    ready.succeed("now")
    eng.run()  # process it
    first = eng.any_of([ready, eng.timeout(10)])
    eng.run(until=first)
    assert ready in first.value
    assert eng.now == 0.0


def test_all_of_order_of_values_is_by_event():
    eng = Engine()
    slow = eng.timeout(5, "slow")
    fast = eng.timeout(1, "fast")
    both = eng.all_of([slow, fast])
    eng.run(until=both)
    assert both.value[slow] == "slow"
    assert both.value[fast] == "fast"


def test_nested_conditions():
    eng = Engine()
    inner = eng.any_of([eng.timeout(1, "x"), eng.timeout(9)])
    outer = eng.all_of([inner, eng.timeout(2, "y")])
    eng.run(until=outer)
    assert eng.now == 2


def test_interrupt_cause_property():
    assert Interrupt("why").cause == "why"
    assert Interrupt().cause is None


def test_stop_process_without_value():
    eng = Engine()

    def body():
        yield eng.timeout(1)
        raise StopProcess()

    assert eng.run(until=eng.process(body())) is None


def test_process_return_before_first_yield():
    eng = Engine()

    def body():
        return "instant"
        yield  # pragma: no cover

    assert eng.run(until=eng.process(body())) == "instant"


def test_generator_chain_with_yield_from():
    eng = Engine()

    def inner():
        yield eng.timeout(2)
        return 21

    def outer():
        value = yield from inner()
        yield eng.timeout(1)
        return value * 2

    assert eng.run(until=eng.process(outer())) == 42
    assert eng.now == 3


def test_exception_through_yield_from_chain():
    eng = Engine()

    def inner():
        yield eng.timeout(1)
        raise ValueError("deep")

    def outer():
        try:
            yield from inner()
        except ValueError:
            return "caught"

    assert eng.run(until=eng.process(outer())) == "caught"


def test_event_repr_states():
    eng = Engine()
    pending = eng.event()
    assert "pending" in repr(pending)
    pending.succeed()
    assert "ok" in repr(pending)
    failed = eng.event()
    failed.fail(RuntimeError("x"))
    failed.defuse()
    assert "failed" in repr(failed)
    eng.run()


def test_store_put_event_carries_item():
    eng = Engine()
    store = Store(eng)
    put = store.put({"payload": 1})
    assert put.item == {"payload": 1}
    eng.run()


def test_two_engines_are_independent():
    a, b = Engine(), Engine()
    a.timeout(5)
    b.timeout(1)
    a.run()
    assert a.now == 5
    assert b.now == 0
    b.run()
    assert b.now == 1


def test_run_until_same_time_twice():
    eng = Engine()
    eng.run(until=3.0)
    eng.run(until=3.0)
    assert eng.now == 3.0


def test_many_processes_complete(benchmark_scale=200):
    eng = Engine()
    done = []

    def worker(tag):
        yield eng.timeout(tag % 7)
        done.append(tag)

    for tag in range(benchmark_scale):
        eng.process(worker(tag))
    eng.run()
    assert len(done) == benchmark_scale


def test_a_settled_condition_lets_go_of_its_pending_constituents():
    eng = Engine()
    never = eng.event()
    deadline = eng.timeout(1.0)
    first = AnyOf(eng, [never, deadline])
    assert len(never.callbacks) == 1
    eng.run()
    assert first.value == {deadline: None}
    assert never.callbacks == []
    # A condition settled while registering never subscribes the rest.
    done, also = eng.timeout(0.0), eng.timeout(0.0)
    eng.run()
    late = eng.event()
    late.callbacks.append(print)
    assert AnyOf(eng, [done, also, late]).triggered
    assert late.callbacks == [print]

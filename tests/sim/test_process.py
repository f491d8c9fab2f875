"""Unit tests for generator-based simulated processes."""

import pytest

from repro.sim import Engine, Interrupt, Process, SimulationError
from repro.sim.errors import StopProcess


def test_process_runs_and_returns_value():
    eng = Engine()

    def body():
        yield eng.timeout(1.0)
        yield eng.timeout(2.0)
        return "finished"

    proc = eng.process(body())
    assert eng.run(until=proc) == "finished"
    assert eng.now == 3.0


def test_process_is_alive_until_done():
    eng = Engine()

    def body():
        yield eng.timeout(5.0)

    proc = eng.process(body())
    assert proc.is_alive
    eng.run()
    assert not proc.is_alive


def test_process_requires_generator():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.process(lambda: None)


def test_yield_receives_event_value():
    eng = Engine()

    def body():
        got = yield eng.timeout(1.0, value=99)
        return got

    assert eng.run(until=eng.process(body())) == 99


def test_process_waits_on_another_process():
    eng = Engine()

    def child():
        yield eng.timeout(4.0)
        return "child-result"

    def parent():
        result = yield eng.process(child())
        return result

    assert eng.run(until=eng.process(parent())) == "child-result"
    assert eng.now == 4.0


def test_yielding_non_event_fails_the_process():
    eng = Engine()

    def body():
        yield 42

    proc = eng.process(body())
    with pytest.raises(SimulationError, match="non-event"):
        eng.run(until=proc)


def test_yielding_foreign_event_fails_the_process():
    eng, other = Engine(), Engine()

    def body():
        yield other.event()

    with pytest.raises(SimulationError, match="different engine"):
        eng.run(until=eng.process(body()))


def test_exception_in_body_propagates_to_waiter():
    eng = Engine()

    def body():
        yield eng.timeout(1.0)
        raise RuntimeError("worker died")

    with pytest.raises(RuntimeError, match="worker died"):
        eng.run(until=eng.process(body()))


def test_unwaited_process_failure_surfaces_at_run():
    eng = Engine()

    def body():
        yield eng.timeout(1.0)
        raise RuntimeError("silent death forbidden")

    eng.process(body())
    with pytest.raises(RuntimeError):
        eng.run()


def test_stop_process_sets_return_value():
    eng = Engine()

    def helper():
        raise StopProcess("early-exit")

    def body():
        yield eng.timeout(0.5)
        helper()

    assert eng.run(until=eng.process(body())) == "early-exit"


def test_interrupt_wakes_sleeping_process():
    eng = Engine()
    log = []

    def sleeper():
        try:
            yield eng.timeout(100.0)
        except Interrupt as intr:
            log.append(intr.cause)
        yield eng.timeout(1.0)
        return "recovered"

    proc = eng.process(sleeper())

    def interrupter():
        yield eng.timeout(2.0)
        proc.interrupt(cause="migration-request")

    eng.process(interrupter())
    assert eng.run(until=proc) == "recovered"
    assert log == ["migration-request"]
    assert eng.now == 3.0  # interrupted at t=2, then slept 1


def test_interrupt_dead_process_rejected():
    eng = Engine()

    def body():
        yield eng.timeout(1.0)

    proc = eng.process(body())
    eng.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupt_callback_chain_rejected():
    """A chained process has no generator to throw into."""
    eng = Engine()
    chain = Process.chained(eng, "frag-test")
    with pytest.raises(SimulationError, match="cannot interrupt callback"):
        chain.interrupt()
    # The refusal scheduled nothing and left the chain to finish itself.
    assert eng.peek() == float("inf") and chain.is_alive
    chain.succeed("done")
    assert eng.run(until=chain) == "done"
    assert repr(chain) == "<Process frag-test dead>"


def test_interrupted_target_event_still_fires_without_resuming():
    eng = Engine()
    hits = []

    def sleeper():
        try:
            yield eng.timeout(10.0)
            hits.append("timeout-path")
        except Interrupt:
            hits.append("interrupt-path")

    proc = eng.process(sleeper())

    def interrupter():
        yield eng.timeout(1.0)
        proc.interrupt()

    eng.process(interrupter())
    eng.run()
    assert hits == ["interrupt-path"]


def test_process_can_wait_on_already_processed_event():
    eng = Engine()
    done = eng.event()
    done.succeed("prompt")

    def late_waiter():
        yield eng.timeout(5.0)
        value = yield done
        return value

    assert eng.run(until=eng.process(late_waiter())) == "prompt"


def test_two_processes_interleave_deterministically():
    eng = Engine()
    log = []

    def ticker(name, period, n):
        for _ in range(n):
            yield eng.timeout(period)
            log.append((eng.now, name))

    eng.process(ticker("a", 2.0, 3))
    eng.process(ticker("b", 3.0, 2))
    eng.run()
    # At t=6 both tick; "b" armed its timeout at t=3, "a" at t=4, so "b"
    # was inserted first and processes first.
    assert log == [(2.0, "a"), (3.0, "b"), (4.0, "a"), (6.0, "b"), (6.0, "a")]


def test_active_process_visible_during_execution():
    eng = Engine()
    seen = []

    def body():
        seen.append(eng.active_process)
        yield eng.timeout(1.0)

    proc = eng.process(body())
    eng.run()
    assert seen == [proc]
    assert eng.active_process is None


def test_a_kept_failure_does_not_hold_the_process_that_failed():
    eng = Engine()

    def body():
        yield eng.timeout(1.0)
        raise KeyError("gone")

    proc = eng.process(body())
    proc.defuse()
    eng.run()
    error = proc.value
    frames = []
    tb = error.__traceback__
    while tb is not None:
        frames.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    # The generator's own frame stays; the engine's resume frame, which
    # held the process the error is kept in, does not.
    assert frames == ["body"]
    assert not eng._live


def test_closing_a_finished_process_does_nothing():
    eng = Engine()

    def body():
        yield eng.timeout(1.0)
        return "done"

    proc = eng.process(body())
    eng.run()
    proc.close()
    assert proc.value == "done"

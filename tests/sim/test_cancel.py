"""Cancel semantics: a cancelled event must leave no trace.

Pinned for both queue lanes and across the lane migration (an event
scheduled far-future, cancelled only after its instant rolled from the
far-lane heap into a near-lane FIFO), with and without the dispatch
loop's hooks (``kind_log`` / observers) attached.
"""

import pytest

from repro.sim.engine import DEFERRED, Engine, URGENT
from repro.sim.errors import SimulationError
from repro.sim.events import Event, Timeout


def _fired(event, log, label):
    event.callbacks.append(lambda e: log.append(label))
    return event


class TestNearLaneCancel:
    def test_cancelled_same_instant_event_never_fires(self):
        eng = Engine()
        log = []

        def driver(eng):
            victim = _fired(Event(eng).succeed("v"), log, "victim")
            _fired(Event(eng).succeed("w"), log, "witness")
            victim.cancel()
            yield eng.timeout(1.0)

        eng.process(driver(eng), name="driver")
        eng.run()
        assert log == ["witness"]

    def test_cancelled_deferred_event_never_fires(self):
        eng = Engine()
        log = []

        def driver(eng):
            victim = _fired(eng.defer("v"), log, "deferred-victim")
            victim.cancel()
            yield eng.timeout(1.0)

        eng.process(driver(eng), name="driver")
        eng.run()
        assert log == []

    def test_cancelled_urgent_event_never_fires(self):
        eng = Engine()
        log = []

        def driver(eng):
            victim = _fired(
                Event(eng).succeed("v", priority=URGENT), log, "urgent"
            )
            victim.cancel()
            yield eng.timeout(1.0)

        eng.process(driver(eng), name="driver")
        eng.run()
        assert log == []


class TestFarLaneCancel:
    def test_cancelled_far_future_timeout_never_fires(self):
        eng = Engine()
        log = []

        def driver(eng):
            victim = _fired(Timeout(eng, 5.0), log, "victim")
            yield eng.timeout(1.0)
            victim.cancel()
            yield eng.timeout(10.0)

        eng.process(driver(eng), name="driver")
        eng.run()
        assert log == []
        assert eng.now == 11.0

    def test_clock_still_advances_past_all_cancelled_instant(self):
        """An instant holding only cancelled entries still rolls the
        clock forward (peek may name it; dispatch drops it)."""
        eng = Engine()
        log = []

        def driver(eng):
            victim = _fired(Timeout(eng, 2.0), log, "victim")
            victim.cancel()
            yield eng.timeout(5.0)
            log.append(("end", eng.now))

        eng.process(driver(eng), name="driver")
        eng.run()
        assert log == [("end", 5.0)]


class TestLaneMigrationCancel:
    """Scheduled far-future, cancelled after rolling into the near lane."""

    def test_cancel_after_roll(self):
        eng = Engine()
        log = []
        # Both timeouts land at t=3.0.  The canceller is created first,
        # so it dispatches first at that instant — by then BOTH entries
        # have rolled from the far-lane heap into the NORMAL FIFO, and
        # the victim sits behind the canceller in the same deque.
        canceller = Timeout(eng, 3.0)
        victim = _fired(Timeout(eng, 3.0), log, "victim")
        canceller.callbacks.append(lambda e: victim.cancel())
        _fired(Timeout(eng, 3.0), log, "witness")
        eng.run()
        assert log == ["witness"]

    def test_cancel_after_roll_mixed_priorities(self):
        eng = Engine()
        log = []
        victim = Event(eng)
        witness = Event(eng)

        def driver(eng):
            yield eng.timeout(1.0)
            victim.succeed("v", priority=DEFERRED)
            witness.succeed("w", priority=DEFERRED)
            canceller = Event(eng).succeed("c", priority=URGENT)
            canceller.callbacks.append(lambda e: victim.cancel())

        _fired(victim, log, "victim")
        _fired(witness, log, "witness")
        eng.process(driver(eng), name="driver")
        eng.run()
        assert log == ["witness"]


class TestCancelAccounting:
    def _run_with_cancel(self, kind_log):
        eng = Engine()
        eng.kind_log = kind_log
        log = []

        def driver(eng):
            victim = _fired(Timeout(eng, 2.0), log, "victim")
            yield eng.timeout(1.0)
            victim.cancel()
            yield eng.timeout(3.0)

        eng.process(driver(eng), name="driver")
        eng.run()
        return eng, log

    def test_cancelled_event_not_counted_in_dispatched(self):
        plain, _ = self._run_with_cancel(None)
        # Same program with no cancellation dispatches one more event.
        eng = Engine()
        log = []

        def driver(eng):
            _fired(Timeout(eng, 2.0), log, "victim")
            yield eng.timeout(1.0)
            yield eng.timeout(3.0)

        eng.process(driver(eng), name="driver")
        eng.run()
        assert eng.dispatched == plain.dispatched + 1
        assert log == ["victim"]

    def test_cancelled_event_never_reaches_kind_log(self):
        kind_log = []
        eng, log = self._run_with_cancel(kind_log)
        assert log == []
        # Dispatched count and kind_log agree: the cancelled Timeout
        # appears in neither.
        assert len(kind_log) == eng.dispatched

    def test_cancelled_event_never_reaches_observers(self):
        eng = Engine()
        seen = []
        eng.add_observer(lambda now, event: seen.append(event))
        victim = Timeout(eng, 2.0)

        def driver(eng):
            yield eng.timeout(1.0)
            victim.cancel()
            yield eng.timeout(3.0)

        eng.process(driver(eng), name="driver")
        eng.run()
        assert victim not in seen
        assert len(seen) == eng.dispatched

    def test_cancelled_failed_event_does_not_reraise(self):
        eng = Engine()

        def driver(eng):
            doomed = Event(eng).fail(RuntimeError("boom"))
            doomed.cancel()
            yield eng.timeout(1.0)

        eng.process(driver(eng), name="driver")
        eng.run()  # would raise RuntimeError if the failure dispatched


class TestCancelValidation:
    def test_cancel_untriggered_event_raises(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.cancel(Event(eng))

    def test_cancel_processed_event_raises(self):
        eng = Engine()
        done = Event(eng).succeed("x")
        eng.run()
        with pytest.raises(SimulationError):
            done.cancel()

    def test_event_cancel_delegates_to_engine(self):
        eng = Engine()
        victim = Timeout(eng, 1.0)
        victim.cancel()
        assert victim in eng._cancelled

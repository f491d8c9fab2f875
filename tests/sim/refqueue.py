"""The pre-two-lane scheduling discipline, kept as a test oracle.

:class:`ReferenceEngine` re-implements the engine's event queue the way
it was before the two-lane rewrite: one flat heap of ``(time, priority,
seq, event)`` tuples, *every* event paying the tuple allocation and the
O(log n) sift — including the dominant same-instant traffic the
production engine now routes through its near-lane FIFOs.

It exists so the differential oracle (``tests/sim/test_queue_oracle.py``)
can drive randomized schedules through both implementations and assert
the dispatch order is identical entry for entry.  The flat heap *is*
the definition of the engine's total order — ``(time, priority, seq)``
lexicographically — so agreement with it proves the two-lane queue
preserved that order exactly.

This module is deliberately simple rather than fast, and lives with
the tests that use it: nothing in the package imports it.
"""

from heapq import heappop, heappush
from itertools import count
from time import perf_counter

from repro.sim.engine import Engine, NORMAL
from repro.sim.errors import EmptySchedule, SimulationError
from repro.sim.events import Event, PENDING

_INF = float("inf")


class ReferenceEngine(Engine):
    """An :class:`~repro.sim.engine.Engine` with the original flat heap.

    Behaviourally identical to the production engine (same factories,
    same event semantics, same cancel-by-mark API); only the queue data
    structure differs.  Cancelled entries are dropped when they surface
    at the top of the heap, exactly as the two-lane engine drops them
    when they surface in a lane.
    """

    def __init__(self, initial_time=0.0):
        super().__init__(initial_time)
        #: The flat queue: (time, priority, seq, event), heap-ordered.
        self._ref_heap = []
        self._ref_seq = count()

    # -- scheduling ---------------------------------------------------------
    def schedule(self, event, delay=0.0, priority=None):
        """Queue ``event`` at ``now + delay`` on the flat heap."""
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay})"
            )
        if priority is None:
            priority = NORMAL
        elif not 0 <= priority <= 2:
            raise SimulationError(f"unknown scheduling priority {priority!r}")
        heappush(
            self._ref_heap,
            (self._now + delay, priority, next(self._ref_seq), event),
        )

    def _ready(self, event):
        """The engine's same-instant hot path, through the flat heap."""
        self.schedule(event)

    def _after(self, event, delay):
        """The engine's timeout hot path, through the flat heap."""
        self.schedule(event, delay)

    def cancel(self, event):
        """Mark ``event`` cancelled; dropped when its entry surfaces."""
        if event._value is PENDING:
            raise SimulationError(f"cannot cancel untriggered {event!r}")
        if event.callbacks is None:
            raise SimulationError(f"cannot cancel processed {event!r}")
        self._cancelled.add(event)

    def peek(self):
        """Time of the next queue entry, or ``inf`` if none remain."""
        return self._ref_heap[0][0] if self._ref_heap else _INF

    # -- dispatch -----------------------------------------------------------
    def _pop_live(self):
        """Pop the next non-cancelled event, advancing the clock.

        Returns ``None`` once the heap is empty.  The clock advances to
        each popped entry's timestamp, cancelled or not, mirroring the
        two-lane engine (whose roll advances the clock even when every
        entry at that instant was cancelled).
        """
        heap = self._ref_heap
        cancelled = self._cancelled
        while heap:
            when, _, _, event = heappop(heap)
            self._now = when
            if cancelled and event in cancelled:
                cancelled.discard(event)
                continue
            return event
        return None

    def _dispatch(self, event):
        # Same per-event sequence as the production loops: kind-log
        # append, callbacks, observer fan-out.
        log = self.kind_log
        if log is not None:
            log.append(event.__class__)
        event._process()
        for fn in self._observers:
            fn(self._now, event)

    def step(self):
        """Process exactly one event (EmptySchedule if none remain)."""
        event = self._pop_live()
        if event is None:
            raise EmptySchedule("no scheduled events remain") from None
        self.dispatched += 1
        log = self.kind_log
        if log is not None:
            log.append(event.__class__)
        event._process()
        for fn in self._observers:
            fn(self._now, event)

    def run(self, until=None):
        """Run the simulation; same contract as :meth:`Engine.run`."""
        entered = perf_counter()
        dispatched = 0
        try:
            if until is None:
                while True:
                    event = self._pop_live()
                    if event is None:
                        return None
                    dispatched += 1
                    self._dispatch(event)

            if isinstance(until, Event):
                while until.callbacks is not None:
                    event = self._pop_live()
                    if event is None:
                        raise SimulationError(
                            "run(until=event) exhausted all events before "
                            "the target event triggered — deadlock?"
                        )
                    dispatched += 1
                    self._dispatch(event)
                if until._ok:
                    return until._value
                until.defuse()
                raise until._value

            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"until={horizon} is in the past (now={self._now})"
                )
            heap = self._ref_heap
            cancelled = self._cancelled
            while heap and heap[0][0] < horizon:
                when, _, _, event = heappop(heap)
                self._now = when
                if cancelled and event in cancelled:
                    cancelled.discard(event)
                    continue
                dispatched += 1
                self._dispatch(event)
            self._now = horizon
            return None
        finally:
            self.dispatched += dispatched
            self.wall_s += perf_counter() - entered

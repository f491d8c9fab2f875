"""One-shot events: the synchronisation primitive of the kernel.

An :class:`Event` moves through three states: *pending* (created, not yet
triggered), *triggered* (scheduled on the engine queue with a value or an
error) and *processed* (its callbacks have run).  Processes wait on events
by ``yield``-ing them; the engine resumes the process when the event is
processed.
"""

from repro.sim.errors import SimulationError

PENDING = object()


class Event:
    """A one-shot occurrence that other activities can wait for.

    Parameters
    ----------
    engine:
        The :class:`~repro.sim.engine.Engine` this event belongs to.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, engine):
        self.engine = engine
        #: Callables invoked (with this event) once the event is processed.
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False

    def __repr__(self):
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    @property
    def triggered(self):
        """True once the event has been scheduled with a value or error."""
        return self._value is not PENDING

    @property
    def processed(self):
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self):
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self):
        """The value (or exception instance) the event was triggered with."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value=None, priority=None):
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        if priority is None:
            self.engine._ready(self)
        else:
            self.engine.schedule(self, 0.0, priority)
        return self

    def fail(self, exception, priority=None):
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the
        event.  If nothing ever waits, the engine raises it at the end of
        the run (unless :meth:`defused` was called), so failures never
        pass silently.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.engine.schedule(self, 0.0, priority)
        return self

    def defuse(self):
        """Mark a failed event as handled so the engine won't re-raise it."""
        self._defused = True

    def cancel(self):
        """Cancel this scheduled event (O(1) mark; it will never fire).

        Delegates to :meth:`Engine.cancel
        <repro.sim.engine.Engine.cancel>` — see there for semantics.
        """
        self.engine.cancel(self)

    # -- engine interface -------------------------------------------------
    def _process(self):
        """Run callbacks; called by the engine when the event is popped."""
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)
        if not self._ok and not self._defused:
            raise self._value


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Born triggered: the constructor inlines ``Event.__init__`` plus the
    succeed-and-schedule sequence (timeouts are the single most common
    event on the engine hot path, so the two extra calls matter).
    """

    __slots__ = ("delay",)

    def __init__(self, engine, delay, value=None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        engine._after(self, delay)

    def __repr__(self):
        return f"<Timeout delay={self.delay}>"


class Condition(Event):
    """Waits for a boolean combination of other events.

    The condition succeeds with a dict mapping each *triggered* constituent
    event to its value.  If any constituent fails before the condition is
    met, the condition fails with that exception.
    """

    __slots__ = ("_events", "_evaluate", "_count")

    def __init__(self, engine, evaluate, events):
        super().__init__(engine)
        self._evaluate = evaluate
        self._events = tuple(events)
        self._count = 0
        for event in self._events:
            if event.engine is not engine:
                raise SimulationError("events from different engines")
        # Register after validation so partial registration can't happen.
        for event in self._events:
            if event.processed:
                self._check(event)
            elif self._value is PENDING:
                event.callbacks.append(self._check)
        if not self._events and not self.triggered:
            self.succeed({})

    def _collect_values(self):
        # Only events whose callbacks have run count as "happened";
        # Timeouts are triggered from birth but have not occurred yet.
        return {e: e._value for e in self._events if e.processed}

    def _check(self, event):
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())
        else:
            return
        # Settled: a constituent still pending would only call back
        # into it, and holds it meanwhile (an unanswered request beside
        # the deadline that won, say).  Let them go.
        check = self._check
        for other in self._events:
            if other.callbacks:
                try:
                    other.callbacks.remove(check)
                except ValueError:
                    pass


class AllOf(Condition):
    """Succeeds once *all* constituent events have succeeded."""

    __slots__ = ()

    def __init__(self, engine, events):
        super().__init__(engine, lambda events, count: count == len(events), events)


class AnyOf(Condition):
    """Succeeds once *any* constituent event has succeeded."""

    __slots__ = ()

    def __init__(self, engine, events):
        super().__init__(engine, lambda events, count: count >= 1, events)

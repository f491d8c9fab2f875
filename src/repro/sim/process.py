"""Generator-based simulated processes."""

from repro.sim.errors import Interrupt, SimulationError, StopProcess
from repro.sim.events import Event, PENDING


class Process(Event):
    """A coroutine driven by the engine.

    A process wraps a generator.  Each value the generator yields must be
    an :class:`Event`; the process sleeps until that event is processed
    and is resumed with the event's value (or the event's exception raised
    at the yield point).  The process object is itself an event that
    succeeds with the generator's return value, so processes can wait on
    one another simply by yielding them.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, engine, generator, name=None):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(engine)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process currently waits on (None while running).
        self._target = None
        engine._live[self] = None
        # Kick the process off via an initialisation event so that the
        # body only starts running once the engine does.
        init = Event(engine)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        engine._ready(init)

    @classmethod
    def chained(cls, engine, name):
        """A process with no generator, for a callback chain to finish.

        The chain does the work with event callbacks and ends it with
        ``succeed``/``fail`` on the returned object, which waiters see,
        and the engine dispatches, as a process named ``name``.  Nothing
        is scheduled here (the chain schedules its own first event), and
        :meth:`interrupt` refuses the result.
        """
        process = cls.__new__(cls)
        process.engine = engine
        process.callbacks = []
        process._value = PENDING
        process._ok = None
        process._defused = False
        process._generator = None
        process.name = name
        process._target = None
        return process

    def __repr__(self):
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name} {state}>"

    @property
    def is_alive(self):
        """True until the generator finishes or fails."""
        return self._value is PENDING

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at its yield point.

        Interrupting a dead process is an error; interrupting a waiting
        process detaches it from its current target event (the event
        itself still fires, but no longer resumes this process).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead {self!r}")
        if self.engine.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        if self._generator is None:
            raise SimulationError(f"cannot interrupt callback chain {self!r}")
        # Deliver asynchronously (via an immediately-scheduled event) to
        # keep event ordering deterministic.
        interrupt_event = Event(self.engine)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        interrupt_event.callbacks.append(self._resume)
        self.engine.schedule(interrupt_event)

    def close(self):
        """Drop a process that will never run again.

        Detaches it from the event it waits on and closes its generator
        (which raises ``GeneratorExit`` at the yield point), scheduling
        nothing.  A suspended generator holds its owner, which usually
        holds this process, so only closing it lets reference counting
        free the two.  Closing a finished process does nothing.
        """
        self.engine._live.pop(self, None)
        target, self._target = self._target, None
        if target is not None and target.callbacks is not None:
            target.callbacks.remove(self._resume)
        if self._generator is not None:
            self._generator.close()

    # -- engine interface ----------------------------------------------------
    def _resume(self, event):
        """Advance the generator with ``event``'s outcome."""
        engine = self.engine
        engine.active_process = self
        self._target = None
        generator = self._generator
        send = generator.send
        try:
            while True:
                try:
                    if event is None or event._ok:
                        target = send(None if event is None else event._value)
                    else:
                        event.defuse()
                        target = generator.throw(event._value)
                except (StopIteration, StopProcess) as stop:
                    engine._live.pop(self, None)
                    if self._value is PENDING:
                        self.succeed(stop.value)
                    return
                except BaseException as error:
                    engine._live.pop(self, None)
                    if self._value is PENDING:
                        # Keep the generator's frames but not this one,
                        # which holds the process the error is kept in.
                        self.fail(error.with_traceback(
                            error.__traceback__.tb_next
                        ))
                        return
                    raise

                if not isinstance(target, Event):
                    kind = type(target).__name__
                    self.fail(
                        SimulationError(
                            f"process {self.name!r} yielded a non-event "
                            f"({kind}); yield Events, Timeouts or Processes"
                        )
                    )
                    return
                if target.engine is not engine:
                    self.fail(
                        SimulationError(
                            f"process {self.name!r} yielded an event from "
                            "a different engine"
                        )
                    )
                    return

                callbacks = target.callbacks
                if callbacks is None:
                    # Already resolved — continue synchronously.
                    event = target
                    continue
                callbacks.append(self._resume)
                self._target = target
                return
        finally:
            engine.active_process = None

"""The simulation engine: two-lane event queue and simulated clock.

The event queue is split into two lanes that together preserve the
exact ``(time, priority, seq)`` total order of the original flat heap:

* **Near lane** — three plain FIFO deques (URGENT / NORMAL / DEFERRED),
  holding every event scheduled for the *current instant*.  Same-instant
  scheduling dominates real workloads (``succeed``/``fail`` resumptions,
  zero-delay timeouts, the DEFERRED batching window), and a deque append
  or popleft is O(1) with no tuple allocation and no sequence-counter
  traffic.
* **Far lane** — the classic heap, holding only events strictly in the
  future.  When every near-lane deque is empty, the engine *rolls* the
  next instant: it pops every heap entry sharing the earliest timestamp
  into the near-lane deques (heap pops at one timestamp come out in
  ``(priority, seq)`` order, so each deque stays seq-sorted) and then
  advances the clock once.

Why the order is provably unchanged: near-lane entries always carry
``time == now`` (they are pushed while an event at ``now`` is being
dispatched, and the clock cannot advance while the near lane is
non-empty because its entries are the global minimum), and far-lane
entries always carry ``time > now`` (pushes compute ``now + delay`` and
route ``== now`` results to the near lane).  A rolled entry was pushed
at an earlier instant than any same-timestamp near-lane append that
follows it, so the roll-then-append order *is* seq order.  The
differential oracle in ``tests/sim/test_queue_oracle.py`` checks this
against the original flat-heap implementation
(:class:`repro.sim.refqueue.ReferenceEngine`) over randomized
schedules.

Cancellation is O(1) by mark: :meth:`Engine.cancel` records the event
in a small set and the dispatch loop drops marked entries when they
surface, without scanning either lane.  A cancelled event is never
dispatched: it does not advance ``dispatched``, never reaches the
``kind_log`` or observers, and its callbacks never run.

The pop-roll-skip-dispatch sequence exists once, in
:meth:`Engine._loop`, which serves every :meth:`Engine.run` mode.  The
engine profiler (:mod:`repro.obs.prof`) installs nothing in it.
"""

import heapq
from itertools import count
from collections import deque
from time import perf_counter

from repro.sim.errors import EmptySchedule, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, PENDING, Timeout
from repro.sim.process import Process

#: Default scheduling priority.
NORMAL = 1
#: Events scheduled with URGENT at the same timestamp run first.
URGENT = 0
#: Events scheduled with DEFERRED at the same timestamp run after every
#: NORMAL event already due at that instant — the batching window used
#: to coalesce same-instant imaginary faults into one request.
DEFERRED = 2

#: When set to a list (see :func:`repro.obs.prof.profiled`), every
#: Engine built afterwards appends itself to it.
PROFILED = None

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")


class Engine:
    """Discrete-event engine with a deterministic total order of events.

    Events scheduled for the same simulated time are ordered by priority
    and then by insertion sequence, so runs are fully reproducible.

    Example
    -------
    >>> eng = Engine()
    >>> def hello(eng):
    ...     yield eng.timeout(3.5)
    ...     return "done"
    >>> proc = eng.process(hello(eng))
    >>> eng.run(proc)
    'done'
    >>> eng.now
    3.5
    """

    def __init__(self, initial_time=0.0):
        self._now = float(initial_time)
        #: Far lane: (time, priority, seq, event) tuples, time > now.
        self._heap = []
        #: Near lane: one FIFO per priority, every entry at time == now.
        self._lane_urgent = deque()
        self._lane_normal = deque()
        self._lane_deferred = deque()
        #: Priority-indexed view of the near lane (URGENT=0 .. DEFERRED=2).
        self._lanes = (self._lane_urgent, self._lane_normal,
                       self._lane_deferred)
        #: Heap-lane insertion sequence (near-lane FIFOs need no seq:
        #: append order is seq order within a lane).
        self._seq = count()
        #: Events cancelled by mark (see :meth:`cancel`); the dispatch
        #: loop discards them when they surface.  Empty almost always,
        #: so the per-event residue is one truthiness test.
        self._cancelled = set()
        self.active_process = None
        #: Observers ``fn(now, event)`` invoked after each event is
        #: processed (see :class:`repro.sim.trace.TraceLog`).  Use
        #: :meth:`add_observer` / :meth:`remove_observer`; several can
        #: coexist (two TraceLogs, say) without clobbering each other.
        self._observers = []
        #: Events processed so far (cheap dispatch count for obs).
        self.dispatched = 0
        #: Host wall-clock seconds spent inside the dispatch loop — two
        #: ``perf_counter`` reads per ``run()`` call, never per event.
        #: Simulated outputs ignore it; the observability layer reports
        #: it (events/s, ``repro diff`` wall deltas).
        self.wall_s = 0.0
        # kind -> last issued id (see :meth:`serial`).
        self._serials = {}
        #: When set to a list, dispatch appends each processed event's
        #: class — the instrumentation layer's cheapest hook
        #: (``list.append`` is ~4x cheaper per event than a Counter
        #: increment, and an observer callback costs more still); the
        #: log is folded into per-kind counts at export time.
        self.kind_log = None
        if PROFILED is not None:
            PROFILED.append(self)

    def __repr__(self):
        pending = (len(self._heap) + len(self._lane_urgent)
                   + len(self._lane_normal) + len(self._lane_deferred))
        return f"<Engine t={self._now:.6f} pending={pending}>"

    @property
    def now(self):
        """Current simulated time in seconds."""
        return self._now

    def clock(self):
        """:attr:`now` as a plain method — a pre-bound callable for
        hot readers (one call, no lambda or descriptor hop)."""
        return self._now

    # -- observers ----------------------------------------------------------
    @property
    def observer(self):
        """The sole observer, None if none, or a tuple if several.

        Assigning replaces *all* observers (legacy single-observer
        behaviour); use :meth:`add_observer` to stack observers without
        clobbering ones already installed.
        """
        if not self._observers:
            return None
        if len(self._observers) == 1:
            return self._observers[0]
        return tuple(self._observers)

    @observer.setter
    def observer(self, fn):
        self._observers = [] if fn is None else [fn]

    def add_observer(self, fn):
        """Append ``fn(now, event)`` to the observer fan-out list."""
        self._observers.append(fn)

    def remove_observer(self, fn):
        """Remove one installed observer (no-op if absent)."""
        try:
            self._observers.remove(fn)
        except ValueError:
            pass

    def serial(self, kind):
        """Next id (1, 2, ...) in this engine's ``kind`` sequence.

        World-scoped ids keep exports replayable: two worlds built from
        the same seed number their faults and segments identically,
        where a module-global counter would leak position across runs
        within one interpreter.
        """
        value = self._serials.get(kind, 0) + 1
        self._serials[kind] = value
        return value

    # -- factories ---------------------------------------------------------
    def event(self):
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def defer(self, value=None):
        """Event that fires at the current instant, after NORMAL events.

        A zero-delay wait at :data:`DEFERRED` priority: every NORMAL
        event already scheduled for ``now`` runs first.  This is the
        coalescing window the batched fault path uses — faults raised
        in the same instant all reach the collector before the leader's
        deferred wakeup closes it.
        """
        event = Event(self)
        event.succeed(value, priority=DEFERRED)
        return event

    def process(self, generator, name=None):
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events):
        """Event that fires once every event in ``events`` has succeeded."""
        return AllOf(self, events)

    def any_of(self, events):
        """Event that fires once any event in ``events`` has succeeded."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def schedule(self, event, delay=0.0, priority=None):
        """Queue a triggered event for processing at ``now + delay``.

        Same-instant events (``delay == 0``, or a delay so small the
        timestamp rounds back to ``now``) go to the near-lane FIFO for
        their priority; strictly-future events go to the far-lane heap.
        ``priority`` must be one of :data:`URGENT`, :data:`NORMAL`,
        :data:`DEFERRED` (or ``None`` for NORMAL).
        """
        if priority is None:
            priority = NORMAL
        elif not 0 <= priority <= 2:
            raise SimulationError(f"unknown scheduling priority {priority!r}")
        if delay == 0.0:
            self._lanes[priority].append(event)
            return
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        now = self._now
        when = now + delay
        if when == now:
            # A denormal-small delay that rounds back to the current
            # instant — near-lane, so the far lane stays strictly future.
            self._lanes[priority].append(event)
            return
        _heappush(self._heap, (when, priority, next(self._seq), event))

    def _ready(self, event):
        """Queue a triggered event at ``now`` with NORMAL priority.

        The hot-path form of ``schedule(event)``, used by
        ``Event.succeed``, resource grants and process start-up.  It is
        a method (not a bare lane append at the call sites) so that
        :class:`~repro.sim.refqueue.ReferenceEngine` routes the same
        calls through its flat heap.
        """
        self._lane_normal.append(event)

    def _after(self, event, delay):
        """Queue a triggered event at ``now + delay`` with NORMAL priority.

        The hot-path form of ``schedule(event, delay)`` for callers that
        have already rejected negative delays (``Timeout``); overridden
        by :class:`~repro.sim.refqueue.ReferenceEngine` like
        :meth:`_ready`.
        """
        now = self._now
        when = now + delay
        if when == now:
            self._lane_normal.append(event)
        else:
            _heappush(self._heap, (when, NORMAL, next(self._seq), event))

    def cancel(self, event):
        """Cancel a scheduled event in O(1): mark it; the dispatch loop
        drops it when its queue entry surfaces.

        The event must be triggered (scheduled) and not yet processed.
        A cancelled event never fires: its callbacks never run, it is
        not counted in :attr:`dispatched`, and it never reaches the
        ``kind_log`` or observers — in either lane, including entries
        that have already rolled from the far-lane heap into the
        near-lane FIFOs.  A cancelled *failed* event will not re-raise
        at the end of the run.
        """
        if event._value is PENDING:
            raise SimulationError(f"cannot cancel untriggered {event!r}")
        if event.callbacks is None:
            raise SimulationError(f"cannot cancel processed {event!r}")
        self._cancelled.add(event)

    def peek(self):
        """Time of the next scheduled event, or ``inf`` if none remain.

        Cancelled-but-unpopped entries still occupy their slot, so
        ``peek`` may report the instant of an event that will be
        dropped rather than dispatched.
        """
        if self._lane_urgent or self._lane_normal or self._lane_deferred:
            return self._now
        return self._heap[0][0] if self._heap else _INF

    def _roll(self):
        """Advance to the next scheduled instant: move every far-lane
        entry sharing the earliest timestamp into the near-lane FIFOs.

        Heap pops at a fixed timestamp come out in ``(priority, seq)``
        order, so each FIFO receives its entries seq-sorted, and every
        same-instant append that follows carries a later seq — the
        flat-heap total order is preserved exactly.
        """
        heap = self._heap
        when = heap[0][0]
        lanes = self._lanes
        while heap and heap[0][0] == when:
            entry = _heappop(heap)
            lanes[entry[1]].append(entry[3])
        self._now = when

    def _next_live(self):
        """Pop the next non-cancelled event, or raise EmptySchedule.

        Rolls the far lane as needed; the clock may advance past
        instants whose every entry was cancelled.
        """
        lane_urgent = self._lane_urgent
        lane_normal = self._lane_normal
        lane_deferred = self._lane_deferred
        cancelled = self._cancelled
        while True:
            if lane_urgent:
                event = lane_urgent.popleft()
            elif lane_normal:
                event = lane_normal.popleft()
            elif lane_deferred:
                event = lane_deferred.popleft()
            elif self._heap:
                self._roll()
                continue
            else:
                raise EmptySchedule("no scheduled events remain") from None
            if cancelled and event in cancelled:
                cancelled.discard(event)
                continue
            return event

    def step(self):
        """Process exactly one event; raise :class:`EmptySchedule` if none."""
        event = self._next_live()
        self.dispatched += 1
        log = self.kind_log
        if log is not None:
            log.append(event.__class__)
        event._process()
        for fn in self._observers:
            fn(self._now, event)

    def run(self, until=None):
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain and return ``None``.
            An :class:`Event` — run until it is processed; return its
            value (or raise its exception).  A number — process every
            event scheduled strictly before that time, then set the clock
            to it.

        The three modes share one loop (:meth:`_loop`): no horizon
        is a horizon of ``inf``, and only ``until=event`` sets a target,
        whose processing ends the run.  Near-lane entries always sit at
        ``now`` and the clock moves only in a roll, which tests the
        horizon, so the only other horizon test is the one here at
        entry: ``run(until=now)`` dispatches nothing.
        """
        target = None
        horizon = _INF
        if isinstance(until, Event):
            target = until
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"until={horizon} is in the past (now={self._now})"
                )
        if self._now < horizon:
            self._loop(target, horizon)
        if target is not None:
            if target._ok:
                return target._value
            target.defuse()
            raise target._value
        if until is not None:
            self._now = horizon
        return None

    def _loop(self, target, horizon):
        """The dispatch loop: pop, roll, skip cancelled, dispatch.

        Returns once ``target`` (if any) is processed, the next instant
        reaches ``horizon``, or the queue drains — the last an error
        while a target is pending.  ``Event._process`` is inlined
        (events do not override it).

        The ``kind_log`` gets each event's class before its callbacks
        run and each observer ``fn(now, event)`` after them; both only
        observe, so every simulated output is the same with or without
        them.  Without them the per-event residue is two tests.  A
        separate instrument-free copy of this loop measured about 1% more
        events/s on the 16-host/64-process stress shape (paired medians,
        one pinned core of a 2-vCPU VM), short of the 3% it must earn.
        """
        log = self.kind_log
        observers = list(self._observers)
        entered = perf_counter()
        heap = self._heap
        lane_urgent = self._lane_urgent
        lane_normal = self._lane_normal
        lane_deferred = self._lane_deferred
        lanes = self._lanes
        cancelled = self._cancelled
        pop = _heappop
        dispatched = 0
        try:
            while target is None or target.callbacks is not None:
                if lane_urgent:
                    event = lane_urgent.popleft()
                elif lane_normal:
                    event = lane_normal.popleft()
                elif lane_deferred:
                    event = lane_deferred.popleft()
                elif heap:
                    when = heap[0][0]
                    if when >= horizon:
                        return
                    while heap and heap[0][0] == when:
                        entry = pop(heap)
                        lanes[entry[1]].append(entry[3])
                    self._now = when
                    continue
                elif target is None:
                    return
                else:
                    raise SimulationError(
                        "run(until=event) exhausted all events before "
                        "the target event triggered — deadlock?"
                    )
                if cancelled and event in cancelled:
                    cancelled.discard(event)
                    continue
                dispatched += 1
                if log is not None:
                    log.append(event.__class__)
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
                if observers:
                    now = self._now
                    for fn in observers:
                        fn(now, event)
        finally:
            self.dispatched += dispatched
            self.wall_s += perf_counter() - entered

"""Counted resources with FIFO queueing.

A :class:`Resource` models a server with a fixed number of identical
slots — a CPU handling NetMsgServer messages, a disk arm, a half-duplex
link.  Processes ``yield resource.request()`` to acquire a slot and call
``resource.release(request)`` when done; contention produces queueing
delay, which is how transfer-phase elapsed times emerge in the testbed
simulation.
"""

from collections import deque

from repro.sim.errors import SimulationError
from repro.sim.events import Event, PENDING


class Preempted(Exception):
    """Raised in a request holder evicted by :meth:`Resource.preempt`."""


class _Held:
    """Hand-rolled context manager for :meth:`Resource.held`.

    Workload jobs enter/exit one of these per trace step, so the
    generator machinery of ``contextlib.contextmanager`` is measurable
    engine time; a plain slotted class is several times cheaper.
    """

    __slots__ = ("resource", "request")

    def __init__(self, resource):
        self.resource = resource
        self.request = None

    def __enter__(self):
        self.request = self.resource.request()
        return self.request

    def __exit__(self, exc_type, exc, tb):
        self.resource.release(self.request)
        return False


class Request(Event):
    """Event returned by :meth:`Resource.request`; fires when granted.

    Created once per slot acquisition — the constructor inlines
    ``Event.__init__`` (like :class:`~repro.sim.events.Timeout` does)
    because workload jobs acquire a slot per trace step.
    """

    __slots__ = ("resource",)

    def __init__(self, resource):
        self.engine = resource.engine
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.resource = resource


class Resource:
    """``capacity`` identical slots granted in FIFO order."""

    def __init__(self, engine, capacity=1, name=None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name or "resource"
        self._waiting = deque()
        self._users = []
        #: Total simulated time slots have spent busy (for utilisation).
        self.busy_time = 0.0
        self._last_change = engine.now

    def __repr__(self):
        return (
            f"<Resource {self.name} users={len(self._users)}/{self.capacity} "
            f"queued={len(self._waiting)}>"
        )

    @property
    def count(self):
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queued(self):
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self):
        """Ask for a slot; returns an event that fires once granted.

        A free slot is granted on the spot: the request joins the users
        and its grant event is scheduled at once, exactly as the FIFO
        hand-off in :meth:`_grant` would, without a trip through the
        queue (a free slot means nobody waits).
        """
        engine = self.engine
        now = engine._now
        users = self._users
        self.busy_time += len(users) * (now - self._last_change)
        self._last_change = now
        req = Request(self)
        if len(users) < self.capacity:
            users.append(req)
            req._ok = True
            req._value = req
            engine._ready(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, request):
        """Return a previously-granted slot.

        A released request's value drops its reference to itself, so a
        finished request is freed by reference counting rather than
        left for the cyclic garbage collector.
        """
        now = self.engine._now
        users = self._users
        self.busy_time += len(users) * (now - self._last_change)
        self._last_change = now
        try:
            users.remove(request)
        except ValueError:
            # Releasing an ungranted request cancels it instead.
            try:
                self._waiting.remove(request)
                return
            except ValueError:
                raise SimulationError(
                    f"release of request not held on {self.name!r}"
                ) from None
        request._value = None
        if self._waiting:
            self._grant()

    def held(self):
        """Context manager for use inside processes::

            with resource.held() as req:
                yield req          # wait for the grant
                yield engine.timeout(service_time)

        The slot is released when the block exits (even on error).
        """
        return _Held(self)

    def utilisation(self, elapsed=None):
        """Fraction of capacity-time spent busy since creation."""
        self._account()
        horizon = elapsed if elapsed is not None else self.engine.now
        if horizon <= 0:
            return 0.0
        return self.busy_time / (horizon * self.capacity)

    # -- internals -----------------------------------------------------------
    def _account(self):
        now = self.engine._now
        self.busy_time += len(self._users) * (now - self._last_change)
        self._last_change = now

    def _grant(self):
        waiting = self._waiting
        users = self._users
        engine = self.engine
        while waiting and len(users) < self.capacity:
            req = waiting.popleft()
            users.append(req)
            req._ok = True
            req._value = req
            engine._ready(req)

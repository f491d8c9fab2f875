"""Concurrent-migration admission control and queueing.

One :class:`ClusterScheduler` serves a whole
:class:`~repro.testbed.TestbedWorld`.  Callers :meth:`~ClusterScheduler.submit`
moves; the scheduler enforces three rules:

* **One migration per process.**  A submission for a process that is
  already queued or in flight is rejected immediately (outcome
  ``"rejected"``) — the Accent protocol cannot excise a process that is
  mid-excision elsewhere.
* **Per-host in-flight cap.**  A migration claims one slot at its
  source *and* one at its destination (both hosts run a manager, a
  NetMsgServer and a pager for it).  A submission whose endpoints are
  saturated waits in a FIFO queue; the first *admissible* entry is
  admitted whenever a slot frees, so one hot host never blocks moves
  between idle ones.
* **Bounded queue (optional).**  With ``queue_limit`` set, submissions
  beyond it are rejected (``"queue-full"``) instead of queued.

Each admitted migration runs in its own driver process: an optional
``prepare`` hook (the load balancer passes the job's cooperative
pause), the ExciseProcess → Core/RIMAS → InsertProcess protocol, and
slot release.  Residual imaginary-fault traffic from earlier moves
interleaves freely with in-flight shipments — correctness rests on the
per-process phase stacks and ship-time byte attribution in
:mod:`repro.obs`, which keep each migration's trace DAG disjoint.
"""

from collections import deque

from repro.migration.manager import MigrationAborted
from repro.migration.strategy import PURE_IOU

#: Freeze/wait histogram bounds: migrations run seconds, and queueing
#: under contention stretches to tens of seconds.
CLUSTER_SECONDS_BUCKETS = (
    0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 7.5, 10.0, 15.0, 20.0, 30.0, 60.0,
)


class MigrationTicket:
    """One submitted move and everything measured about it."""

    __slots__ = (
        "process_name", "source", "dest", "strategy", "prepare",
        "submitted_at", "admitted_at", "frozen_at", "finished_at",
        "outcome", "reason", "inserted", "done",
    )

    def __init__(self, engine, process_name, source, dest, strategy, prepare):
        self.process_name = process_name
        self.source = source
        self.dest = dest
        self.strategy = strategy
        self.prepare = prepare
        self.submitted_at = engine.now
        #: When the scheduler granted slots (None while queued).
        self.admitted_at = None
        #: When the process was actually quiescent and excision began.
        self.frozen_at = None
        self.finished_at = None
        #: Terminal state: "completed", "aborted" (rolled back to the
        #: source), "skipped" (process gone by admission time — it
        #: finished while queued), or "rejected" (never admitted).
        self.outcome = None
        #: Human-readable cause when not "completed".
        self.reason = None
        #: The re-incarnated process at the destination ("completed"),
        #: until a job's ``settle`` takes it.
        self.inserted = None
        #: Fires once the move reaches a terminal state.
        self.done = engine.event()

    def __repr__(self):
        state = self.outcome or (
            "active" if self.admitted_at is not None else "queued"
        )
        return (
            f"<MigrationTicket {self.process_name} "
            f"{self.source}->{self.dest} {state}>"
        )

    @property
    def wait_s(self):
        """Queueing delay: submission to admission (None if rejected)."""
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.submitted_at

    @property
    def freeze_s(self):
        """How long the process was frozen: quiescent at the source to
        inserted at the destination (None unless completed)."""
        if self.outcome != "completed" or self.frozen_at is None:
            return None
        return self.finished_at - self.frozen_at


def check_inflight_cap(inflight_cap):
    """Reject a per-host in-flight cap below one with a ValueError."""
    if inflight_cap < 1:
        raise ValueError(f"inflight_cap must be >= 1, got {inflight_cap}")


class ClusterScheduler:
    """Admits up to ``inflight_cap`` concurrent migrations per host."""

    def __init__(self, world, inflight_cap=4, queue_limit=None):
        check_inflight_cap(inflight_cap)
        self.world = world
        self.engine = world.engine
        self.inflight_cap = inflight_cap
        self.queue_limit = queue_limit
        #: Every ticket ever submitted, in submission order.
        self.tickets = []
        self._pending = deque()
        #: process name -> active ticket.
        self._active = {}
        #: Names queued or active (duplicate-submission guard).
        self._names = set()
        #: host name -> migrations currently holding a slot there.
        self._host_inflight = {}
        #: (time, in-flight count, queue depth) at every transition.
        self.samples = []
        self.peak_inflight = 0
        self.peak_queue = 0
        self.peak_host_inflight = 0
        self._drained = None
        registry = world.obs.registry
        self._outcomes = registry.counter(
            "cluster_migrations_total", labels=("outcome",)
        )
        self._inflight_gauge = registry.gauge("cluster_inflight")
        self._queue_gauge = registry.gauge("cluster_queue_depth")
        self._freeze_hist = registry.histogram(
            "cluster_freeze_seconds", buckets=CLUSTER_SECONDS_BUCKETS
        )
        self._wait_hist = registry.histogram(
            "cluster_wait_seconds", buckets=CLUSTER_SECONDS_BUCKETS
        )
        # Register with the world's continuous sampler, if it has one.
        telemetry = world.obs.telemetry
        if telemetry is not None:
            telemetry.add_scheduler(self)

    def __repr__(self):
        return (
            f"<ClusterScheduler cap={self.inflight_cap} "
            f"active={len(self._active)} queued={len(self._pending)}>"
        )

    @property
    def inflight(self):
        """Migrations currently holding slots."""
        return len(self._active)

    @property
    def queued(self):
        """Migrations waiting for slots."""
        return len(self._pending)

    def host_inflight(self, host_name):
        """Migrations currently holding a slot at ``host_name``."""
        return self._host_inflight.get(host_name, 0)

    def host_queued(self, host_name):
        """Queued migrations with an endpoint at ``host_name``."""
        return sum(
            1 for ticket in self._pending
            if ticket.source == host_name or ticket.dest == host_name
        )

    # -- submission -------------------------------------------------------------
    def submit(self, process_name, dest, source=None, strategy=PURE_IOU,
               prepare=None):
        """Ask for ``process_name`` to move ``source`` -> ``dest``.

        Returns a :class:`MigrationTicket` immediately; yield
        ``ticket.done`` to wait for the terminal state.  ``source``
        defaults to wherever the process currently resides.
        ``prepare`` is an optional callable invoked at *admission*
        (not submission); if it returns an event the driver waits on
        it before excising — the hook the load balancer uses for the
        job's cooperative pause.
        """
        if source is None:
            source = self._locate(process_name)
        ticket = MigrationTicket(
            self.engine, process_name, source, dest, strategy, prepare
        )
        self.tickets.append(ticket)
        if process_name in self._names:
            self._reject(ticket, "already-migrating")
        elif source is None:
            self._reject(ticket, "unknown-process")
        elif source == dest:
            self._reject(ticket, "same-host")
        elif (
            self.queue_limit is not None
            and len(self._pending) >= self.queue_limit
        ):
            self._reject(ticket, "queue-full")
        else:
            self._names.add(process_name)
            self._pending.append(ticket)
            self._pump()
            self._sample()
        return ticket

    def drain(self):
        """An event that fires once nothing is queued or in flight."""
        if self._drained is None or self._drained.processed:
            self._drained = self.engine.event()
        if not self._active and not self._pending:
            if not self._drained.triggered:
                self._drained.succeed()
        return self._drained

    # -- accounting views ---------------------------------------------------------
    def outcome_counts(self):
        """Terminal-outcome totals, e.g. ``{"completed": 12, ...}``."""
        counts = {}
        for ticket in self.tickets:
            if ticket.outcome is not None:
                counts[ticket.outcome] = counts.get(ticket.outcome, 0) + 1
        return counts

    def sustained_inflight(self, min_duration_s=1.0):
        """The highest concurrency level held for at least
        ``min_duration_s`` of simulated time (0 if none)."""
        if not self.samples:
            return 0
        time_at = {}
        previous_time, previous_level = self.samples[0][0], 0
        for when, level, _ in self.samples:
            elapsed = when - previous_time
            if elapsed > 0:
                time_at[previous_level] = (
                    time_at.get(previous_level, 0.0) + elapsed
                )
            previous_time, previous_level = when, level
        best = 0
        for level in sorted(time_at, reverse=True):
            total = sum(
                seconds for at, seconds in time_at.items() if at >= level
            )
            if level > best and total >= min_duration_s:
                best = level
                break
        return best

    # -- internals ----------------------------------------------------------------
    def _locate(self, process_name):
        for name, host in self.world.hosts.items():
            if process_name in host.kernel.processes:
                return name
        return None

    def _reject(self, ticket, reason):
        ticket.outcome = "rejected"
        ticket.reason = reason
        ticket.prepare = None
        ticket.finished_at = self.engine.now
        self._outcomes.inc(1, outcome="rejected")
        ticket.done.succeed()

    def _admissible(self, ticket):
        inflight = self._host_inflight
        return (
            inflight.get(ticket.source, 0) < self.inflight_cap
            and inflight.get(ticket.dest, 0) < self.inflight_cap
        )

    def _pump(self):
        """Admit every currently-admissible queued ticket, FIFO-first."""
        while self._pending:
            admitted = None
            for position, ticket in enumerate(self._pending):
                if self._admissible(ticket):
                    admitted = ticket
                    del self._pending[position]
                    break
            if admitted is None:
                return
            self._admit(admitted)

    def _admit(self, ticket):
        engine = self.engine
        ticket.admitted_at = engine.now
        self._active[ticket.process_name] = ticket
        inflight = self._host_inflight
        for endpoint in (ticket.source, ticket.dest):
            inflight[endpoint] = inflight.get(endpoint, 0) + 1
            if inflight[endpoint] > self.peak_host_inflight:
                self.peak_host_inflight = inflight[endpoint]
        self._wait_hist.observe(ticket.wait_s)
        telemetry = self.world.obs.telemetry
        if telemetry is not None:
            telemetry.observe("scheduler.wait", ticket.wait_s)
        engine.process(
            self._drive(ticket), name=f"migrate-{ticket.process_name}"
        )

    def _drive(self, ticket):
        world = self.world
        engine = self.engine
        try:
            # The hook usually holds its job: a ticket outlives its
            # move (results keep them), so it lets the hook go.
            prepare, ticket.prepare = ticket.prepare, None
            if prepare is not None:
                waiter = prepare()
                if waiter is not None:
                    yield waiter
            ticket.frozen_at = engine.now
            source_kernel = world.host(ticket.source).kernel
            if ticket.process_name not in source_kernel.processes:
                # Finished (terminated) while queued or while reaching
                # its pause boundary; nothing left to move.
                ticket.outcome = "skipped"
                ticket.reason = "not-resident"
                return
            dest_manager = world.manager(ticket.dest)
            insertion = dest_manager.expect_insertion(ticket.process_name)
            try:
                yield from world.manager(ticket.source).migrate(
                    ticket.process_name, dest_manager, ticket.strategy
                )
            except MigrationAborted as error:
                ticket.outcome = "aborted"
                ticket.reason = str(error)
                return
            ticket.inserted = yield insertion
            ticket.outcome = "completed"
        finally:
            ticket.finished_at = engine.now
            self._retire(ticket)

    def _retire(self, ticket):
        self._active.pop(ticket.process_name, None)
        self._names.discard(ticket.process_name)
        inflight = self._host_inflight
        for endpoint in (ticket.source, ticket.dest):
            remaining = inflight.get(endpoint, 0) - 1
            if remaining > 0:
                inflight[endpoint] = remaining
            else:
                inflight.pop(endpoint, None)
        self._outcomes.inc(1, outcome=ticket.outcome or "failed")
        if ticket.freeze_s is not None:
            self._freeze_hist.observe(ticket.freeze_s)
            telemetry = self.world.obs.telemetry
            if telemetry is not None:
                telemetry.observe("migration.freeze", ticket.freeze_s)
        ticket.done.succeed()
        self._pump()
        self._sample()
        if (
            self._drained is not None
            and not self._drained.triggered
            and not self._active
            and not self._pending
        ):
            self._drained.succeed()

    def _sample(self):
        inflight = len(self._active)
        queued = len(self._pending)
        self.samples.append((self.engine.now, inflight, queued))
        if inflight > self.peak_inflight:
            self.peak_inflight = inflight
        if queued > self.peak_queue:
            self.peak_queue = queued
        self._inflight_gauge.set(inflight)
        self._queue_gauge.set(queued)

"""The front-end flow router: clients address a *service*, not a host.

Modeled on the load-balancer/node-manager handoff of p4containerflow
(and the name-based re-resolution of Process Migration over CCNx): the
router owns a flow table mapping each service to the host its process
currently runs on.  When the cluster scheduler admits a migration the
service's flow *freezes* — newly arriving requests buffer in the router
instead of chasing a process mid-excision — and when the move reaches a
terminal state the flow re-binds and the buffer flushes to the new
host, counting each request that came out at a different host than it
went in as a *redirect*.

Deadlines are per attempt (issue or retry to service start); a request
whose attempt expired is retried after a bounded backoff while its
budget lasts, then dropped.  Every logical request reaches exactly one
terminal state — ``completed`` or ``dropped`` — so request conservation
(``issued == completed + dropped``) holds across migrations, retries
and injected faults; the property test pins it.
"""

from collections import deque

#: Request latencies run sub-millisecond service times to tens of
#: seconds when a request lands inside a frozen flow — wider than the
#: default latency buckets on both ends.
SERVING_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)


class Request:
    """One logical client request (may span several delivery attempts)."""

    __slots__ = (
        "service", "kind", "rid", "issued_at", "attempt_started_at",
        "deadline_s", "retries_left", "attempts", "retried", "redirected",
        "outcome", "reason", "finished_at", "latency_s",
    )

    def __init__(self, service, kind, rid, issued_at, deadline_s=0.0,
                 retry_budget=0):
        self.service = service
        self.kind = kind
        self.rid = rid
        self.issued_at = issued_at
        #: Start of the current attempt — the deadline clock (re)starts
        #: here on issue and on every retry.
        self.attempt_started_at = issued_at
        self.deadline_s = deadline_s
        self.retries_left = retry_budget
        self.attempts = 0
        self.retried = False
        self.redirected = False
        #: Terminal state: "completed" or "dropped" (None while live).
        self.outcome = None
        self.reason = None
        self.finished_at = None
        self.latency_s = None

    def __repr__(self):
        state = self.outcome or "live"
        return f"<Request {self.rid} -> {self.service} {state}>"


class FlowRouter:
    """Front-end mapping flows to hosts across migrations."""

    def __init__(self, world, retry_backoff_s=0.05, migration_tail_s=15.0):
        self.world = world
        self.engine = world.engine
        self.retry_backoff_s = retry_backoff_s
        #: Seconds after a flow re-binds that still count as "during
        #: migration" — the copy-on-reference tail, where the inserted
        #: process demand-faults its space back while serving.
        self.migration_tail_s = migration_tail_s
        #: service -> host name the flow currently resolves to.
        self.flows = {}
        #: service -> :class:`~repro.serve.server.ServingJob`.
        self.jobs = {}
        self._buffers = {}
        self._frozen = set()
        #: service -> reason it died (requests drop immediately).
        self.dead = {}
        #: service -> [[freeze time, unbind time or None], ...].
        self.windows = {}
        self.counts = {
            "issued": 0, "completed": 0, "dropped": 0, "retried": 0,
            "redirected": 0, "buffered": 0, "expired_attempts": 0,
        }
        #: Terminal per-request records, in completion order.
        self.records = []
        #: Logical requests issued but not yet terminal.
        self.outstanding = 0
        self._closed = False
        self._settled = None
        registry = world.obs.registry
        self._requests_total = registry.counter(
            "serve_requests_total", labels=("outcome",)
        )
        self._redirects_total = registry.counter("serve_redirects_total")
        self._retries_total = registry.counter("serve_retries_total")
        self._latency_hist = registry.histogram(
            "serve_request_latency_seconds",
            buckets=SERVING_LATENCY_BUCKETS,
        )
        telemetry = world.obs.telemetry
        if telemetry is not None:
            telemetry.add_router(self)

    def __repr__(self):
        return (
            f"<FlowRouter flows={len(self.flows)} "
            f"frozen={len(self._frozen)} outstanding={self.outstanding}>"
        )

    # -- flow table --------------------------------------------------------------
    def register(self, job, host):
        """Bind ``job``'s service name to ``host`` and adopt the job."""
        self.flows[job.name] = host.name
        self.jobs[job.name] = job
        self._buffers[job.name] = deque()
        job.router = self

    def freeze(self, service):
        """Buffer this flow's arrivals while a migration is in flight."""
        if service in self.dead or service in self._frozen:
            return
        self._frozen.add(service)
        self.windows.setdefault(service, []).append(
            [self.engine.now, None]
        )

    def unfreeze(self, service, host_name):
        """Re-bind the flow and flush buffered requests to it.

        ``host_name`` is where the process now runs (the destination on
        a completed move, the source again on a rollback); a buffered
        request re-routed to a different host than the flow pointed at
        counts as redirected.
        """
        if service not in self._frozen:
            return
        self._frozen.discard(service)
        moved = self.flows.get(service) != host_name
        self.flows[service] = host_name
        self._close_window(service)
        buffered = self._buffers.get(service, deque())
        while buffered:
            request = buffered.popleft()
            if moved and not request.redirected:
                request.redirected = True
                self.counts["redirected"] += 1
                self._redirects_total.inc(1)
            self._dispatch(request)

    def service_dead(self, service, reason):
        """The process is gone for good: fail this flow's traffic."""
        if service in self.dead:
            return
        self.dead[service] = reason
        self._frozen.discard(service)
        self._close_window(service)
        buffered = self._buffers.get(service, deque())
        while buffered:
            self._drop(buffered.popleft(), "service-dead")

    def _close_window(self, service):
        spans = self.windows.get(service)
        if spans and spans[-1][1] is None:
            spans[-1][1] = self.engine.now

    # -- request lifecycle -------------------------------------------------------
    def submit(self, request):
        """Accept one freshly issued logical request."""
        self.counts["issued"] += 1
        self.outstanding += 1
        request.attempt_started_at = self.engine.now
        self._dispatch(request)

    def _dispatch(self, request):
        service = request.service
        if service in self.dead:
            self._drop(request, "service-dead")
        elif service in self._frozen:
            self.counts["buffered"] += 1
            self._buffers[service].append(request)
        else:
            request.attempts += 1
            self.jobs[service].deliver(request)

    def requeue(self, service, requests):
        """A pausing/dying server hands its unserved inbox back.

        The requests rejoin the *front* of the service's buffer in
        arrival order, so a migration never reorders a flow.
        """
        buffered = self._buffers[service]
        for request in reversed(requests):
            buffered.appendleft(request)
        if service not in self._frozen and service not in self.dead:
            # Not frozen (e.g. shutdown race): push them straight back.
            while buffered:
                self._dispatch(buffered.popleft())
        elif service in self.dead:
            while buffered:
                self._drop(buffered.popleft(), "service-dead")

    def begin_service(self, request):
        """Deadline gate at the moment a server picks the request up.

        Returns True to serve; on an expired attempt the router retries
        (budget permitting) or drops, and the server skips the request.
        """
        if request.deadline_s <= 0:
            return True
        waited = self.engine.now - request.attempt_started_at
        if waited <= request.deadline_s:
            return True
        self.counts["expired_attempts"] += 1
        if request.retries_left > 0:
            request.retries_left -= 1
            request.retried = True
            self.counts["retried"] += 1
            self._retries_total.inc(1)
            self.engine.process(
                self._retry(request), name=f"retry-{request.rid}"
            )
        else:
            self._drop(request, "deadline")
        return False

    def _retry(self, request):
        if self.retry_backoff_s > 0:
            yield self.engine.timeout(self.retry_backoff_s)
        request.attempt_started_at = self.engine.now
        self._dispatch(request)

    def complete(self, request):
        """A server finished the request; record end-to-end latency."""
        now = self.engine.now
        request.outcome = "completed"
        request.finished_at = now
        request.latency_s = now - request.issued_at
        self.counts["completed"] += 1
        self._requests_total.inc(1, outcome="completed")
        self._latency_hist.observe(request.latency_s)
        telemetry = self.world.obs.telemetry
        if telemetry is not None:
            telemetry.observe("request.latency", request.latency_s)
            telemetry.observe(
                f"request.latency.{request.kind}", request.latency_s
            )
        self._record(request)

    def _drop(self, request, reason):
        request.outcome = "dropped"
        request.reason = reason
        request.finished_at = self.engine.now
        self.counts["dropped"] += 1
        self._requests_total.inc(1, outcome="dropped")
        self._record(request)

    def _record(self, request):
        self.records.append({
            "rid": request.rid,
            "service": request.service,
            "kind": request.kind,
            "outcome": request.outcome,
            "reason": request.reason,
            "issued_at": round(request.issued_at, 9),
            "finished_at": round(request.finished_at, 9),
            "latency_s": (
                round(request.latency_s, 9)
                if request.latency_s is not None else None
            ),
            "attempts": request.attempts,
            "retried": request.retried,
            "redirected": request.redirected,
            "during_migration": self.during_migration(
                request.service, request.issued_at, request.finished_at
            ),
        })
        self.outstanding -= 1
        self._maybe_settle()

    # -- during-migration attribution --------------------------------------------
    def during_migration(self, service, start, end):
        """Did ``[start, end]`` overlap a migration window (plus tail)?

        A window opens when the flow freezes and closes
        ``migration_tail_s`` after it re-binds — the tail captures the
        post-insertion phase where requests stall on imaginary faults.
        """
        for opened, closed in self.windows.get(service, ()):
            limit = None if closed is None else closed + self.migration_tail_s
            if end >= opened and (limit is None or start <= limit):
                return True
        return False

    # -- drain --------------------------------------------------------------------
    def close(self):
        """No more submissions will arrive; lets :meth:`settled` fire."""
        self._closed = True
        self._maybe_settle()

    def settled(self):
        """An event firing once closed and every request is terminal."""
        if self._settled is None or self._settled.processed:
            self._settled = self.engine.event()
        self._maybe_settle()
        return self._settled

    def _maybe_settle(self):
        if (
            self._closed
            and self.outstanding == 0
            and self._settled is not None
            and not self._settled.triggered
        ):
            self._settled.succeed()

"""The serving engine process: request handling between migrations.

A :class:`ServingJob` is the serving-layer sibling of
:class:`~repro.loadbalance.job.ManagedJob`: it owns one built base
workload across its whole lifetime, but instead of replaying a fixed
reference trace it drains an inbox of :class:`~repro.serve.router.Request`
objects, burning CPU and touching the pages its
:mod:`~repro.serve.workloads` pattern picks — through
``kernel.touch``, so a freshly migrated server pays genuine imaginary
faults inside request latency.

Cooperative pause works at *request* granularity: the scheduler's
``prepare`` hook asks for quiescence, the job finishes the request in
hand (no fault protocol is abandoned mid-flight), hands unserved inbox
entries back to the router's buffer, and parks until ``resume_as``
restarts it in the re-incarnated process at the destination.  A source
crash severing the job's residual dependencies kills it
(:class:`~repro.faults.ResidualDependencyError`); the router then fails
the flow so conservation still holds.
"""

from collections import deque

from repro.loadbalance.job import MigratableJob
from repro.workloads.runner import cpu_slice, reference

from repro.serve.workloads import make_pattern


class ServingJob(MigratableJob):
    """One request-serving process under router + scheduler control."""

    def __init__(self, world, built, serving, name=None):
        super().__init__(world, built, name=name)
        self.serving = serving
        #: Requests served to completion (all incarnations).
        self.served = 0
        self.mismatches = []
        self.router = None
        self._inbox = deque()
        #: The request being served right now (handed back on a kill).
        self._current = None
        self._wake = None
        self._shutdown = False
        rng = world.streams.stream(f"serve.pattern:{self.name}")
        self.pattern = make_pattern(serving, built.plan, rng)

    def __repr__(self):
        if self.failed:
            state = "killed"
        elif self.finished:
            state = "done"
        else:
            state = f"served {self.served}"
        host = self.current_host.name if self.current_host else "-"
        return f"<ServingJob {self.name} ({self.serving.name}) {state} on {host}>"

    @property
    def requests_per_s(self):
        """Lifetime request throughput — the load-balancer's optional
        serving-load signal (see :func:`~repro.loadbalance.metrics.snapshot_loads`)."""
        if self.started_at is None:
            return 0.0
        elapsed = self.world.engine.now - self.started_at
        if elapsed <= 0:
            return 0.0
        return self.served / elapsed

    # -- delivery ----------------------------------------------------------------
    def deliver(self, request):
        """Router handoff: queue one request for this server."""
        self._inbox.append(request)
        self._notify()

    def _notify(self):
        wake = self._wake
        if wake is not None and not wake.triggered:
            wake.succeed(None)

    # -- lifecycle ---------------------------------------------------------------
    def prepare_move(self):
        # Freeze the flow the instant the move is admitted, so no
        # request chases a process that is about to go quiescent.
        self.router.freeze(self.name)
        return super().prepare_move()

    def settle(self, ticket):
        """Re-bind the flow where the job now serves, or fail it."""
        host = super().settle(ticket)
        if host is not None:
            self.router.unfreeze(self.name, host.name)
        elif not self.failed:
            self.router.service_dead(
                self.name, ticket.reason or ticket.outcome
            )
        return host

    def shutdown(self):
        """Stop serving once the inbox drains; returns :attr:`done`."""
        self._shutdown = True
        self._notify()
        return self.done

    # -- body --------------------------------------------------------------------
    def _body(self, host):
        while True:
            if self._pause_requested:
                self._hand_back_inbox()
                return "paused"
            if not self._inbox:
                if self._shutdown:
                    return
                self._wake = self.world.engine.event()
                yield self._wake
                self._wake = None
                continue
            request = self._inbox.popleft()
            self._current = request
            yield from self._serve(request, host)
            self._current = None

    def _killed(self, error):
        # Declare the flow dead *before* handing the inbox back:
        # requeue would otherwise re-dispatch straight into this
        # (now dead) server and strand the requests.
        if self.router is not None:
            self.router.service_dead(self.name, str(error))
        # The request in hand died with the fault protocol; it must
        # still reach a terminal state, so it goes back too.
        if self._current is not None and self._current.outcome is None:
            self._inbox.appendleft(self._current)
        self._current = None
        self._hand_back_inbox()

    def _serve(self, request, host):
        router = self.router
        if router is not None and not router.begin_service(request):
            return  # attempt expired; the router retried or dropped it
        yield from cpu_slice(host, self.serving.service_s)
        for index, write in self.pattern.next_request():
            yield from reference(
                host.kernel, self.process, self.spec.name, index, write,
                True, self.mismatches,
            )
        self.served += 1
        if router is not None:
            router.complete(request)

    def _hand_back_inbox(self):
        if not self._inbox:
            return
        pending = list(self._inbox)
        self._inbox.clear()
        if self.router is not None:
            self.router.requeue(self.name, pending)

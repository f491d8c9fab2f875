"""Managed, migratable jobs.

:class:`MigratableJob` is what every cluster harness needs of a job
that moves under a :class:`~repro.cluster.scheduler.ClusterScheduler`:
a cooperative pause for the scheduler's ``prepare`` hook, and one
:meth:`~MigratableJob.settle` that picks the job up once its move
reaches a terminal state.  A :class:`ManagedJob` runs a workload's
reference trace step by step, pauses at step boundaries (so no fault
protocol is ever abandoned mid-flight), and resumes from the same trace
position in the re-incarnated process at the new host — verifying page
contents the whole way.  Its serving sibling is
:class:`~repro.serve.server.ServingJob`.
"""

from repro.faults import ResidualDependencyError
from repro.workloads.runner import RemoteRunResult, cpu_slice, reference


class MigratableJob:
    """A job body that pauses, moves and resumes as one logical job.

    :meth:`_run` owns one incarnation: the exec span, the pause signal,
    ``terminate`` and the kill path.  Subclasses supply the
    ``_body(host)`` generator, which checks ``_pause_requested`` at its
    own boundaries and returns ``"paused"`` there.
    """

    def __init__(self, world, built, name=None):
        # ``built`` is read here and in subclass constructors only: a
        # job holds its live process, and keeping the build would pin
        # the pre-migration process and its address space for the run.
        self.world = world
        self.spec = built.spec
        self.name = name or built.process.name
        self.process = built.process
        self.current_host = None
        self.migrations = 0
        #: True while a move is queued or in flight (keeps a policy or
        #: the serving harness from re-picking a job already moving).
        self.migrating = False
        #: True once the job ran to completion.
        self.finished = False
        #: True once a ResidualDependencyError killed the process.
        self.failed = False
        self.failure = None
        self.started_at = None
        self.finished_at = None
        self._pause_requested = False
        self._paused_event = None
        #: Fires when the job ends for good (finished or killed).
        self.done = world.engine.event()

    @property
    def ended(self):
        """True once the job finished or was killed: it never runs again."""
        return self.finished or self.failed

    # -- lifecycle ------------------------------------------------------------
    def start(self, host):
        """Begin (or resume) execution on ``host``."""
        if self.ended:
            raise RuntimeError(f"{self.name} is no longer runnable")
        self.current_host = host
        self._pause_requested = False
        return self.world.engine.process(
            self._run(host), name=f"job-{self.name}"
        )

    def request_pause(self):
        """Ask the job to stop at its next boundary.

        Returns an event that fires once the job is quiescent (safe to
        excise).  An ended job is quiescent forever, so the event fires
        at once — check :attr:`ended` afterwards.
        """
        if self._paused_event is None or self._paused_event.processed:
            self._paused_event = self.world.engine.event()
        self._pause_requested = True
        if self.ended and not self._paused_event.triggered:
            self._paused_event.succeed()
        self._notify()
        return self._paused_event

    def prepare_move(self):
        """The scheduler's ``prepare`` hook: mark the job as moving and
        ask it to pause."""
        self.migrating = True
        return self.request_pause()

    def resume_as(self, process, host):
        """Continue in the re-incarnated process after a migration."""
        self.process = process
        self.migrations += 1
        return self.start(host)

    def settle(self, ticket):
        """Pick the job up once its move ``ticket`` is terminal.

        A completed move resumes the job at the destination in the
        ticket's inserted process, which the job takes: the ticket
        stays a record of the move and stops referring to the process,
        so a later move frees it.  An aborted move was rolled back: the
        kernel reinserted the process at the source, where the job
        keeps running.  Returns the host the job now runs on, or None
        when it runs nowhere.
        """
        self.migrating = False
        world = self.world
        if ticket.outcome == "completed":
            host = world.host(ticket.dest)
            process, ticket.inserted = ticket.inserted, None
            self.resume_as(process, host)
            return host
        if ticket.outcome == "aborted" and not self.ended:
            host = world.host(ticket.source)
            process = host.kernel.processes.get(self.name)
            if process is not None:
                self.process = process
                self.start(host)
                return host
        return None

    def follow(self, ticket):
        """Engine-process body: wait for ``ticket``, then :meth:`settle`."""
        yield ticket.done
        self.settle(ticket)

    def _run(self, host):
        """Engine-process body: one incarnation on ``host``."""
        engine = self.world.engine
        if self.started_at is None:
            self.started_at = engine.now
        # One exec span per incarnation: residual-fault traffic this job
        # raises while running lands on its own root, not on whatever
        # migration happens to be in flight at the same instant.
        obs = self.world.obs
        with obs.phase(
            obs.tracer.span("exec", process=self.name, host=host.name)
        ):
            try:
                if (yield from self._body(host)) == "paused":
                    self._signal_paused()
                    return "paused"
                yield from host.kernel.terminate(self.process.name)
            except ResidualDependencyError as error:
                # A source crash severed a residual dependency: the
                # kernel killed the process, so the job ends here.
                self._killed(error)
                self._end(error)
                return "killed"
        self.finished_at = engine.now
        self._end()
        return "finished"

    def _notify(self):
        """Wake an idle body so it sees a pause request (no-op here)."""

    def _killed(self, error):
        """Clean up after a kill, before the job ends (no-op here)."""

    def _end(self, failure=None):
        """Stop for good: finished, or killed by ``failure``."""
        if failure is None:
            self.finished = True
        else:
            self.failed = True
            self.failure = str(failure)
        self._signal_paused()
        if not self.done.triggered:
            self.done.succeed()

    def _signal_paused(self):
        if self._paused_event is not None and not self._paused_event.triggered:
            self._paused_event.succeed()


class ManagedJob(MigratableJob):
    """One workload instance under balancer control."""

    def __init__(self, world, built, name=None):
        super().__init__(world, built, name=name)
        self.result = RemoteRunResult(self.name)
        self.steps = built.trace.steps
        self.compute_slice_s = built.trace.compute_slice_s
        self.position = 0

    def __repr__(self):
        if self.failed:
            state = "killed"
        elif self.finished:
            state = "done"
        else:
            state = f"at {self.position}/{len(self.steps)}"
        host = self.current_host.name if self.current_host else "-"
        return f"<ManagedJob {self.name} {state} on {host}>"

    #: Batch jobs serve no requests; the attribute exists so load
    #: snapshots can read a uniform serving-load signal across managed
    #: and serving jobs (see repro.serve.server.ServingJob).
    requests_per_s = 0.0

    @property
    def remaining_steps(self):
        return len(self.steps) - self.position

    @property
    def remaining_touched_pages(self):
        """Distinct real pages still to be referenced (policy input)."""
        return len(
            {
                page_index
                for page_index, _, kind in self.steps.references(self.position)
                if kind == "real"
            }
        )

    # -- body -----------------------------------------------------------------
    def _body(self, host):
        # Loop-invariant bindings: the step list, slice length and
        # process identity are fixed for the whole incarnation (a
        # migration ends this generator and starts a fresh one, which
        # resumes at ``position``), so only the externally-written
        # pause flag is re-read through ``self`` each step.
        kernel = host.kernel
        name = self.spec.name
        compute_slice = self.compute_slice_s
        process = self.process
        result = self.result
        for page_index, write, kind in self.steps.references(self.position):
            if self._pause_requested:
                return "paused"
            yield from cpu_slice(host, compute_slice)
            yield from reference(
                kernel, process, name, page_index, write, kind != "zero",
                result.mismatches,
            )
            result.steps_executed += 1
            self.position += 1

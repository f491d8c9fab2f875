"""The balancer server and the job-mix scenario runner."""

from repro.cluster.scheduler import ClusterScheduler
from repro.loadbalance.job import ManagedJob
from repro.loadbalance.metrics import snapshot_loads
from repro.loadbalance.policy import NoMigrationPolicy
from repro.migration.plan import TransferOptions
from repro.obs import RUN_META
from repro.obs.telemetry import check_sample_period
from repro.workloads.builder import build_process
from repro.workloads.registry import workload_by_name


class LoadBalancer:
    """Periodically samples loads and executes the policy's decisions.

    Every decision is a move submitted to a
    :class:`~repro.cluster.scheduler.ClusterScheduler`, whose driver
    pauses the job at a step boundary (no fault abandoned
    mid-protocol), excises it, ships it under the policy-chosen
    strategy, and inserts it at the destination; the job then settles
    (:meth:`~repro.loadbalance.job.MigratableJob.settle`): resumed
    there, or back at the source if the move was rolled back.

    Without a ``scheduler`` the balancer is serial: it builds one with
    a per-host cap of 1 and waits for each move to end before sampling
    again.  With one attached, the sampling loop keeps running while
    moves proceed up to that scheduler's cap, and jobs already on the
    move are marked ``migrating`` so the policy skips them.
    """

    def __init__(self, world, jobs, policy, interval_s=4.0, scheduler=None,
                 options=None):
        self.world = world
        self.jobs = list(jobs)
        self.policy = policy
        self.interval_s = interval_s
        #: True when each move must end before the next sample.
        self.serial = scheduler is None
        #: The ClusterScheduler every move goes through.
        self.scheduler = scheduler or ClusterScheduler(world, inflight_cap=1)
        #: Scenario-wide :class:`TransferOptions`, or None.  When set,
        #: the knob trio is pinned for the whole run and the per-move
        #: ``decision.prefetch`` override is skipped; when None each
        #: decision installs its own prefetch once its job is paused,
        #: as before the knobs existed.
        self.options = options
        #: Executed decisions, in order of completion.
        self.log = []
        self._server = world.engine.process(self._loop(), name="balancer")

    def _loop(self):
        engine = self.world.engine
        while any(not job.ended for job in self.jobs):
            yield engine.timeout(self.interval_s)
            loads = snapshot_loads(self.world.hosts, self.jobs)
            decision = self.policy.decide(loads, self.jobs)
            if decision is None:
                continue
            ticket = self._submit(decision)
            if self.serial:
                yield ticket.done

    def _submit(self, decision):
        """Hand the decision to the scheduler; returns its ticket."""
        job = next(j for j in self.jobs if j.name == decision.job_name)
        ticket = self.scheduler.submit(
            job.name,
            decision.dest,
            source=decision.source,
            strategy=decision.strategy,
            prepare=lambda: self._pause(job, decision.prefetch),
        )
        if ticket.outcome is None:
            job.migrating = True
            self.world.engine.process(
                self._follow(decision, job, ticket),
                name=f"move-{job.name}",
            )
        return ticket

    def _pause(self, job, prefetch):
        """The move's ``prepare`` hook: pause ``job``, then install the
        decision's prefetch unless the run pins its options."""
        paused = job.request_pause()
        if self.options is None:
            hosts = self.world.hosts.values()

            def install(_):
                if not job.ended:
                    for host in hosts:
                        host.nms.prefetch = prefetch

            # Appended before the driver waits on ``paused``, so this
            # runs first: the prefetch is in place when excision starts.
            paused.callbacks.append(install)
        return paused

    def _follow(self, decision, job, ticket):
        yield from job.follow(ticket)
        if ticket.outcome == "completed":
            self.log.append(decision)


class ScenarioResult:
    """Outcome of one job-mix run."""

    def __init__(self, policy_name, jobs, log, makespan_s, obs=None,
                 scheduler=None):
        self.policy_name = policy_name
        self.obs = obs
        #: The ClusterScheduler every move of the run went through.
        self.scheduler = scheduler
        self.makespan_s = makespan_s
        self.migrations = list(log)
        self.finish_times = {job.name: job.finished_at for job in jobs}
        self.verified = all(
            job.result.verified for job in jobs if job.result.steps_executed
        )
        self.steps_executed = sum(job.result.steps_executed for job in jobs)
        #: Names of the jobs a broken residual dependency killed.
        self.killed = [job.name for job in jobs if job.failed]

    @property
    def ok(self):
        return bool(self.verified)

    def to_dict(self):
        """Plain-data report: the ``--json`` form."""
        scheduler = self.scheduler
        data = {
            "command": "balance",
            "policy": self.policy_name,
            "makespan_s": self.makespan_s,
            "migrations": [str(decision) for decision in self.migrations],
            "verified": self.verified,
            "scheduler": {
                "inflight_cap": scheduler.inflight_cap,
                "peak_inflight": scheduler.peak_inflight,
                "peak_queue": scheduler.peak_queue,
                "outcomes": dict(scheduler.outcome_counts()),
            },
        }
        if self.killed:
            data["killed"] = self.killed
        return data

    def report_rows(self):
        """Text report lines in order; :data:`~repro.obs.RUN_META`
        marks where the run-metadata block goes."""
        block = self.to_dict()["scheduler"]
        counts = ", ".join(f"{k}={n}" for k, n in sorted(block["outcomes"].items()))
        rows = [
            f"policy {self.policy_name}: makespan {self.makespan_s:.1f}s, "
            f"{len(self.migrations)} migrations, verified {self.verified}",
            *(f"  {decision}" for decision in self.migrations),
            f"scheduler: cap {block['inflight_cap']}/host, peak in-flight "
            f"{block['peak_inflight']}, peak queue {block['peak_queue']}"
            f"  [{counts}]",
        ]
        if self.killed:
            rows.append(f"killed: {', '.join(self.killed)}")
        return rows + [RUN_META]

    def __repr__(self):
        return (
            f"<ScenarioResult {self.policy_name} makespan={self.makespan_s:.1f}s "
            f"migrations={len(self.migrations)} verified={self.verified}>"
        )


class Scenario:
    """A job mix launched on one host of an N-host testbed.

    ``Scenario(["chess", "pm-mid", "pm-mid"], hosts=3).run(policy)``
    starts every job on the first host and lets the policy spread them.
    """

    def __init__(self, workloads, hosts=3, seed=1987, calibration=None,
                 interval_s=4.0, instrument=False, faults=None, options=None,
                 sample_period=0.0, slos=()):
        if hosts < 2:
            raise ValueError("a scenario needs at least two hosts")
        check_sample_period(sample_period)
        self.workload_names = list(workloads)
        self.host_names = tuple(f"node{i}" for i in range(hosts))
        self.seed = seed
        self.calibration = calibration
        self.interval_s = interval_s
        self.instrument = instrument
        #: Optional FaultPlan applied to the scenario's world.
        self.faults = faults
        #: Optional scenario-wide transfer knobs (``options``, a
        #: TransferOptions or dict); None keeps the per-decision
        #: prefetch override.
        self.transfer_options = (
            None if options is None else TransferOptions.coerce(options)
        )
        #: Continuous-telemetry cadence (0 = off) and SLO objectives.
        self.sample_period = sample_period
        self.slo_objectives = tuple(slos)

    def run(self, policy=None, inflight_cap=None):
        """Execute the scenario under ``policy``; returns a ScenarioResult.

        Every move goes through a
        :class:`~repro.cluster.scheduler.ClusterScheduler`.  Without
        ``inflight_cap`` the balancer is serial: one move at a time.
        With it, moves overlap up to that per-host cap.
        """
        # Imported here: repro.cluster imports this package.
        from repro.cluster.stress import cluster_world

        policy = policy or NoMigrationPolicy()
        world = cluster_world(
            self, self.calibration, self.instrument, self.faults
        )
        origin = world.host(self.host_names[0])

        jobs = []
        for index, workload in enumerate(self.workload_names):
            spec = workload_by_name(workload)
            built = build_process(
                origin, spec, world.streams, name=f"{spec.name}#{index}"
            )
            jobs.append(ManagedJob(world, built))

        for job in jobs:
            job.start(origin)
        balancer = LoadBalancer(
            world, jobs, policy, interval_s=self.interval_s,
            scheduler=None if inflight_cap is None else ClusterScheduler(
                world, inflight_cap=inflight_cap
            ),
            options=self.transfer_options,
        )
        engine = world.engine
        engine.run(until=engine.all_of([job.done for job in jobs]))
        # Tickets for jobs that ended just before their pause resolve
        # (as "skipped") at this same instant.
        engine.run(until=balancer.scheduler.drain())
        result = ScenarioResult(
            getattr(policy, "name", type(policy).__name__),
            jobs,
            balancer.log,
            world.finish(),
            obs=world.obs,
            scheduler=balancer.scheduler,
        )
        world.close()
        return result

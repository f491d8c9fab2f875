"""The deterministic cluster stress harness (``repro stress``).

Builds an M-host world, spreads P managed jobs across it, and replays
a seeded arrival pattern of migration requests through the
:class:`~repro.cluster.scheduler.ClusterScheduler`.  Every random
choice (arrival gaps, which job to move, where to) draws from named
:class:`~repro.sim.SeededStreams`, so one seed fixes the entire run:
two runs with the same :class:`StressConfig` produce byte-identical
traces and the same :attr:`StressResult.determinism_hash`.

The serving harness (:mod:`repro.serve.harness`) reuses the world
set-up (:func:`cluster_world`), the arrival loop
(:func:`migration_arrivals`) and the result base
(:class:`ClusterResult`); the load balancer's
:class:`~repro.loadbalance.Scenario` reuses the set-up.
"""

import hashlib
import json

from repro.cluster.scheduler import ClusterScheduler, check_inflight_cap
from repro.loadbalance.job import ManagedJob
from repro.migration.plan import TransferOptions
from repro.obs import RUN_META
from repro.obs.registry import nearest_rank
from repro.obs.slo import parse_slos
from repro.obs.telemetry import check_sample_period
from repro.testbed import Testbed
from repro.workloads.builder import build_process
from repro.workloads.registry import workload_by_name

#: Supported arrival patterns.
ARRIVALS = ("uniform", "poisson", "burst")


class StressConfig:
    """Knobs for one stress run (all deterministic given ``seed``)."""

    def __init__(self, hosts=4, procs=8, migrations=None, inflight_cap=4,
                 queue_limit=None, arrival="uniform", rate_per_s=2.0,
                 burst_size=4, workloads=("minprog",), strategy="pure-iou",
                 job_seconds=20.0, seed=7, prefetch=0, batch=1, pipeline=1,
                 store=False, dedup=False,
                 sample_period=0.0, slo=None, services=(),
                 clients_per_service=2, requests_per_client=60,
                 request_arrival="poisson", request_rate_per_s=16.0,
                 request_burst=8, deadline_s=5.0, retry_budget=1,
                 retry_backoff_s=0.05, migration_tail_s=15.0):
        if hosts < 2:
            raise ValueError("a stress run needs at least two hosts")
        if procs < 1:
            raise ValueError("a stress run needs at least one process")
        check_inflight_cap(inflight_cap)
        if arrival not in ARRIVALS:
            raise ValueError(f"arrival must be one of {ARRIVALS}, got {arrival!r}")
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        # Range-checks prefetch/batch/pipeline so a bad trio fails here,
        # with the other configuration errors, not mid-run.
        TransferOptions(
            prefetch=prefetch, batch=batch, pipeline=pipeline,
            store=store, dedup=dedup,
        )
        self.hosts = hosts
        self.procs = procs
        #: Migration requests to issue (default: one per process).
        self.migrations = procs if migrations is None else migrations
        self.inflight_cap = inflight_cap
        self.queue_limit = queue_limit
        self.arrival = arrival
        self.rate_per_s = rate_per_s
        self.burst_size = burst_size
        self.workloads = tuple(workloads)
        self.strategy = strategy
        #: Target compute seconds per job (paces the reference trace so
        #: jobs are still running when migrations land on them).
        self.job_seconds = job_seconds
        self.seed = seed
        self.prefetch = prefetch
        self.batch = batch
        self.pipeline = pipeline
        #: Content-store knobs (docs/content-store.md); ``dedup``
        #: implies the store, matching TransferOptions.
        self.store = store
        self.dedup = dedup
        check_sample_period(sample_period)
        #: Continuous-telemetry cadence in simulated seconds (0 = off).
        self.sample_period = sample_period
        #: Raw SLO spec data (a list of objective dicts, or a
        #: ``{"slos": [...]}`` document); parse errors surface here.
        self.slo = slo
        # Validated eagerly so a bad spec fails at configuration time.
        self._slos = parse_slos(slo) if slo else ()
        # Serving knobs (repro serve): inert — and absent from
        # to_dict() — unless a service mix is configured, so stress
        # determinism hashes recorded before the serving layer existed
        # stay valid.  Name validation lives in repro.serve (the
        # cluster layer must not import up into it).
        if request_arrival not in ARRIVALS:
            raise ValueError(
                f"request_arrival must be one of {ARRIVALS}, "
                f"got {request_arrival!r}"
            )
        if request_rate_per_s <= 0:
            raise ValueError("request_rate_per_s must be positive")
        if request_burst < 1:
            raise ValueError("request_burst must be >= 1")
        if retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        #: Serving workload mix (names from repro.serve.SERVING;
        #: empty = plain stress run).
        self.services = tuple(services)
        self.clients_per_service = clients_per_service
        self.requests_per_client = requests_per_client
        self.request_arrival = request_arrival
        self.request_rate_per_s = request_rate_per_s
        self.request_burst = request_burst
        #: Per-attempt deadline in simulated seconds (0 = none).
        self.deadline_s = deadline_s
        self.retry_budget = retry_budget
        self.retry_backoff_s = retry_backoff_s
        #: Seconds after a flow re-binds still counted as "during
        #: migration" (the copy-on-reference fault tail).
        self.migration_tail_s = migration_tail_s

    @property
    def slo_objectives(self):
        """Parsed :class:`~repro.obs.slo.SLO` objectives (may be ())."""
        return self._slos

    @property
    def host_names(self):
        """Host names for the run: ``node00`` .. ``node{M-1}``."""
        return tuple(f"node{i:02d}" for i in range(self.hosts))

    @property
    def transfer_options(self):
        """The run's :class:`TransferOptions` (strategy + knob trio)."""
        return TransferOptions(
            strategy=self.strategy, prefetch=self.prefetch,
            batch=self.batch, pipeline=self.pipeline,
            store=self.store, dedup=self.dedup,
        )

    def to_dict(self):
        """Plain-data view (part of the determinism-hash input).

        The transfer-knob trio only appears when it deviates from the
        defaults, so hashes recorded before the knobs existed stay
        valid for default-knob runs.
        """
        data = {
            "hosts": self.hosts,
            "procs": self.procs,
            "migrations": self.migrations,
            "inflight_cap": self.inflight_cap,
            "queue_limit": self.queue_limit,
            "arrival": self.arrival,
            "rate_per_s": self.rate_per_s,
            "burst_size": self.burst_size,
            "workloads": list(self.workloads),
            "strategy": self.strategy,
            "job_seconds": self.job_seconds,
            "seed": self.seed,
        }
        if self.prefetch:
            data["prefetch"] = self.prefetch
        if self.batch != 1:
            data["batch"] = self.batch
        if self.pipeline != 1:
            data["pipeline"] = self.pipeline
        # Store knobs likewise appear only when switched on, so hashes
        # recorded before the content store existed stay valid.
        if self.store:
            data["store"] = True
        if self.dedup:
            data["dedup"] = True
        # Telemetry knobs likewise appear only when switched on, so
        # hashes recorded before sampling existed stay valid.
        if self.sample_period:
            data["sample_period"] = self.sample_period
        if self._slos:
            data["slo"] = [slo.to_dict() for slo in self._slos]
        # Serving knobs appear as one block, and only when a mix is
        # configured — same convention again.
        if self.services:
            data["serving"] = {
                "services": list(self.services),
                "clients_per_service": self.clients_per_service,
                "requests_per_client": self.requests_per_client,
                "request_arrival": self.request_arrival,
                "request_rate_per_s": self.request_rate_per_s,
                "request_burst": self.request_burst,
                "deadline_s": self.deadline_s,
                "retry_budget": self.retry_budget,
                "retry_backoff_s": self.retry_backoff_s,
                "migration_tail_s": self.migration_tail_s,
            }
        return data


def cluster_world(config, calibration=None, instrument=False, faults=None):
    """A fresh world for one cluster-harness run of ``config``.

    ``config`` (a :class:`StressConfig` or a
    :class:`~repro.loadbalance.Scenario`) supplies the seed, host
    names, telemetry cadence and SLOs, plus the
    :class:`TransferOptions` installed on every host (None keeps each
    host's defaults).
    """
    world = Testbed(
        seed=config.seed, calibration=calibration,
        instrument=instrument, faults=faults,
        sample_period=config.sample_period, slos=config.slo_objectives,
    ).world(host_names=config.host_names)
    if config.transfer_options is not None:
        world.apply_options(config.transfer_options)
    return world


class ClusterResult:
    """What every scheduler-driven harness run measures.

    Subclasses add their own views, keys to :meth:`to_dict` and
    ``_rows``, the head of the text report :meth:`report_rows` renders.
    """

    def __init__(self, config, world, scheduler, jobs, makespan_s):
        self.config = config
        self.obs = world.obs
        self.scheduler = scheduler
        self.jobs = list(jobs)
        self.tickets = list(scheduler.tickets)
        self.makespan_s = makespan_s
        self.outcomes = scheduler.outcome_counts()
        metrics = world.metrics
        self.bytes_total = metrics.total_link_bytes
        self.faults = dict(metrics.faults)
        self.events_dispatched = world.engine.dispatched
        #: Names of the jobs a broken residual dependency killed.
        self.killed = [job.name for job in self.jobs if job.failed]

    def to_dict(self):
        """Canonical plain-data view — the determinism-hash input and
        the ``--json`` report."""
        return {
            "config": self.config.to_dict(),
            "makespan_s": self.makespan_s,
            "outcomes": dict(sorted(self.outcomes.items())),
            "bytes_total": self.bytes_total,
            "faults": dict(sorted(self.faults.items())),
            "events_dispatched": self.events_dispatched,
            "verified": self.verified,
        }

    @property
    def determinism_hash(self):
        """SHA-256 over the canonical result — equal across replays."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def ok(self):
        return bool(self.verified)

    def outcome_summary(self):
        """``completed=5, rejected=3``: migration outcomes by name."""
        return ", ".join(
            f"{outcome}={count}"
            for outcome, count in sorted(self.outcomes.items())
        ) or "none"

    def report_rows(self):
        """Text report lines in order; :data:`~repro.obs.RUN_META`
        marks where the run-metadata block goes."""
        rows = self._rows() + [f"bytes on wire     {self.bytes_total:,}"]
        if self.killed:
            rows.append(f"killed            {', '.join(self.killed)}")
        return rows + [
            RUN_META,
            f"verified          {self.verified}",
            f"determinism hash  {self.determinism_hash}",
        ]


class StressResult(ClusterResult):
    """Everything one stress run measured, canonically serialisable."""

    def __init__(self, config, world, scheduler, jobs, makespan_s):
        super().__init__(config, world, scheduler, jobs, makespan_s)
        self.peak_inflight = scheduler.peak_inflight
        self.sustained_inflight = scheduler.sustained_inflight()
        self.peak_queue = scheduler.peak_queue
        self.peak_host_inflight = scheduler.peak_host_inflight
        self.verified = all(
            job.result.verified
            for job in self.jobs
            if job.result.steps_executed
        )

    @property
    def completed(self):
        return self.outcomes.get("completed", 0)

    @property
    def throughput_per_s(self):
        """Completed migrations per simulated second."""
        if self.makespan_s <= 0:
            return 0.0
        return self.completed / self.makespan_s

    def freeze_percentile(self, q):
        """The q-quantile of completed-migration freeze times (exact,
        nearest-rank over per-ticket values), or None."""
        return nearest_rank(
            sorted(t.freeze_s for t in self.tickets if t.freeze_s is not None),
            q,
        )

    def _rows(self):
        config = self.config
        p50 = self.freeze_percentile(0.50)
        p99 = self.freeze_percentile(0.99)
        return [
            f"stress {config.hosts} hosts x {config.procs} procs, "
            f"{config.migrations} requests ({config.arrival} arrivals at "
            f"{config.rate_per_s:g}/s), cap {config.inflight_cap}/host, "
            f"seed {config.seed}",
            f"outcomes          {self.outcome_summary()}",
            f"makespan          {self.makespan_s:.1f}s  "
            f"(throughput {self.throughput_per_s:.3f} migrations/s)",
            *([] if p50 is None else [
                f"freeze            p50 {p50:.2f}s  p99 {p99:.2f}s"
            ]),
            f"concurrency       peak {self.peak_inflight} in flight "
            f"(sustained {self.sustained_inflight}, "
            f"host peak {self.peak_host_inflight}), "
            f"queue peak {self.peak_queue}",
        ]

    def to_dict(self):
        """Canonical plain-data view — the determinism-hash input.

        ``killed`` appears only when a job was killed, so hashes of
        runs without one stay valid.
        """
        data = super().to_dict()
        data.update({
            "throughput_per_s": self.throughput_per_s,
            "freeze_p50_s": self.freeze_percentile(0.50),
            "freeze_p99_s": self.freeze_percentile(0.99),
            "peak_inflight": self.peak_inflight,
            "sustained_inflight": self.sustained_inflight,
            "peak_queue": self.peak_queue,
            "peak_host_inflight": self.peak_host_inflight,
            "tickets": [
                {
                    "process": t.process_name,
                    "source": t.source,
                    "dest": t.dest,
                    "outcome": t.outcome,
                    "reason": t.reason,
                    "submitted_at": t.submitted_at,
                    "admitted_at": t.admitted_at,
                    "frozen_at": t.frozen_at,
                    "finished_at": t.finished_at,
                }
                for t in self.tickets
            ],
            "jobs": {
                job.name: {
                    "host": job.current_host.name if job.current_host else None,
                    "steps": job.result.steps_executed,
                    "migrations": job.migrations,
                    "verified": job.result.verified,
                }
                for job in self.jobs
            },
        })
        if self.killed:
            data["killed"] = self.killed
        return data

    def __repr__(self):
        return (
            f"<StressResult {self.config.hosts}x{self.config.procs} "
            f"completed={self.completed} peak={self.peak_inflight} "
            f"verified={self.verified}>"
        )


def interarrival(arrival, rate_per_s, burst_size, rng, index):
    """Simulated seconds before request ``index`` is issued.

    Shared by migration arrivals here and the serving layer's client
    generators (:mod:`repro.serve.client`), so both traffic kinds speak
    the same uniform/poisson/burst vocabulary.
    """
    mean_gap = 1.0 / rate_per_s
    if arrival == "uniform":
        return mean_gap
    if arrival == "poisson":
        return rng.expovariate(rate_per_s)
    # burst: burst_size requests back to back, then a long gap that
    # keeps the long-run rate at rate_per_s.
    if index % burst_size:
        return 0.0
    return mean_gap * burst_size


def migration_arrivals(config, world, scheduler, jobs, prefix, eligible=None):
    """Engine-process body: submit ``config.migrations`` seeded moves.

    Gaps follow ``config.arrival``.  Each move picks a job (among those
    ``eligible`` accepts, or any when it accepts none or is None) and a
    destination other than the job's host.  Gaps and picks draw from
    the ``{prefix}arrivals`` and ``{prefix}picks`` streams.  Every
    admitted move gets a follower that settles its job.
    """
    engine = world.engine
    gaps = world.streams.stream(f"{prefix}arrivals")
    picks = world.streams.stream(f"{prefix}picks")
    names = config.host_names
    for index in range(config.migrations):
        gap = interarrival(
            config.arrival, config.rate_per_s, config.burst_size, gaps, index
        )
        if gap > 0:
            yield engine.timeout(gap)
        candidates = jobs
        if eligible is not None:
            candidates = [job for job in jobs if eligible(job)] or jobs
        job = candidates[picks.randrange(len(candidates))]
        here = job.current_host.name
        others = [name for name in names if name != here]
        dest = others[picks.randrange(len(others))]
        ticket = scheduler.submit(
            job.name, dest, source=here,
            strategy=config.strategy, prepare=job.prepare_move,
        )
        if ticket.outcome is None:
            engine.process(job.follow(ticket), name=f"follow-{job.name}")


def run_stress(config, calibration=None, instrument=False, faults=None):
    """Execute one stress run; returns a :class:`StressResult`."""
    world = cluster_world(config, calibration, instrument, faults)
    engine = world.engine

    jobs = []
    for index in range(config.procs):
        workload = config.workloads[index % len(config.workloads)]
        spec = workload_by_name(workload)
        host = world.host(config.host_names[index % config.hosts])
        built = build_process(
            host, spec, world.streams, name=f"p{index:02d}"
        )
        job = ManagedJob(world, built)
        if config.job_seconds > 0 and job.steps:
            job.compute_slice_s = config.job_seconds / len(job.steps)
        jobs.append(job)
        job.start(host)

    scheduler = ClusterScheduler(
        world,
        inflight_cap=config.inflight_cap,
        queue_limit=config.queue_limit,
    )
    arrivals = migration_arrivals(config, world, scheduler, jobs, "stress.")
    engine.run(until=engine.process(arrivals, name="stress-arrivals"))
    engine.run(until=scheduler.drain())
    engine.run(until=engine.all_of([job.done for job in jobs]))
    result = StressResult(config, world, scheduler, jobs, world.finish())
    world.close()
    return result

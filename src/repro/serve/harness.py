"""The deterministic serving harness (``repro serve``).

Builds an M-host world, spreads request-serving processes across it
(round-robin over the configured service mix), points seeded client
generators at the flow router, and replays a seeded arrival pattern of
migration requests through the cluster scheduler — so every migration
lands *under live traffic* and the headline numbers are request
latency percentiles during migration, plus drop/retry/redirect counts.

Reuses :class:`~repro.cluster.stress.StressConfig` (the serving knobs
ride on it, hash-stable: they serialise only when a service mix is
configured) and the scheduler/testbed/fault plumbing unchanged, so
``repro serve`` composes with ``--faults``, ``--slo``,
``--sample-period`` and the full transfer-strategy surface.
"""

from repro.cluster.scheduler import ClusterScheduler
from repro.cluster.stress import (
    ClusterResult,
    cluster_world,
    migration_arrivals,
)
from repro.obs.registry import nearest_rank
from repro.workloads.builder import build_process
from repro.workloads.registry import workload_by_name

from repro.serve.client import ClientGenerator
from repro.serve.router import FlowRouter
from repro.serve.server import ServingJob
from repro.serve.workloads import ServeError, serving_by_name

#: Percentiles reported per latency population.
LATENCY_PERCENTILES = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))


class ServingResult(ClusterResult):
    """Everything one serving run measured, canonically serialisable."""

    def __init__(self, config, world, scheduler, router, jobs, makespan_s):
        super().__init__(config, world, scheduler, jobs, makespan_s)
        self.router = router
        self.counts = dict(router.counts)
        #: Terminal per-request records (see FlowRouter._record).
        self.records = list(router.records)
        #: Correct iff every served page verified, something actually
        #: completed, and request conservation held.
        self.verified = (
            not any(job.mismatches for job in self.jobs)
            and self.counts["completed"] > 0
            and self.counts["issued"]
            == self.counts["completed"] + self.counts["dropped"]
        )

    @property
    def completed_migrations(self):
        return self.outcomes.get("completed", 0)

    # -- latency views -----------------------------------------------------------
    def latencies(self, kind=None, during=None):
        """Sorted completed-request latencies, optionally filtered by
        serving workload ``kind`` and/or ``during``-migration flag."""
        return sorted(
            record["latency_s"]
            for record in self.records
            if record["outcome"] == "completed"
            and (kind is None or record["kind"] == kind)
            and (during is None or record["during_migration"] == during)
        )

    def latency_percentile(self, q, kind=None, during=None):
        """Exact nearest-rank latency quantile, or None if empty."""
        return nearest_rank(self.latencies(kind=kind, during=during), q)

    def _summary_for(self, kind=None):
        block = {}
        for scope, during in (("overall", None), ("during_migration", True)):
            values = self.latencies(kind=kind, during=during)
            entry = {"count": len(values)}
            for suffix, q in LATENCY_PERCENTILES:
                value = nearest_rank(values, q)
                entry[suffix] = None if value is None else round(value, 9)
            block[scope] = entry
        return block

    def latency_summary(self):
        """``{"overall": ..., "during_migration": ..., "per_service": ...}``
        with nearest-rank p50/p99/p999 and population counts."""
        kinds = sorted({job.serving.name for job in self.jobs})
        summary = self._summary_for()
        summary["per_service"] = {
            kind: self._summary_for(kind=kind) for kind in kinds
        }
        return summary

    def _latency_row(self, label, during):
        values = self.latencies(during=during)
        if not values:
            return f"{label} no completed requests"
        p50, p99, p999 = (
            nearest_rank(values, q) for _, q in LATENCY_PERCENTILES
        )
        return (f"{label} p50 {p50:.3f}s  p99 {p99:.3f}s  "
                f"p999 {p999:.3f}s  ({len(values)} requests)")

    def _rows(self):
        config, counts = self.config, self.counts
        rows = [
            f"serve {len(config.services)} service kind(s) x "
            f"{config.procs} procs on {config.hosts} hosts, "
            f"{config.clients_per_service} client(s)/proc x "
            f"{config.requests_per_client} requests "
            f"({config.request_arrival} at "
            f"{config.request_rate_per_s:g}/s), seed {config.seed}",
            f"requests          issued {counts['issued']}  "
            f"completed {counts['completed']}  "
            f"dropped {counts['dropped']}  retried {counts['retried']}  "
            f"redirected {counts['redirected']}",
            self._latency_row("latency (all)    ", None),
            self._latency_row("during migration ", True),
        ]
        for kind in sorted({job.serving.name for job in self.jobs}):
            overall, during = (
                self.latency_percentile(0.99, kind=kind, during=flag)
                for flag in (None, True)
            )
            rows.append(
                f"  {kind:<10} p99 "
                f"{'-' if overall is None else f'{overall:.3f}s'}  "
                f"during-migration p99 "
                f"{'-' if during is None else f'{during:.3f}s'}"
            )
        rows.append(f"migrations        {self.outcome_summary()}  "
                    f"(makespan {self.makespan_s:.1f}s)")
        return rows

    # -- canonical form ----------------------------------------------------------
    def to_dict(self):
        data = super().to_dict()
        data.update({
            "requests": dict(sorted(self.counts.items())),
            "latency": self.latency_summary(),
            "windows": {
                service: [
                    [round(opened, 9),
                     None if closed is None else round(closed, 9)]
                    for opened, closed in spans
                ]
                for service, spans in sorted(self.router.windows.items())
            },
            "jobs": {
                job.name: {
                    "service": job.serving.name,
                    "host": (
                        job.current_host.name if job.current_host else None
                    ),
                    "served": job.served,
                    "migrations": job.migrations,
                    "failed": job.failed,
                }
                for job in self.jobs
            },
        })
        return data

    def __repr__(self):
        return (
            f"<ServingResult {len(self.jobs)} services "
            f"issued={self.counts['issued']} "
            f"completed={self.counts['completed']} "
            f"dropped={self.counts['dropped']} verified={self.verified}>"
        )


def run_serve(config, calibration=None, instrument=False, faults=None):
    """Execute one serving run; returns a :class:`ServingResult`.

    ``config`` is a :class:`~repro.cluster.stress.StressConfig` with a
    non-empty ``services`` mix; its migration knobs (arrival, rate,
    in-flight cap, strategy, transfer trio) drive the background moves
    exactly as in ``repro stress``.
    """
    if not config.services:
        raise ServeError(
            "run_serve needs a serving mix: set StressConfig(services=...)"
        )
    specs = [serving_by_name(name) for name in config.services]
    world = cluster_world(config, calibration, instrument, faults)
    engine = world.engine
    router = FlowRouter(
        world,
        retry_backoff_s=config.retry_backoff_s,
        migration_tail_s=config.migration_tail_s,
    )

    jobs = []
    for index in range(config.procs):
        serving = specs[index % len(specs)]
        base = workload_by_name(serving.base)
        host = world.host(config.host_names[index % config.hosts])
        built = build_process(
            host, base, world.streams,
            name=f"s{index:02d}-{serving.name}",
        )
        job = ServingJob(world, built, serving)
        jobs.append(job)
        router.register(job, host)
        job.start(host)

    scheduler = ClusterScheduler(
        world,
        inflight_cap=config.inflight_cap,
        queue_limit=config.queue_limit,
    )
    clients = []
    client_id = 0
    for job in jobs:
        for _ in range(config.clients_per_service):
            client = ClientGenerator(
                world, router,
                service=job.name, kind=job.serving.name,
                name=f"c{client_id:02d}",
                requests=config.requests_per_client,
                arrival=config.request_arrival,
                rate_per_s=config.request_rate_per_s * job.serving.rate_scale,
                burst_size=config.request_burst,
                deadline_s=config.deadline_s,
                retry_budget=config.retry_budget,
            )
            clients.append(
                engine.process(client.run(), name=f"client-{client.name}")
            )
            client_id += 1

    # Prefer flows that are not already on the move (a second ticket
    # for an in-flight job would only be rejected) and that still have
    # a live server behind them.
    arrivals = migration_arrivals(
        config, world, scheduler, jobs, "serve.",
        eligible=lambda job: not job.migrating and not job.failed,
    )
    driver = engine.process(arrivals, name="serve-arrivals")
    engine.run(until=engine.all_of([driver] + clients))
    engine.run(until=scheduler.drain())
    router.close()
    engine.run(until=router.settled())
    for job in jobs:
        job.shutdown()
    engine.run(until=engine.all_of([job.done for job in jobs]))
    result = ServingResult(
        config, world, scheduler, router, jobs, world.finish()
    )
    world.close()
    for job in jobs:
        # The router holds every job it routes to; that side stays.
        job.router = None
    return result

"""Continuous fleet telemetry: a sim-time sampler over live gauges.

The :class:`Telemetry` facade ties three pieces together:

* **Sources** — the world registers its :class:`~repro.net.link.Link`
  and :class:`~repro.accent.host.Host` objects (and later its
  :class:`~repro.cluster.scheduler.ClusterScheduler`); hot paths feed
  latency observations through :meth:`Telemetry.observe`.
* **Windowed histograms** — each fed metric lands in a
  :class:`~repro.obs.registry.WindowedHistogram` that tumbles at the
  sample period, so every tick can read rolling p50/p99/p999 over the
  configured sliding window.
* **The sampler** — a simulated process that wakes every
  ``period`` simulated seconds, snapshots every gauge into append-only
  time series, appends the windowed percentiles, and re-evaluates the
  :class:`~repro.obs.slo.SLOEngine`.

Every tick stamps an :meth:`Engine.serial <repro.sim.engine.Engine.serial>`
id (``telemetry.tick``), so two worlds built from one seed produce
byte-identical telemetry payloads — replay tests hold with sampling on.

The sampler's pending timeout would keep an unbounded ``engine.run()``
spinning forever, so every orchestrator calls :meth:`Telemetry.stop`
(via ``world.stop_telemetry()``) before its final drain; the last
pending tick then fires once, sees the flag, and the process exits.
"""

from repro.obs.registry import DEFAULT_LATENCY_BUCKETS
from repro.obs.slo import SLOEngine

#: Default sampler cadence in simulated seconds.  A tick every two
#: simulated seconds keeps the sampler's share of a run's CPU under
#: the observability budget even on microbenchmarks that fast-forward
#: hundreds of simulated seconds per wall second (see
#: ``benchmarks/bench_obs_overhead.py``) while still giving dashboards
#: dozens to hundreds of points on cluster-scale runs; pass
#: ``--sample-period`` for finer ribbons.
DEFAULT_SAMPLE_PERIOD = 2.0


def check_sample_period(sample_period):
    """Reject a negative sampling cadence (0 turns sampling off)."""
    if sample_period < 0:
        raise ValueError("sample_period must be >= 0")

#: Default sliding-window width for percentile ribbons, in simulated
#: seconds (the merge span, not the tumbling chunk size).
DEFAULT_WINDOW_S = 5.0

#: Cluster-scale latency bounds (freeze/wait run seconds to tens of
#: seconds under contention) — mirrors the scheduler's histograms.
FLEET_SECONDS_BUCKETS = (
    0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 7.5, 10.0, 15.0, 20.0, 30.0, 60.0,
)

#: Well-known distribution metrics -> (registry family, buckets).
DISTRIBUTIONS = {
    "migration.freeze": ("freeze_seconds_windowed", FLEET_SECONDS_BUCKETS),
    "scheduler.wait": ("wait_seconds_windowed", FLEET_SECONDS_BUCKETS),
    "fault.service": ("fault_service_seconds_windowed",
                      DEFAULT_LATENCY_BUCKETS),
}

#: Request latencies span sub-millisecond service times to tens of
#: seconds inside a frozen flow — wider than the default buckets on
#: both ends (mirrors repro.serve.router.SERVING_LATENCY_BUCKETS).
SERVING_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Bucket choices for metrics created lazily by :meth:`Telemetry.observe`,
#: matched by metric-name prefix (first hit wins).  ``request.latency``
#: and its per-service sub-metrics (``request.latency.kv`` ...) are fed
#: by the serving layer's flow router only when serving runs, so they
#: are not in :data:`DISTRIBUTIONS` — eager registration would add
#: empty families (and all-None ribbon columns) to every sampled
#: non-serving trace.
AUTO_BUCKETS = (
    ("request.latency", SERVING_LATENCY_BUCKETS),
)

#: Ribbon statistics appended per distribution per tick.
PERCENTILES = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))
_QUANTILES = tuple(q for _, q in PERCENTILES)


class Telemetry:
    """One world's continuous-sampling state (gauges, windows, SLOs)."""

    def __init__(self, obs, engine, period=DEFAULT_SAMPLE_PERIOD,
                 window_s=DEFAULT_WINDOW_S, slos=()):
        if period <= 0:
            raise ValueError(f"sample period must be > 0, got {period}")
        if window_s < period:
            window_s = period
        self.registry = obs.registry
        self.engine = engine
        self.period = float(period)
        self.window_s = float(window_s)
        #: Sliding-window width in tumbling chunks (>= 1).
        self.ribbon_windows = max(1, int(round(window_s / period)))
        #: Tick times (simulated seconds), append-only.
        self.times = []
        #: ``engine.serial("telemetry.tick")`` id per tick — the
        #: determinism anchor replay tests assert on.
        self.ticks = []
        #: series name -> values aligned with :attr:`times` (None where
        #: a series had no value yet, e.g. an empty percentile window).
        self.series = {}
        self._hists = {}
        #: Percentile-ribbon state sorted by metric (see
        #: :meth:`_rebuild_ribbons`) — precomputed so the per-tick loop
        #: never formats strings; rebuilt when :meth:`observe` meets a
        #: new metric.
        self._ribbons = []
        for metric, (family, buckets) in DISTRIBUTIONS.items():
            self._hists[metric] = obs.registry.windowed_histogram(
                family, window_s=self.period, buckets=buckets
            ).labels()
        self._rebuild_ribbons()
        self.slo_engine = SLOEngine(slos, obs) if slos else None
        #: (slo name, burn-rate column) per SLO.
        self._burns = [
            (slo.name, self._column(f"slo.{slo.name}.burn")) for slo in slos
        ]
        self._schedulers = []
        self._routers = []
        self._links = []
        self._hosts = []
        self._stopped = False
        self._proc = None

    def _column(self, name):
        """The series column for ``name`` (created + backfilled once)."""
        column = self.series.get(name)
        if column is None:
            column = self.series[name] = [None] * len(self.times)
        return column

    def _rebuild_ribbons(self):
        # (hist, (column per PERCENTILES entry)), sorted by metric.
        self._ribbons = [
            (
                hist,
                tuple(
                    self._column(f"{metric}.{suffix}")
                    for suffix, _ in PERCENTILES
                ),
            )
            for metric, hist in sorted(self._hists.items())
        ]

    def __repr__(self):
        return (
            f"<Telemetry period={self.period}s ticks={len(self.times)} "
            f"series={len(self.series)}>"
        )

    # -- source registration ----------------------------------------------------
    def add_scheduler(self, scheduler):
        """Sample this scheduler's global and per-host depths."""
        host_columns = tuple(
            (
                name,
                self._column(f"host.{name}.inflight"),
                self._column(f"host.{name}.queued"),
            )
            for name in sorted(scheduler.world.hosts)
        )
        self._schedulers.append((
            scheduler,
            self._column("scheduler.inflight"),
            self._column("scheduler.queued"),
            host_columns,
        ))

    def add_router(self, router):
        """Sample this flow router's request counters + backlog.

        The cumulative outcome counters become ``serve.*`` series, so
        the health dashboard can show drop/retry/redirect progression
        from the trace payload alone.
        """
        self._routers.append((
            router,
            self._column("serve.issued"),
            self._column("serve.completed"),
            self._column("serve.dropped"),
            self._column("serve.retried"),
            self._column("serve.redirected"),
            self._column("serve.outstanding"),
        ))

    def add_link(self, link):
        """Sample this link's inflight/peak/bytes gauges."""
        name = link.name
        self._links.append((
            link,
            self._column(f"link.{name}.inflight"),
            self._column(f"link.{name}.peak_inflight"),
            self._column(f"link.{name}.bytes"),
        ))

    def add_host(self, host):
        """Sample this host's memory/residual/flusher gauges."""
        name = host.name
        self._hosts.append((
            host,
            host.physical,
            host.kernel,
            self._column(f"host.{name}.resident_pages"),
            self._column(f"host.{name}.imag_pages"),
            self._column(f"host.{name}.residual_pages"),
            self._column(f"host.{name}.flusher_backlog"),
        ))

    # -- hot-path feed ----------------------------------------------------------
    def observe(self, metric, value):
        """Feed one latency observation into ``metric``'s window."""
        hist = self._hists.get(metric)
        if hist is None:
            family = metric.replace(".", "_") + "_windowed"
            buckets = DEFAULT_LATENCY_BUCKETS
            for prefix, candidate in AUTO_BUCKETS:
                if metric.startswith(prefix):
                    buckets = candidate
                    break
            hist = self._hists[metric] = self.registry.windowed_histogram(
                family, window_s=self.period, buckets=buckets
            ).labels()
            self._rebuild_ribbons()
        hist.observe(value, self.engine.now)

    # -- the sampler process ----------------------------------------------------
    def start(self):
        """Launch the sampler process (idempotent)."""
        if self._proc is None:
            self._proc = self.engine.process(
                self._run(), name="telemetry-sampler"
            )
        return self._proc

    def _run(self):
        engine = self.engine
        while not self._stopped:
            yield engine.timeout(self.period)
            if self._stopped:
                break
            self.sample()

    def stop(self):
        """Flag the sampler down and take one final flush sample.

        Call before the world's final ``engine.run()`` drain: the
        pending tick fires once, sees the flag, and the process ends —
        otherwise the drain would never terminate.
        """
        if self._stopped:
            return
        now = self.engine.now
        if self._proc is not None and (
            not self.times or self.times[-1] != round(now, 9)
        ):
            self.sample()
        self._stopped = True
        if self.slo_engine is not None:
            self.slo_engine.finalize(now)

    def detach(self):
        """Let go of the engine and the sampled sources (hosts, links,
        schedulers, routers) once the world has ended; the series and
        the SLO state stay readable."""
        self.engine = self._proc = None
        self._schedulers = []
        self._routers = []
        self._links = []
        self._hosts = []

    # -- sampling ---------------------------------------------------------------
    def sample(self):
        """Take one snapshot of every registered gauge (one tick)."""
        engine = self.engine
        now = engine.now
        self.ticks.append(engine.serial("telemetry.tick"))
        self.times.append(round(now, 9))

        # Gauges append straight into their pre-bound columns — this
        # runs every sampled tick, so no string formatting, dict
        # lookups, or call indirection on the tick path.
        for scheduler, col_inflight, col_queued, host_columns in (
            self._schedulers
        ):
            col_inflight.append(scheduler.inflight)
            col_queued.append(scheduler.queued)
            for name, col_host_inflight, col_host_queued in host_columns:
                col_host_inflight.append(scheduler.host_inflight(name))
                col_host_queued.append(scheduler.host_queued(name))
        for (router, col_issued, col_completed, col_dropped, col_retried,
             col_redirected, col_outstanding) in self._routers:
            counts = router.counts
            col_issued.append(counts["issued"])
            col_completed.append(counts["completed"])
            col_dropped.append(counts["dropped"])
            col_retried.append(counts["retried"])
            col_redirected.append(counts["redirected"])
            col_outstanding.append(router.outstanding)
        for link, col_inflight, col_peak, col_bytes in self._links:
            col_inflight.append(link.inflight)
            col_peak.append(link.peak_inflight)
            col_bytes.append(link.bytes)
        for entry in self._hosts:
            self._sample_host(entry)

        windows = self.ribbon_windows
        for hist, columns in self._ribbons:
            values = hist.merged(windows, now).percentiles(_QUANTILES)
            for column, value in zip(columns, values):
                column.append(None if value is None else round(value, 9))

        if self.slo_engine is not None:
            burns = self.slo_engine.evaluate(
                now, self._window_for, self._gauge_for
            )
            for name, column in self._burns:
                column.append(round(burns[name], 6))

    def _sample_host(self, entry):
        (host, physical, kernel, col_resident, col_imag, col_residual,
         col_backlog) = entry
        col_resident.append(physical.used)
        col_imag.append(kernel.owed_pages())
        col_residual.append(host.nms.backing.owed_pages())
        flusher = host.flusher
        col_backlog.append(
            flusher.backlog_pages() if flusher is not None else 0
        )

    # -- SLO metric resolution ----------------------------------------------------
    def _window_for(self, slo):
        hist = self._hists.get(slo.metric)
        if hist is None:
            return None
        windows = max(1, int(round(slo.window_s / self.period)))
        return hist.merged(windows, self.engine.now)

    def _gauge_for(self, slo):
        column = self.series.get(slo.metric)
        return column[-1] if column else None

    # -- export -------------------------------------------------------------------
    def snapshot(self):
        """Plain-data payload for trace export (JSON-serialisable)."""
        data = {
            "period_s": self.period,
            "window_s": self.window_s,
            "ticks": list(self.ticks),
            "times": list(self.times),
            "series": {name: list(column)
                       for name, column in sorted(self.series.items())},
        }
        if self.slo_engine is not None:
            data["slo"] = self.slo_engine.snapshot()
        return data

"""The Accent testbed and the single-trial orchestrator.

A :class:`Testbed` reproduces one migration experiment end-to-end: it
builds the workload's pre-migration state on the source host, runs the
MigrationManager protocol along a path of hosts — one hop for the
paper's two-machine trials and the §5 pre-copy baseline, several for
§6's migration chains — replays the workload's reference trace at the
destination (verifying every page against the contents the source
held), and returns a result with every quantity the paper's evaluation
section reports.

Each trial runs in a fresh simulated world, so trials are independent
and fully deterministic given the seed.
"""

from collections import namedtuple

from repro.accent.constants import PAGE_SIZE
from repro.accent.host import Host
from repro.accent.ipc.port import PortRegistry
from repro.calibration import DEFAULT_CALIBRATION
from repro.cor.flusher import ResidualFlusher
from repro.faults import FaultInjector, FaultPlan, ResidualDependencyError
from repro.metrics.collector import MetricsCollector
from repro.metrics.timeline import Timeline
from repro.migration.manager import MigrationAborted, MigrationManager
from repro.migration.plan import TransferOptions
from repro.migration.precopy import default_dirty_rate
from repro.migration.strategy import Strategy
from repro.net.link import Link
from repro.net.netmsgserver import NetMsgServer
from repro.obs import RUN_META, Instrumentation
from repro.obs.telemetry import DEFAULT_SAMPLE_PERIOD, Telemetry, check_sample_period
from repro.sim import Engine, SeededStreams
from repro.workloads.builder import build_process
from repro.workloads.content import WrittenPages
from repro.workloads.registry import workload_by_name
from repro.workloads.runner import RemoteRunResult, remote_body
from repro.workloads.trace import ReferenceTrace


def _family_total(registry, name):
    """Sum of one metric family across all label combinations (0 if
    the family was never touched)."""
    family = registry.get(name)
    if family is None:
        return 0
    return sum(child.value for _, child in family.items())


class TestbedWorld:
    """One fresh simulated world: N hosts on one shared Ethernet.

    The default is the paper's two-machine testbed; a longer
    ``host_names`` tuple builds the multi-host setting of §6, where a
    process's virtual address space can end up physically dispersed
    among several computational hosts (migration chains).
    """

    def __init__(self, seed, calibration, host_names=("alpha", "beta"),
                 instrument=False, fault_plan=None, sample_period=0.0,
                 slos=()):
        if len(host_names) < 2:
            raise ValueError("a testbed needs at least two hosts")
        self.calibration = calibration
        self.engine = Engine()
        self.streams = SeededStreams(seed)
        self.registry = PortRegistry(self.engine)
        #: Tracing + metrics registry; spans only when ``instrument``.
        self.obs = Instrumentation(
            clock=self.engine.clock, enabled=instrument
        )
        self.obs.attach_engine(self.engine)
        self.metrics = MetricsCollector(self.engine, obs=self.obs)
        #: One shared medium, as on the SPICE 10 Mbit Ethernet.
        self.link = Link(self.engine, calibration)
        written_pages = WrittenPages()
        self.hosts = {}
        self.managers = {}
        servers = []
        for name in host_names:
            host = Host(
                self.engine, name, calibration, self.registry, self.metrics,
                written_pages,
            )
            self.hosts[name] = host
            servers.append(NetMsgServer(host))
            self.managers[name] = MigrationManager(host)
        for nms in servers:
            for peer in servers:
                if peer is not nms:
                    nms.connect(self.link, peer)
        #: The cluster :class:`~repro.store.StoreDirectory`, built by
        #: :meth:`enable_store` (None = content store off).
        self.store_directory = None
        #: Attached only when a fault plan is supplied, so perfect-net
        #: worlds keep the paper-calibrated cost model to the event.
        self.fault_injector = None
        if fault_plan is not None:
            self.fault_injector = FaultInjector(
                fault_plan,
                self.engine,
                self.streams.stream(FaultPlan.RNG_STREAM),
                hosts=self.hosts,
                links=[self.link],
                registry=self.obs.registry,
            )
            if fault_plan.flush.enabled:
                for host in self.hosts.values():
                    ResidualFlusher(
                        host,
                        batch_pages=fault_plan.flush.batch_pages,
                        interval_s=fault_plan.flush.interval_s,
                    )
        #: Continuous fleet telemetry, or None when sampling is off
        #: (``--sample-period`` / ``--slo``).  SLO specs alone imply
        #: the default cadence — burn rates need ticks to evaluate on.
        if sample_period or slos:
            telemetry = Telemetry(
                self.obs, self.engine,
                period=sample_period or DEFAULT_SAMPLE_PERIOD,
                slos=slos,
            )
            telemetry.add_link(self.link)
            for host in self.hosts.values():
                telemetry.add_host(host)
            telemetry.start()
            self.obs.telemetry = telemetry

    def stop_telemetry(self):
        """Stop the sampler ahead of the final drain (no-op when off)."""
        telemetry = self.obs.telemetry
        if telemetry is not None:
            telemetry.stop()

    def finish(self):
        """End a run: stop the sampler, then drain the in-flight
        asynchronous residue (segment-death messages and the like).

        Returns the simulated time the run ended at, before the drain.
        """
        ended = self.engine.now
        self.stop_telemetry()
        self.engine.run()
        return ended

    def close(self):
        """End this world for good, so that reference counting frees it.

        Call it once the run's result has copied what it reports.  It
        closes the processes still waiting on the engine (server loops
        blocked on their ports), detaches the instrumentation from the
        engine and has every host let go of its parts, which are in
        reference cycles with it.  The world must not run again.
        """
        self.engine.close()
        self.obs.detach_engine()
        for host in self.hosts.values():
            host.close()

    # The classic two-host views used throughout the test suite.
    @property
    def source(self):
        return next(iter(self.hosts.values()))

    @property
    def dest(self):
        hosts = list(self.hosts.values())
        return hosts[1]

    @property
    def source_manager(self):
        return self.managers[self.source.name]

    @property
    def dest_manager(self):
        return self.managers[self.dest.name]

    def host(self, name):
        """The host named ``name``."""
        return self.hosts[name]

    def manager(self, name):
        """The MigrationManager at host ``name``."""
        return self.managers[name]

    def apply_options(self, options):
        """Install one :class:`TransferOptions` on every host.

        Sets the backer prefetch knob and the pager's batch/pipeline
        windows host-wide, makes the options each manager's default
        so direct ``manager.migrate(...)`` calls inherit them, and
        enables the content store when the options ask for it.
        """
        options = TransferOptions.coerce(options)
        for host in self.hosts.values():
            host.nms.prefetch = options.prefetch
            host.pager.batch = options.batch
            host.pager.pipeline = options.pipeline
        for manager in self.managers.values():
            manager.default_options = options
        if options.store_enabled:
            self.enable_store(dedup=options.dedup)
        return options

    def enable_store(self, dedup=False):
        """Build the cluster content-addressed page store (idempotent).

        Gives every host a :class:`~repro.store.ContentStore` and a
        :class:`~repro.store.server.StoreServer`, attaches the shared
        :class:`~repro.store.StoreDirectory` to every resolver, and —
        with ``dedup`` — turns on wire dedup at every NetMsgServer.
        Store-off worlds never reach this method, so they create none
        of these ports, metrics or span arguments.
        """
        from repro.store import ContentStore, StoreDirectory
        from repro.store.server import StoreServer

        if self.store_directory is None:
            directory = StoreDirectory(self.hosts)
            self.store_directory = directory
            for host in self.hosts.values():
                host.store = ContentStore(host, directory)
                server = StoreServer(host)
                directory.register_server(host.name, server.port)
                host.resolver.attach(directory)
        if dedup:
            for host in self.hosts.values():
                host.nms.dedup = True
        return self.store_directory


class TrialResult:
    """What every trial shape measures: the base of the three result
    types, each of which renders itself (:meth:`to_dict`,
    :meth:`report_rows`, :attr:`ok`)."""

    #: The ``command`` key of :meth:`to_dict`.
    command = None
    #: Attributes :meth:`to_dict` reports under their own names.
    fields = ("outcome", "bytes_total", "verified")

    def __init__(self, trial):
        self.spec = trial.spec
        #: The trial's full :class:`TransferOptions`.
        self.options = trial.options
        self.strategy = trial.options.strategy
        self.prefetch = trial.options.prefetch
        self.batch = trial.options.batch
        self.pipeline = trial.options.pipeline
        self.run_result = trial.run_result
        #: "completed", "aborted" (rolled back to the source), or
        #: "killed" (a residual dependency broke post-migration).
        self.outcome = trial.outcome
        #: Human-readable cause when the outcome is not "completed".
        self.failure = trial.failure
        world = trial.world
        #: The world's instrumentation (spans + registry), for export.
        self.obs = world.obs
        #: Fault-lifecycle records (dicts), one per imaginary fault,
        #: when the world ran instrumented; [] otherwise.
        self.fault_records = (
            world.obs.lifecycle.snapshot()
            if world.obs.lifecycle is not None
            else []
        )
        metrics = world.metrics
        self._marks = dict(metrics.marks)
        self.faults = dict(metrics.faults)
        self.bytes_total = metrics.total_link_bytes
        self.bytes_by_category = dict(metrics.link_bytes_by_category())
        self.message_handling_s = metrics.total_message_handling_s
        self.prefetched_pages = metrics.prefetched_pages
        self.prefetch_hits = metrics.prefetch_hits
        # Fault/reliability accounting (all zero on a perfect network).
        registry = world.obs.registry
        self.retransmits = _family_total(registry, "transport_retransmits_total")
        self.link_drops = _family_total(registry, "link_drops_total")
        self.duplicates = _family_total(registry, "transport_duplicates_total")
        self.aborts = _family_total(registry, "migration_aborts_total")
        self.residual_kills = _family_total(registry, "residual_kills_total")
        self.flushed_pages = _family_total(registry, "flushed_pages_total")
        #: Whether a fault plan was injected (its effects join the report).
        self.faulted = world.fault_injector is not None

    @property
    def ok(self):
        """The trial completed and its pages verified."""
        return self.outcome == "completed" and bool(self.verified)

    def to_dict(self):
        """Plain-data report: the ``--json`` form."""
        data = {"command": self.command, "workload": self.spec.name}
        data.update((name, getattr(self, name)) for name in self.fields)
        return data

    def report_rows(self):
        """Text report lines in order; :data:`~repro.obs.RUN_META`
        marks where the run-metadata block goes."""
        rows = self._rows()
        if self.faulted:
            rows.append(f"outcome           {self.outcome}")
            if self.failure:
                rows.append(f"failure           {self.failure}")
            rows.append(
                f"fragments dropped {self.link_drops}  (retransmits "
                f"{self.retransmits}, duplicates {self.duplicates})"
            )
            if self.flushed_pages:
                rows.append(f"pages flushed     {self.flushed_pages}")
        return rows + [RUN_META, f"verified          {self.verified}"]

    @property
    def marks(self):
        """Phase marks: name -> simulated time (trial clock)."""
        return dict(self._marks)

    def _span(self, start, end):
        try:
            return self._marks[end] - self._marks[start]
        except KeyError:
            return None

    @property
    def exec_s(self):
        """Remote execution time (Figure 4-1); a chain's last segment run."""
        return self._span("exec.start", "exec.end")

    @property
    def end_to_end_s(self):
        """Whole trial: migration request to last remote instruction."""
        return self._span("trial.start", "trial.end")

    @property
    def prefetch_hit_ratio(self):
        """Prefetched pages later referenced (None: nothing prefetched)."""
        if self.prefetched_pages == 0:
            return None
        return self.prefetch_hits / self.prefetched_pages

    @property
    def verified(self):
        """Page-content verification outcome (None if trace not run)."""
        if self.run_result is None or self.run_result.steps_executed == 0:
            return None
        return self.run_result.verified


class MigrationResult(TrialResult):
    """Everything one two-host trial measured."""

    command = "migrate"
    fields = TrialResult.fields + ("strategy", "pages_transferred")
    #: Phase timings :meth:`to_dict` adds for a completed trial.
    phases = ("excise_s", "core_transfer_s", "transfer_s", "insert_s",
              "migration_s", "exec_s")

    def __init__(self, trial):
        super().__init__(trial)
        world = trial.world
        metrics = world.metrics
        #: The trial's fragments, a :class:`~repro.metrics.LinkLog` copy.
        self.link_records = metrics.link_records.copy()
        self.bytes_fault_support = metrics.fault_support_bytes
        self.messages_total = metrics.total_messages
        self.pages_bulk = world.source.nms.pages_shipped_by_op.get(
            "migrate.rimas", 0
        )
        self.pages_demand = world.source.nms.backing.delivered_page_count()

    # -- phase timings (Tables 4-4/4-5, Figure 4-1) ----------------------------
    @property
    def excise_s(self):
        """ExciseProcess elapsed time (Table 4-4 Overall)."""
        return self._span("excise.start", "excise.end")

    @property
    def excise_amap_s(self):
        """AMap-construction component (Table 4-4 AMap)."""
        return self._span("excise.amap.start", "excise.amap.end")

    @property
    def excise_rimas_s(self):
        """Address-space collapse component (Table 4-4 RIMAS)."""
        return self._span("excise.rimas.start", "excise.rimas.end")

    @property
    def core_transfer_s(self):
        """Core context message phase (§4.3.2: ≈1 s)."""
        return self._span("core.start", "core.end")

    @property
    def transfer_s(self):
        """Address-space (RIMAS) transfer time (Table 4-5)."""
        return self._span("rimas.start", "rimas.end")

    @property
    def insert_s(self):
        """InsertProcess time (§4.3.1: 263–853 ms)."""
        return self._span("insert.start", "insert.end")

    @property
    def migration_s(self):
        """Whole migration: excise start to insert end — the duration
        of the root ``migrate`` span in an exported trace."""
        return self._span("excise.start", "insert.end")

    @property
    def transfer_plus_exec_s(self):
        """Figure 4-2's end-to-end metric."""
        if self.transfer_s is None or self.exec_s is None:
            return None
        return self.transfer_s + self.exec_s

    # -- data movement (Table 4-3, Figures 4-3/4-5) -----------------------------
    @property
    def pages_transferred(self):
        """Distinct pages of process memory moved to the new site."""
        return self.pages_bulk + self.pages_demand

    @property
    def fraction_of_real_transferred(self):
        """Table 4-3's headline number (percent once ×100)."""
        return self.pages_transferred * PAGE_SIZE / self.spec.real_bytes

    @property
    def fraction_of_total_transferred(self):
        """Table 4-3's bracketed number."""
        return self.pages_transferred * PAGE_SIZE / self.spec.total_bytes

    def to_dict(self):
        data = super().to_dict()
        data["options"] = {
            name: getattr(self.options, name)
            for name in ("prefetch", "batch", "pipeline", "store", "dedup")
        }
        if self.outcome == "completed":
            data.update((name, getattr(self, name)) for name in self.phases)
        return data

    def _rows(self):
        knobs = f"prefetch {self.prefetch}"
        if self.options.batched:
            knobs += f", batch {self.batch}, pipeline {self.pipeline}"
        if self.options.store_enabled:
            knobs += ", dedup" if self.options.dedup else ", store"
        rows = [
            f"workload          {self.spec.name}",
            f"strategy          {self.strategy} ({knobs})",
        ]
        if self.outcome == "completed":
            rows += [
                f"excise            {self.excise_s:.2f}s  "
                f"(AMap {self.excise_amap_s:.2f}s, "
                f"RIMAS {self.excise_rimas_s:.2f}s)",
                f"core message      {self.core_transfer_s:.2f}s",
                f"space transfer    {self.transfer_s:.2f}s",
                f"insert            {self.insert_s:.3f}s",
                f"migration total   {self.migration_s:.2f}s",
                f"remote execution  {self.exec_s:.2f}s",
            ]
        rows += [
            f"bytes on wire     {self.bytes_total:,}",
            f"message handling  {self.message_handling_s:.2f}s",
            f"pages moved       {self.pages_transferred} "
            f"({100 * self.fraction_of_real_transferred:.1f}% of RealMem)",
        ]
        if self.prefetch_hit_ratio is not None:
            rows.append(f"prefetch hits     {self.prefetch_hit_ratio:.0%}")
        return rows

    def timeline(self, bin_seconds=1.0):
        """Figure 4-5 input: binned byte-rate series over the trial."""
        return Timeline(bin_seconds).bins(
            self.link_records,
            start=self._marks.get("trial.start"),
            end=self._marks.get("trial.end"),
        )

    def __repr__(self):
        transfer = (
            f"{self.transfer_s:.2f}s" if self.transfer_s is not None else "-"
        )
        exec_s = f"{self.exec_s:.2f}s" if self.exec_s is not None else "-"
        return (
            f"<MigrationResult {self.spec.name} {self.strategy} "
            f"pf={self.prefetch} outcome={self.outcome} "
            f"transfer={transfer} exec={exec_s} bytes={self.bytes_total}>"
        )


class PrecopyResult(TrialResult):
    """Measurements from one iterative pre-copy migration (§5 baseline)."""

    command = "precopy"
    fields = TrialResult.fields + ("downtime_s", "pages_shipped")

    def __init__(self, trial):
        super().__init__(trial)
        #: Iterative rounds before the stop: (pages, seconds) each.
        self.rounds = list(trial.rounds)
        #: Distinct pages of process memory moved to the new site (the
        #: destination merges the freshest copy of every page).
        self.pages_transferred = (
            trial.world.dest_manager.precopy_pages_merged.get(
                self.spec.name, 0
            )
        )

    @property
    def downtime_s(self):
        """Process stopped -> running at the destination (V's metric)."""
        return self._span("downtime.start", "insert.end")

    @property
    def precopy_s(self):
        """Time spent copying while the process still ran."""
        return self._span("precopy.start", "downtime.start")

    @property
    def pages_shipped(self):
        """Total page shipments, counting re-dirtied pages per round."""
        return sum(r.pages for r in self.rounds)

    def to_dict(self):
        data = super().to_dict()
        data["rounds"] = [round_._asdict() for round_ in self.rounds]
        return data

    def _rows(self):
        rows = [f"pre-copy of {self.spec.name}: {len(self.rounds)} rounds"]
        rows += [
            f"  round {index}: {round_.pages} pages in {round_.seconds:.2f}s"
            for index, round_ in enumerate(self.rounds, 1)
        ]
        if self.downtime_s is not None:
            rows.append(f"downtime          {self.downtime_s:.2f}s")
        return rows + [
            f"bytes on wire     {self.bytes_total:,}",
            f"pages shipped     {self.pages_shipped} "
            f"(address space holds {self.spec.real_pages})",
        ]

    def __repr__(self):
        downtime = (
            f"{self.downtime_s:.2f}s" if self.downtime_s is not None else "-"
        )
        return (
            f"<PrecopyResult {self.spec.name} rounds={len(self.rounds)} "
            f"outcome={self.outcome} downtime={downtime} "
            f"verified={self.verified}>"
        )


class ChainResult(TrialResult):
    """Measurements from one multi-hop migration."""

    command = "chain"
    fields = TrialResult.fields + (
        "strategy", "path", "hop_times_s", "end_to_end_s", "pages_served",
    )

    def __init__(self, trial):
        super().__init__(trial)
        self.path = trial.path
        #: Elapsed seconds per hop (excise + core + transfer + insert).
        self.hop_times_s = list(trial.hop_times)
        hosts = trial.world.hosts
        #: Demand pages served per backing host — how the address space
        #: was physically dispersed along the chain.
        self.pages_served = {
            name: host.nms.backing.delivered_page_count()
            for name, host in hosts.items()
        }
        #: Pages a backer still held (never demanded) when its segment
        #: received Imaginary Segment Death.
        self.pages_unclaimed = {
            name: sum(
                total - delivered
                for _, _, delivered, total in host.nms.backing.retired
            )
            for name, host in hosts.items()
        }

    def _rows(self):
        served = ", ".join(f"{h}={n}" for h, n in self.pages_served.items())
        return [
            f"chain {' -> '.join(self.path)} under {self.strategy}",
            *(f"  hop {hop}: {seconds:.2f}s"
              for hop, seconds in enumerate(self.hop_times_s, 1)),
            f"end-to-end        {self.end_to_end_s:.2f}s",
            f"bytes on wire     {self.bytes_total:,}",
            f"pages served by   {served}",
        ]

    def __repr__(self):
        return (
            f"<ChainResult {self.spec.name} {'→'.join(self.path)} "
            f"{self.strategy} hops={len(self.hop_times_s)} "
            f"outcome={self.outcome} verified={self.verified}>"
        )


class SweepResult:
    """One workload's strategy x prefetch sweep (Figure 4-2's shape):
    ``(tag, MigrationResult)`` trials against a completed pure-copy
    baseline."""

    ok = True

    def __init__(self, workload, baseline, trials):
        self.workload = workload
        self.baseline = baseline
        self.trials = list(trials)

    def to_dict(self):
        """Plain-data report: the ``--json`` form."""
        base = self.baseline.transfer_plus_exec_s
        trials = []
        for tag, result in self.trials:
            trials.append({"trial": tag, "outcome": result.outcome})
            if result.outcome == "completed":
                trials[-1].update({
                    "transfer_s": result.transfer_s,
                    "exec_s": result.exec_s,
                    "speedup_pct":
                        100 * (base - result.transfer_plus_exec_s) / base,
                })
        return {"command": "sweep", "workload": self.workload,
                "baseline_transfer_plus_exec_s": base, "trials": trials}

    def report_rows(self):
        """Text report lines in order, run-metadata block last."""
        data = self.to_dict()
        rows = [
            f"{self.workload}: pure-copy transfer+exec = "
            f"{data['baseline_transfer_plus_exec_s']:.1f}s",
            f"{'trial':>10}  {'transfer':>8}  {'exec':>8}  {'speedup':>8}",
        ]
        for trial in data["trials"]:
            row = f"{trial['trial']:>10}  "
            if trial["outcome"] != "completed":
                rows.append(row + f"{trial['outcome']:>8}")
                continue
            rows.append(row + f"{trial['transfer_s']:>7.2f}s  "
                        f"{trial['exec_s']:>7.2f}s  "
                        f"{trial['speedup_pct']:>7.1f}%")
        return rows + [RUN_META]


def chain_fractions(path, run_fractions=None):
    """The run fractions of a chain along ``path``: one per
    intermediate host, 0 each by default.  ValueError if they do not
    fit the path."""
    if len(path) < 2:
        raise ValueError("a chain needs at least two hosts")
    intermediates = len(path) - 2
    if run_fractions is None:
        return (0.0,) * intermediates
    if len(run_fractions) != intermediates:
        raise ValueError(
            f"need {intermediates} run fractions for {len(path)} hosts"
        )
    return run_fractions


def check_dirty_rate(dirty_rate_pps):
    """Reject a negative pre-copy dirty rate (None: the default)."""
    if dirty_rate_pps is not None and dirty_rate_pps < 0:
        raise ValueError(f"dirty rate must be >= 0, got {dirty_rate_pps:g}")


#: What one run of the hop loop hands its result class.
Trial = namedtuple(
    "Trial",
    "spec options path world run_result outcome failure hop_times rounds",
)


def _segments(trace, run_fractions):
    """Split ``trace`` into one slice per chain hop.

    Each intermediate host runs its fraction of the steps and the last
    host runs the rest; a host with no steps gets None.
    """
    steps = trace.steps
    bounds = [0]
    for fraction in run_fractions:
        bounds.append(min(len(steps), bounds[-1] + int(fraction * len(steps))))
    bounds.append(len(steps))
    return [
        ReferenceTrace(steps[start:end], trace.compute_slice_s * (end - start))
        if end > start else None
        for start, end in zip(bounds, bounds[1:])
    ]


class Testbed:
    """Factory for independent, deterministic migration trials."""

    # Not a pytest test class, despite the name.
    __test__ = False

    def __init__(self, seed=1987, calibration=None, instrument=False,
                 faults=None, sample_period=0.0, slos=()):
        check_sample_period(sample_period)
        self.seed = seed
        self.calibration = calibration or DEFAULT_CALIBRATION
        #: When true, every trial's world records spans (``--trace``).
        self.instrument = instrument
        #: Optional :class:`~repro.faults.FaultPlan` applied to every
        #: trial world this testbed builds.
        self.faults = faults
        #: Continuous-telemetry cadence in simulated seconds (0 = off).
        self.sample_period = sample_period
        #: Parsed :class:`~repro.obs.slo.SLO` objectives for every
        #: trial world (implies sampling at the default period).
        self.slos = tuple(slos)

    def world(self, host_names=("alpha", "beta")):
        """A fresh world (for tests that drive the pieces by hand)."""
        return TestbedWorld(
            self.seed, self.calibration, host_names=host_names,
            instrument=self.instrument, fault_plan=self.faults,
            sample_period=self.sample_period, slos=self.slos,
        )

    def migrate(self, workload, strategy=None, run_remote=True, options=None):
        """Run one two-host trial; returns a :class:`MigrationResult`.

        ``options`` is a :class:`TransferOptions` or a dict of its
        fields; ``strategy``, when given, overrides its strategy.
        """
        return self._trial(
            MigrationResult, workload, strategy, options,
            run_remote=run_remote,
        )

    def migrate_precopy(self, workload, dirty_rate_pps=None, stop_threshold=32,
                        max_rounds=5, run_remote=True, options=None):
        """Run one iterative pre-copy trial (the §5 V-system baseline);
        returns a :class:`PrecopyResult`.

        ``dirty_rate_pps`` defaults to the workload's own write
        intensity.  Pre-copy ships everything physically, so of the
        ``options`` only those governing residual traffic apply.
        """
        spec = workload_by_name(workload)
        check_dirty_rate(dirty_rate_pps)
        if dirty_rate_pps is None:
            dirty_rate_pps = default_dirty_rate(spec)
        return self._trial(
            PrecopyResult, spec, "pre-copy", options, run_remote=run_remote,
            precopy={
                "dirty_rate_pps": dirty_rate_pps,
                "stop_threshold": stop_threshold,
                "max_rounds": max_rounds,
            },
        )

    def migrate_chain(self, workload, path=("alpha", "beta", "gamma"),
                      strategy=None, run_fractions=None, options=None):
        """Migrate a process along several hosts (§6's dispersed spaces);
        returns a :class:`ChainResult`.

        The process starts at ``path[0]`` and hops host to host.  At
        each intermediate host it may execute part of its reference
        trace (``run_fractions``: one fraction per intermediate host;
        default 0 — all execution happens at the final host).  Under
        lazy strategies, re-excision produces *inherited IOUs*: after
        two IOU hops the space is physically dispersed, with faults at
        the final host routing back to whichever host still holds each
        page — or, with the content store on, to the *nearest* cached
        copy, collapsing the residual chain.
        """
        return self._trial(
            ChainResult, workload, strategy, options, path=tuple(path),
            run_fractions=chain_fractions(path, run_fractions),
        )

    def _trial(self, result_type, workload, strategy, options,
               path=("alpha", "beta"), run_fractions=None, run_remote=True,
               precopy=None):
        """Run one trial along ``path``: the hop loop every entry point
        shares; returns the ``result_type`` built from its :class:`Trial`.

        The process is built at ``path[0]`` and moved hop by hop with
        :meth:`MigrationManager.migrate` or, given ``precopy`` keyword
        arguments, :meth:`MigrationManager.migrate_precopy`.  After each
        insertion, that host's part of the reference trace runs under an
        ``exec`` span: the whole trace at the peer of a two-host trial,
        or the :func:`_segments` slice at each host of a chain.  A
        rolled-back transfer ends the trial "aborted", and a broken
        residual dependency ends it "killed".  Once the result has
        copied what it reports, the world is closed, so reference
        counting frees it.
        """
        options = TransferOptions.coerce(options)
        if strategy is not None:
            options = options.with_strategy(strategy)
        if precopy is None:
            strategy = Strategy.by_name(options.strategy)
            options = options.with_strategy(strategy.name)
        spec = workload_by_name(workload)
        world = self.world(host_names=path)
        built = build_process(world.host(path[0]), spec, world.streams)
        world.apply_options(options)
        chain = run_fractions is not None
        if chain:
            segments = _segments(built.trace, run_fractions)
        else:
            segments = [built.trace if run_remote else None]
        run_result = RemoteRunResult(spec.name)
        metrics = world.metrics
        obs = world.obs
        hop_times = []
        rounds = []
        outcome, failure = "completed", None

        def trial():
            nonlocal outcome, failure, rounds
            metrics.mark("trial.start")
            try:
                for hop, (source, dest) in enumerate(zip(path, path[1:])):
                    last = hop == len(path) - 2
                    dest_manager = world.manager(dest)
                    insertion = dest_manager.expect_insertion(spec.name)
                    before = world.engine.now
                    mover = world.manager(source)
                    if precopy is None:
                        yield from mover.migrate(
                            spec.name, dest_manager, strategy, options=options
                        )
                    else:
                        rounds = yield from mover.migrate_precopy(
                            spec.name, dest_manager, streams=world.streams,
                            **precopy,
                        )
                    inserted = yield insertion
                    hop_times.append(world.engine.now - before)
                    segment = segments[hop]
                    if chain and segment is None:
                        if last:
                            yield from world.host(dest).kernel.terminate(
                                spec.name
                            )
                        continue
                    # Imaginary-fault traffic of the remote execution
                    # lands on this span's byte/fault counters.
                    exec_span = obs.tracer.span(
                        "exec", process=spec.name,
                        **({"host": dest} if chain else {}),
                    )
                    with obs.phase(exec_span):
                        metrics.mark("exec.start")
                        try:
                            if segment is not None:
                                yield from remote_body(
                                    world.host(dest), inserted, segment,
                                    run_result, terminate=last,
                                )
                        finally:
                            metrics.mark("exec.end")
            except MigrationAborted as error:
                # The process was reinserted at the hop's source.
                outcome, failure = "aborted", str(error)
            except ResidualDependencyError as error:
                # An owed page's backing host died mid-execution.
                outcome, failure = "killed", str(error)
            metrics.mark("trial.end")

        process = world.engine.process(trial(), name=f"trial-{spec.name}")
        world.engine.run(until=process)
        world.finish()
        result = result_type(Trial(
            spec, options, path, world, run_result if run_remote else None,
            outcome, failure, hop_times, rounds,
        ))
        world.close()
        return result

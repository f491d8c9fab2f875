"""The two-machine Accent testbed and the single-trial orchestrator.

A :class:`Testbed` reproduces one migration experiment end-to-end: it
builds the workload's pre-migration state on the source host, runs the
MigrationManager protocol under the chosen transfer strategy, replays
the workload's reference trace at the destination (verifying every page
against the contents the source held), and returns a
:class:`MigrationResult` with every quantity the paper's evaluation
section reports.

Each trial runs in a fresh simulated world, so trials are independent
and fully deterministic given the seed.
"""

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
from repro.migration.strategy import PURE_IOU, Strategy
from repro.net.link import Link
from repro.net.netmsgserver import NetMsgServer
from repro.obs import Instrumentation
from repro.obs.telemetry import DEFAULT_SAMPLE_PERIOD, Telemetry
from repro.sim import Engine, SeededStreams
from repro.workloads.builder import build_process
from repro.workloads.registry import workload_by_name
from repro.workloads.runner import RemoteRunResult, remote_body


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
        self.hosts = {}
        self.managers = {}
        servers = []
        for name in host_names:
            host = Host(
                self.engine, name, calibration, self.registry, self.metrics
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

    def begin_trial(self):
        """Re-arm per-run counters before (re)using this world.

        Back-to-back trials against one world would otherwise leak
        high-water marks — most visibly :attr:`Link.peak_inflight` —
        from the previous run's telemetry into the next.
        """
        self.link.reset_peaks()

    def stop_telemetry(self):
        """Stop the sampler ahead of the final drain (no-op when off)."""
        telemetry = self.obs.telemetry
        if telemetry is not None:
            telemetry.stop()

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


class MigrationResult:
    """Everything one trial measured."""

    def __init__(self, spec, strategy_name, prefetch, world, run_result,
                 outcome="completed", failure=None, options=None):
        self.spec = spec
        self.strategy = strategy_name
        self.prefetch = prefetch
        #: The trial's full :class:`TransferOptions` (built from the
        #: legacy kwargs when the caller didn't pass one).
        self.options = TransferOptions.coerce(
            options, strategy=strategy_name, prefetch=prefetch
        )
        self.batch = self.options.batch
        self.pipeline = self.options.pipeline
        self.run_result = run_result
        #: "completed", "aborted" (rolled back to the source), or
        #: "killed" (a residual dependency broke post-migration).
        self.outcome = outcome
        #: Human-readable cause when the outcome is not "completed".
        self.failure = failure
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
        self.link_records = list(metrics.link_records)
        self.faults = dict(metrics.faults)
        self.bytes_total = metrics.total_link_bytes
        self.bytes_fault_support = metrics.fault_support_bytes
        self.bytes_by_category = dict(metrics.link_bytes_by_category())
        self.message_handling_s = metrics.total_message_handling_s
        self.messages_total = metrics.total_messages
        self.prefetched_pages = metrics.prefetched_pages
        self.prefetch_hits = metrics.prefetch_hits
        self.cow_stats = world.source.kernel.stats
        self.pages_bulk = world.source.nms.pages_shipped_by_op.get(
            "migrate.rimas", 0
        )
        self.pages_demand = world.source.nms.backing.delivered_page_count()
        # Fault/reliability accounting (all zero on a perfect network).
        registry = world.obs.registry
        self.retransmits = _family_total(registry, "transport_retransmits_total")
        self.link_drops = _family_total(registry, "link_drops_total")
        self.duplicates = _family_total(registry, "transport_duplicates_total")
        self.aborts = _family_total(registry, "migration_aborts_total")
        self.residual_kills = _family_total(registry, "residual_kills_total")
        self.flushed_pages = _family_total(registry, "flushed_pages_total")

    @property
    def marks(self):
        """Phase marks: name -> simulated time (trial clock)."""
        return dict(self._marks)

    # -- phase timings (Tables 4-4/4-5, Figure 4-1) ----------------------------
    def _span(self, start, end):
        try:
            return self._marks[end] - self._marks[start]
        except KeyError:
            return None

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
    def exec_s(self):
        """Remote execution time (Figure 4-1)."""
        return self._span("exec.start", "exec.end")

    @property
    def transfer_plus_exec_s(self):
        """Figure 4-2's end-to-end metric."""
        if self.transfer_s is None or self.exec_s is None:
            return None
        return self.transfer_s + self.exec_s

    @property
    def end_to_end_s(self):
        """Whole trial: migration request to last remote instruction."""
        return self._span("trial.start", "trial.end")

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

    @property
    def prefetch_hit_ratio(self):
        if self.prefetched_pages == 0:
            return None
        return self.prefetch_hits / self.prefetched_pages

    @property
    def verified(self):
        """Page-content verification outcome (None if trace not run)."""
        if self.run_result is None or self.run_result.steps_executed == 0:
            return None
        return self.run_result.verified

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


class Testbed:
    """Factory for independent, deterministic migration trials."""

    # Not a pytest test class, despite the name.
    __test__ = False

    def __init__(self, seed=1987, calibration=None, instrument=False,
                 faults=None, sample_period=0.0, slos=()):
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
        world = TestbedWorld(
            self.seed, self.calibration, host_names=host_names,
            instrument=self.instrument, fault_plan=self.faults,
            sample_period=self.sample_period, slos=self.slos,
        )
        world.begin_trial()
        return world

    def run_migration(self, workload, *, mode="direct", strategy=PURE_IOU,
                      prefetch=0, run_remote=True, options=None,
                      path=("alpha", "beta", "gamma"), run_fractions=None,
                      dirty_rate_pps=None, stop_threshold=32, max_rounds=5):
        """Run one migration trial of any ``mode`` — the single
        keyword-driven entry point all trial shapes share.

        ``mode`` selects the trial shape: ``"direct"`` (one two-host
        migration, a :class:`MigrationResult`), ``"precopy"`` (the §5
        iterative V-system baseline, a :class:`PrecopyResult`) or
        ``"chain"`` (multi-hop over ``path``, a :class:`ChainResult`).
        ``options`` is the unified :class:`TransferOptions` record —
        including the content-store knobs — and the remaining keywords
        are per-mode parameters; the classic
        ``migrate``/``migrate_precopy``/``migrate_chain`` methods are
        thin wrappers over this.
        """
        if mode == "direct":
            return self._run_direct(
                workload, strategy=strategy, prefetch=prefetch,
                run_remote=run_remote, options=options,
            )
        if mode == "precopy":
            return self._run_precopy(
                workload, dirty_rate_pps=dirty_rate_pps,
                stop_threshold=stop_threshold, max_rounds=max_rounds,
                run_remote=run_remote, options=options,
            )
        if mode == "chain":
            return self._run_chain(
                workload, path=path, strategy=strategy, prefetch=prefetch,
                run_fractions=run_fractions, options=options,
            )
        raise ValueError(
            f"mode must be 'direct', 'precopy' or 'chain', got {mode!r}"
        )

    def migrate(self, workload, strategy=PURE_IOU, prefetch=0, run_remote=True,
                options=None):
        """Run one full two-host trial; returns a
        :class:`MigrationResult`.  Thin wrapper over
        :meth:`run_migration` with ``mode="direct"``."""
        return self.run_migration(
            workload, mode="direct", strategy=strategy, prefetch=prefetch,
            run_remote=run_remote, options=options,
        )

    def _run_direct(self, workload, strategy=PURE_IOU, prefetch=0,
                    run_remote=True, options=None):
        options = TransferOptions.coerce(
            options, strategy=strategy, prefetch=prefetch
        )
        spec = workload_by_name(workload)
        strategy = Strategy.by_name(options.strategy)
        world = self.world()
        built = build_process(world.source, spec, world.streams)
        world.apply_options(options)
        run_result = RemoteRunResult(spec.name)
        metrics = world.metrics
        outcome = {"status": "completed", "failure": None}

        def trial():
            metrics.mark("trial.start")
            insertion = world.dest_manager.expect_insertion(spec.name)
            try:
                yield from world.source_manager.migrate(
                    spec.name, world.dest_manager, strategy, options=options
                )
            except MigrationAborted as error:
                # The transfer died; the process was reinserted at the
                # source, so the trial ends with nothing at the peer.
                outcome["status"] = "aborted"
                outcome["failure"] = str(error)
                metrics.mark("trial.end")
                return
            inserted = yield insertion
            # Post-insertion remote execution: imaginary-fault traffic
            # lands on this span's byte/fault counters.
            exec_span = world.obs.tracer.span("exec", process=spec.name)
            world.obs.push_phase(exec_span)
            metrics.mark("exec.start")
            if run_remote:
                try:
                    yield from remote_body(
                        world.dest, inserted, built.trace, run_result
                    )
                except ResidualDependencyError as error:
                    # An owed page's backing host died mid-execution.
                    outcome["status"] = "killed"
                    outcome["failure"] = str(error)
            metrics.mark("exec.end")
            exec_span.finish()
            world.obs.pop_phase(exec_span)
            metrics.mark("trial.end")

        trial_process = world.engine.process(trial(), name=f"trial-{spec.name}")
        world.engine.run(until=trial_process)
        # Drain in-flight asynchronous traffic (segment-death messages).
        world.stop_telemetry()
        world.engine.run()
        return MigrationResult(
            spec, strategy.name, options.prefetch, world,
            run_result if run_remote else None,
            outcome=outcome["status"], failure=outcome["failure"],
            options=options,
        )

    def migrate_precopy(
        self,
        workload,
        dirty_rate_pps=None,
        stop_threshold=32,
        max_rounds=5,
        run_remote=True,
        options=None,
    ):
        """Run one iterative pre-copy trial (the §5 V-system baseline).

        Returns a :class:`PrecopyResult`.  Thin wrapper over
        :meth:`run_migration` with ``mode="precopy"``.
        """
        return self.run_migration(
            workload, mode="precopy", dirty_rate_pps=dirty_rate_pps,
            stop_threshold=stop_threshold, max_rounds=max_rounds,
            run_remote=run_remote, options=options,
        )

    def _run_precopy(
        self,
        workload,
        dirty_rate_pps=None,
        stop_threshold=32,
        max_rounds=5,
        run_remote=True,
        options=None,
    ):
        # ``dirty_rate_pps`` defaults to the workload's own write
        # intensity (repro.migration.precopy.default_dirty_rate).
        # Pre-copy ships everything physically, so of the unified knobs
        # only those governing residual traffic apply.
        from repro.migration.precopy import default_dirty_rate

        options = TransferOptions.coerce(options, strategy="pre-copy")
        spec = workload_by_name(workload)
        if dirty_rate_pps is None:
            dirty_rate_pps = default_dirty_rate(spec)
        world = self.world()
        built = build_process(world.source, spec, world.streams)
        world.apply_options(options)
        run_result = RemoteRunResult(spec.name)
        metrics = world.metrics

        def trial():
            metrics.mark("trial.start")
            insertion = world.dest_manager.expect_insertion(spec.name)
            rounds = yield from world.source_manager.migrate_precopy(
                spec.name,
                world.dest_manager,
                dirty_rate_pps,
                world.streams,
                stop_threshold=stop_threshold,
                max_rounds=max_rounds,
            )
            inserted = yield insertion
            exec_span = world.obs.tracer.span("exec", process=spec.name)
            world.obs.push_phase(exec_span)
            metrics.mark("exec.start")
            if run_remote:
                yield from remote_body(
                    world.dest, inserted, built.trace, run_result
                )
            metrics.mark("exec.end")
            exec_span.finish()
            world.obs.pop_phase(exec_span)
            metrics.mark("trial.end")
            return rounds

        trial_process = world.engine.process(trial(), name=f"precopy-{spec.name}")
        rounds = world.engine.run(until=trial_process)
        world.stop_telemetry()
        world.engine.run()
        return PrecopyResult(
            spec, world, run_result if run_remote else None, rounds,
            options=options,
        )

    def migrate_chain(
        self,
        workload,
        path=("alpha", "beta", "gamma"),
        strategy=PURE_IOU,
        prefetch=0,
        run_fractions=None,
        options=None,
    ):
        """Migrate a process along several hosts (§6's dispersed spaces).

        Returns a :class:`ChainResult`.  Thin wrapper over
        :meth:`run_migration` with ``mode="chain"``.
        """
        return self.run_migration(
            workload, mode="chain", path=path, strategy=strategy,
            prefetch=prefetch, run_fractions=run_fractions, options=options,
        )

    def _run_chain(
        self,
        workload,
        path=("alpha", "beta", "gamma"),
        strategy=PURE_IOU,
        prefetch=0,
        run_fractions=None,
        options=None,
    ):
        # The process starts at ``path[0]`` and hops host to host.  At
        # each intermediate host it may execute part of its reference
        # trace (``run_fractions``: one fraction per intermediate host;
        # default 0 — all execution happens at the final host).  Under
        # lazy strategies, re-excision produces *inherited IOUs*: after
        # two IOU hops the space is physically dispersed, with faults
        # at the final host routing back to whichever host still holds
        # each page — or, with the content store on, to the *nearest*
        # cached copy, collapsing the residual chain.
        options = TransferOptions.coerce(
            options, strategy=strategy, prefetch=prefetch
        )
        spec = workload_by_name(workload)
        strategy = Strategy.by_name(options.strategy)
        if len(path) < 2:
            raise ValueError("a chain needs at least two hosts")
        intermediates = len(path) - 2
        if run_fractions is None:
            run_fractions = (0.0,) * intermediates
        if len(run_fractions) != intermediates:
            raise ValueError(
                f"need {intermediates} run fractions for {len(path)} hosts"
            )
        world = self.world(host_names=tuple(path))
        built = build_process(world.host(path[0]), spec, world.streams)
        world.apply_options(options)

        steps = list(built.trace.steps)
        boundaries = []
        cursor = 0
        for fraction in run_fractions:
            cursor = min(len(steps), cursor + int(fraction * len(steps)))
            boundaries.append(cursor)
        segments = []
        previous = 0
        for boundary in boundaries:
            segments.append(steps[previous:boundary])
            previous = boundary
        segments.append(steps[previous:])

        metrics = world.metrics
        run_result = RemoteRunResult(spec.name)
        hop_transfer_marks = []

        def chain():
            from repro.workloads.trace import ReferenceTrace

            metrics.mark("trial.start")
            compute_per_step = built.trace.compute_slice_s
            for hop, (src_name, dst_name) in enumerate(
                zip(path, path[1:])
            ):
                insertion = world.manager(dst_name).expect_insertion(spec.name)
                before = world.engine.now
                yield from world.manager(src_name).migrate(
                    spec.name, world.manager(dst_name), strategy,
                    options=options,
                )
                inserted = yield insertion
                hop_transfer_marks.append(world.engine.now - before)
                segment = segments[hop]
                if segment:
                    partial = ReferenceTrace(
                        segment, compute_per_step * len(segment)
                    )
                    last_hop = hop == len(path) - 2
                    exec_span = world.obs.tracer.span(
                        "exec", process=spec.name, host=dst_name
                    )
                    world.obs.push_phase(exec_span)
                    yield from remote_body(
                        world.host(dst_name),
                        inserted,
                        partial,
                        run_result,
                        terminate=last_hop,
                    )
                    exec_span.finish()
                    world.obs.pop_phase(exec_span)
                elif hop == len(path) - 2:
                    yield from world.host(dst_name).kernel.terminate(spec.name)
            metrics.mark("trial.end")

        chain_process = world.engine.process(chain(), name=f"chain-{spec.name}")
        world.engine.run(until=chain_process)
        world.stop_telemetry()
        world.engine.run()
        return ChainResult(
            spec, strategy.name, options.prefetch, tuple(path), world,
            run_result, hop_transfer_marks, options=options,
        )


class PrecopyResult:
    """Measurements from one iterative pre-copy migration (§5 baseline).

    Exposes the same data-movement surface as
    :class:`MigrationResult` (``pages_transferred``,
    ``prefetch_hit_ratio``, ``fault_records``) so ``repro analyze`` and
    the EXPERIMENTS tables need no per-result special-casing.
    """

    def __init__(self, spec, world, run_result, rounds, options=None):
        self.spec = spec
        self.strategy = "pre-copy"
        self.options = TransferOptions.coerce(options, strategy="pre-copy")
        self.prefetch = self.options.prefetch
        self.batch = self.options.batch
        self.pipeline = self.options.pipeline
        self.obs = world.obs
        self.run_result = run_result
        #: Iterative rounds before the stop: (pages, seconds) each.
        self.rounds = list(rounds)
        #: Fault-lifecycle records, [] unless the world ran instrumented
        #: (pre-copy leaves no IOUs, so normally stays empty).
        self.fault_records = (
            world.obs.lifecycle.snapshot()
            if world.obs.lifecycle is not None
            else []
        )
        metrics = world.metrics
        self._marks = dict(metrics.marks)
        self.bytes_total = metrics.total_link_bytes
        self.message_handling_s = metrics.total_message_handling_s
        self.faults = dict(metrics.faults)
        self.prefetched_pages = metrics.prefetched_pages
        self.prefetch_hits = metrics.prefetch_hits
        #: Distinct pages of process memory moved to the new site (the
        #: destination merges the freshest copy of every page).
        self.pages_transferred = world.dest_manager.precopy_pages_merged.get(
            spec.name, 0
        )

    @property
    def downtime_s(self):
        """Process stopped -> running at the destination (V's metric)."""
        return self._marks["insert.end"] - self._marks["downtime.start"]

    @property
    def precopy_s(self):
        """Time spent copying while the process still ran."""
        return self._marks["downtime.start"] - self._marks["precopy.start"]

    @property
    def exec_s(self):
        return self._marks["exec.end"] - self._marks["exec.start"]

    @property
    def end_to_end_s(self):
        return self._marks["trial.end"] - self._marks["trial.start"]

    @property
    def pages_shipped(self):
        """Total page shipments, counting re-dirtied pages per round."""
        return sum(r.pages for r in self.rounds)

    @property
    def prefetch_hit_ratio(self):
        """Prefetch hit ratio (None: pre-copy leaves nothing to fetch)."""
        if self.prefetched_pages == 0:
            return None
        return self.prefetch_hits / self.prefetched_pages

    @property
    def verified(self):
        if self.run_result is None or self.run_result.steps_executed == 0:
            return None
        return self.run_result.verified

    def __repr__(self):
        return (
            f"<PrecopyResult {self.spec.name} rounds={len(self.rounds)} "
            f"downtime={self.downtime_s:.2f}s verified={self.verified}>"
        )


class ChainResult:
    """Measurements from one multi-hop migration."""

    def __init__(self, spec, strategy, prefetch, path, world, run_result,
                 hop_times, options=None):
        self.spec = spec
        self.strategy = strategy
        self.prefetch = prefetch
        self.options = TransferOptions.coerce(
            options, strategy=strategy, prefetch=prefetch
        )
        self.batch = self.options.batch
        self.pipeline = self.options.pipeline
        self.path = path
        self.obs = world.obs
        self.run_result = run_result
        #: Elapsed seconds per hop (excise + core + transfer + insert).
        self.hop_times_s = list(hop_times)
        metrics = world.metrics
        self.bytes_total = metrics.total_link_bytes
        self.bytes_by_category = dict(metrics.link_bytes_by_category())
        self.faults = dict(metrics.faults)
        self.end_to_end_s = metrics.span("trial.start", "trial.end")
        #: Demand pages served per backing host — how the address space
        #: was physically dispersed along the chain.
        self.pages_served = {
            name: host.nms.backing.delivered_page_count()
            for name, host in world.hosts.items()
        }
        #: Pages a backer still held (never demanded) when its segment
        #: received Imaginary Segment Death.
        self.pages_unclaimed = {
            name: sum(
                total - delivered
                for _, _, delivered, total in host.nms.backing.retired
            )
            for name, host in world.hosts.items()
        }

    @property
    def verified(self):
        if self.run_result.steps_executed == 0:
            return None
        return self.run_result.verified

    def __repr__(self):
        return (
            f"<ChainResult {self.spec.name} {'→'.join(self.path)} "
            f"{self.strategy} hops={len(self.hop_times_s)} "
            f"verified={self.verified}>"
        )

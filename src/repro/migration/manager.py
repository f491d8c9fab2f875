"""The MigrationManager server (paper §3.2).

One per participating host.  The source manager excises the target
process with the ExciseProcess trap, applies the chosen transfer
strategy to the RIMAS message, and sends both context messages to the
peer manager, which reconstructs the process with InsertProcess.
"""

from repro.accent.ipc.message import Message, RegionSection
from repro.accent.pager import OP_FLUSH_REGISTER
from repro.accent.vm.address_space import VALIDATED
from repro.faults.errors import TransportError
from repro.migration.plan import PlanContext, TransferOptions
from repro.migration.precopy import OP_PRECOPY_ROUND, precopy_migrate
from repro.migration.strategy import Strategy
from repro.obs import NULL_SPAN, causal


class MigrationError(Exception):
    """Migration protocol failure."""


class MigrationAborted(MigrationError):
    """The transfer failed mid-flight; the process was rolled back and
    reinserted on the source host."""


class MigrationManager:
    """Accepts and executes commands to perform migrations."""

    def __init__(self, host):
        self.host = host
        self.engine = host.engine
        self.port = host.create_port(name=f"{host.name}-migmgr")
        self._pending_contexts = {}
        self._insertion_events = {}
        #: Fallback :class:`TransferOptions` applied when :meth:`migrate`
        #: is called without explicit options (set by the Testbed).
        self.default_options = None
        #: process name -> {page index: freshest pre-copied Page}.
        self._precopy_stash = {}
        #: process name -> distinct pages absorbed from pre-copy rounds
        #: (for PrecopyResult.pages_transferred symmetry).
        self.precopy_pages_merged = {}
        #: (op, process_name, reason) of messages the server refused.
        self.rejected = []
        self._server = self.engine.process(
            self._serve(), name=f"{host.name}-migmgr"
        )

    def __repr__(self):
        return f"<MigrationManager {self.host.name}>"

    # -- source side -------------------------------------------------------------
    def migrate(self, process_name, dest_manager, strategy, options=None):
        """Generator: excise ``process_name`` and ship it to the peer.

        Completes once both context messages have been delivered to the
        destination manager's port (insertion happens asynchronously
        there; wait on :meth:`expect_insertion` for it).  Phase marks
        are stamped into the host metrics collector.

        ``options`` is a :class:`TransferOptions` (or dict); when
        omitted, :attr:`default_options` applies.  The ``strategy``
        argument always wins over the options' strategy field so direct
        callers keep their explicit choice.  With ``pipeline > 1`` the
        Core and RIMAS context messages ship concurrently, sharing the
        link instead of serialising whole messages.
        """
        options = TransferOptions.coerce(
            options if options is not None else self.default_options
        ).with_strategy(strategy)
        strategy = Strategy.by_name(strategy)
        metrics = self.host.metrics
        kernel = self.host.kernel
        obs = metrics.obs

        root = obs.tracer.span(
            "migrate",
            trace_id=obs.tracer.new_trace_id() if obs.enabled else None,
            process=process_name,
            strategy=strategy.name,
            source=self.host.name,
            dest=dest_manager.host.name,
        )
        core, rimas = yield from self._excise(process_name, dest_manager, root)
        plan = strategy.plan(PlanContext(self, rimas, options))

        transfer_span = root.child("transfer")
        try:
            with obs.phase(transfer_span):
                if options.pipeline > 1:
                    yield from self._transfer_pipelined(
                        core, rimas, plan, transfer_span
                    )
                    return
                # Connection setup plus Core-message handling dominate
                # this phase; the paper measures it at roughly one
                # second (§4.3.2).
                with transfer_span.child("core") as core_span:
                    causal.attach(core, core_span)
                    metrics.mark("core.start")
                    yield self.engine.timeout(
                        self.host.calibration.migration_setup_s
                    )
                    yield from kernel.send(core)
                    metrics.mark("core.end")

                with transfer_span.child("rimas") as rimas_span:
                    causal.attach(rimas, rimas_span)
                    metrics.mark("rimas.start")
                    yield from plan.execute(self, rimas)
                    yield from kernel.send(rimas)
                    metrics.mark("rimas.end")
        except TransportError as error:
            yield from self._rollback(
                process_name, dest_manager, error, root, core, rimas
            )

    def _excise(self, process_name, dest_manager, root):
        """Generator: excise the process under an ``excise`` span;
        returns its Core and RIMAS messages, addressed to the peer."""
        metrics = self.host.metrics
        with metrics.obs.phase(root.child("excise")):
            metrics.mark("excise.start")
            core, rimas = yield from self.host.kernel.excise_process(
                process_name
            )
            metrics.mark("excise.end")
        # The process no longer exists anywhere until InsertProcess
        # completes at the peer; the freeze span (separate track, since
        # it overlaps transfer + insert) measures that outage.
        root.child("freeze", track="freeze")
        core.dest = dest_manager.port
        rimas.dest = dest_manager.port
        return core, rimas

    def _transfer_pipelined(self, core, rimas, plan, transfer_span):
        """Generator: ship Core and RIMAS concurrently (pipeline > 1).

        Connection setup and the plan's carve cost are still paid
        serially up front; the two context messages then travel as
        independent processes whose fragments interleave on the link
        (the destination serve loop accepts either arrival order).  If
        either leg hits a transport fault, the other is allowed to
        settle before the first leg's error is raised.
        """
        metrics = self.host.metrics
        yield self.engine.timeout(self.host.calibration.migration_setup_s)
        yield from plan.execute(self, rimas)

        core_span = transfer_span.child("core")
        causal.attach(core, core_span)
        rimas_span = transfer_span.child("rimas")
        causal.attach(rimas, rimas_span)
        metrics.mark("core.start")
        metrics.mark("rimas.start")
        legs = [
            self.engine.process(
                self._ship_leg(core, core_span, "core"),
                name=f"{self.host.name}-ship-core",
            ),
            self.engine.process(
                self._ship_leg(rimas, rimas_span, "rimas"),
                name=f"{self.host.name}-ship-rimas",
            ),
        ]
        yield self.engine.all_of(legs)
        for leg in legs:
            if leg.value is not None:
                raise leg.value

    def _ship_leg(self, message, span, mark):
        """Generator: send one context message on its own process.

        Returns the :class:`TransportError` instead of raising so the
        pipelined transfer can join both legs before deciding whether
        to roll back (a raise here would detonate inside the engine,
        not the migration driver).
        """
        try:
            yield from self.host.kernel.send(message)
        except TransportError as error:
            span.add("failed")
            span.finish()
            return error
        self.host.metrics.mark(f"{mark}.end")
        span.finish()
        return None

    def _rollback(self, process_name, dest_manager, error, root, core=None,
                  rimas=None):
        """Generator: undo a failed transfer, then raise
        :class:`MigrationAborted`.

        The excised context messages are still in hand, so the source
        simply runs InsertProcess on itself — the transactional property
        of the §3.2 protocol.  Any RIMAS sections already IOU-substituted
        point at this host's own backer, so later faults resolve without
        touching the network.  Without ``core`` the process was never
        excised (a failed pre-copy round) and keeps running here.
        ``root`` is the migration's root span.
        """
        metrics = self.host.metrics
        metrics.obs.registry.counter(
            "migration_aborts_total", labels=("host",)
        ).inc(1, host=self.host.name)
        dest_manager.abort_insertion(process_name, error)
        if core is not None:
            metrics.mark("rollback.start")
            yield from self.host.kernel.insert_process(core, rimas)
            metrics.mark("rollback.end")
        # A finished root was closed by the peer's insertion.
        if root.end is None:
            for child in root.children:
                if child.end is None:
                    child.finish()
            root.add("aborted")
            root.finish()
        raise MigrationAborted(
            f"migration of {process_name!r} to "
            f"{dest_manager.host.name} aborted: {error}"
        ) from error

    def abort_insertion(self, process_name, error):
        """Destination-side cleanup when the source aborts a transfer.

        Drops any half-received context, discards pre-copied pages, and
        fails the insertion event so an ``expect_insertion`` waiter sees
        the abort instead of hanging forever (events with no waiter are
        defused, not leaked).
        """
        self._pending_contexts.pop(process_name, None)
        self._precopy_stash.pop(process_name, None)
        event = self._insertion_events.pop(process_name, None)
        if event is not None and not event.triggered:
            event.fail(error)
            event.defuse()

    def expect_insertion(self, process_name):
        """Event that fires with the process once the peer inserts it.

        Call on the *destination* manager.
        """
        event = self._insertion_events.get(process_name)
        if event is None:
            event = self.engine.event()
            self._insertion_events[process_name] = event
        return event

    # -- destination side ---------------------------------------------------------
    def _serve(self):
        while True:
            message = yield self.port.receive()
            if message.op == OP_PRECOPY_ROUND:
                self._absorb_precopy_round(message)
                continue
            if message.op not in ("migrate.core", "migrate.rimas"):
                # A malformed command must not take the server down with
                # it: log the rejection and keep serving (the sender's
                # problem, not every later migration's).
                self._reject(message, f"unexpected op {message.op!r}")
                continue
            name = message.meta["process_name"]
            stash = self._pending_contexts.setdefault(name, {})
            kind = "core" if message.op == "migrate.core" else "rimas"
            if kind in stash:
                self._reject(message, f"duplicate {kind} context for {name!r}")
                continue
            stash[kind] = message
            if "core" in stash and "rimas" in stash:
                del self._pending_contexts[name]
                yield from self._insert(name, stash["core"], stash["rimas"])

    def _reject(self, message, reason):
        """Record a refused protocol message without dying."""
        self.rejected.append(
            (message.op, message.meta.get("process_name"), reason)
        )
        self.host.metrics.obs.registry.counter(
            "migmgr_rejects_total", labels=("host",)
        ).inc(1, host=self.host.name)

    def _insert(self, name, core, rimas):
        metrics = self.host.metrics
        obs = metrics.obs
        # The Core message's causal context names the migration that
        # shipped it (none when tracing is off).
        root = causal.root_of(causal.parent_of(core, NULL_SPAN))
        if rimas.meta.get("precopy"):
            self._merge_precopy_stash(name, rimas)
        with obs.phase(root.child("insert", host=self.host.name)):
            metrics.mark("insert.start")
            process = yield from self.host.kernel.insert_process(core, rimas)
            metrics.mark("insert.end")
        for child in root.children:
            if child.name == "freeze" and child.end is None:
                child.finish()
        root.finish()
        event = self._insertion_events.pop(name, None)
        if event is not None:
            event.succeed(process)
        if self.host.flusher is not None:
            self._register_flush(name, process, root)

    def _register_flush(self, name, process, root):
        """Ask each inherited segment's backer to push its owed pages.

        Registrations carry the migration root's causal context so the
        flusher's batch spans land in the same trace DAG.
        """
        handles = {}
        for _start, _end, value in process.space.regions.runs():
            if value is not VALIDATED:
                handles[value.segment_id] = value
        for segment_id, handle in sorted(handles.items()):
            register = Message(
                dest=handle.backing_port,
                op=OP_FLUSH_REGISTER,
                reply_port=self.host.flusher.port,
                meta={"process_name": name, "segment_id": segment_id},
            )
            causal.attach(register, root)
            self.host.kernel.post(register)

    # -- pre-copy support (Theimer's V baseline, §5) -----------------------------
    #: Generator: source side of an iterative pre-copy migration.
    migrate_precopy = precopy_migrate

    def _absorb_precopy_round(self, message):
        name = message.meta["process_name"]
        stash = self._precopy_stash.setdefault(name, {})
        region = message.first_section(RegionSection)
        # Later rounds overwrite earlier copies: freshest page wins.
        stash.update(region.pages)

    def _merge_precopy_stash(self, name, rimas):
        """Complete the final RIMAS with the pre-copied pages."""
        stash = self._precopy_stash.pop(name, {})
        self.precopy_pages_merged[name] = len(stash)
        region = rimas.first_section(RegionSection)
        if region is None:
            rimas.sections.append(
                RegionSection(stash, force_copy=True, label="precopy-merged")
            )
            return
        merged = dict(stash)
        merged.update(region.pages)  # final dirty pages are freshest
        region.pages = merged
        self.precopy_pages_merged[name] = len(merged)

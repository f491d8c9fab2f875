"""The Pager/Scheduler: Accent's fault-resolution server.

Handles the three legal fault kinds of paper §2.3:

* **FillZero** — reserve a frame, zero it, map it.  Never touches disk.
* **Disk** — read the page image from the local paging disk.
* **Imaginary** — send an ``imag.read`` request to the region's backing
  port and wait for the reply, which may carry prefetched pages beyond
  the one demanded (§4: prefetch of 1–15 nearby pages).

The pager CPU is a capacity-1 resource: administrative fault work is
serialised, but the pager never sits on the CPU while waiting for the
network — other faults proceed meanwhile, as in Accent.
"""

from repro.accent.ipc.message import InlineSection, Message, RegionSection
from repro.accent.vm.address_space import Residency
from repro.accent.vm.page import CONTENT_ID_BYTES, Page
from repro.faults.errors import ResidualDependencyError, TransportError
from repro.obs import causal
from repro.obs.span import NULL_SPAN
from repro.sim import Resource

#: Message operation names for the copy-on-reference protocol.
OP_IMAG_READ = "imag.read"
OP_IMAG_READ_REPLY = "imag.read.reply"
OP_IMAG_DEATH = "imag.death"
#: ... the batched/pipelined variant (multi-page request, streamed
#: reply parts — see docs/transfer-plans.md) ...
OP_IMAG_READ_BATCH = "imag.read.batch"
OP_IMAG_READ_REPLY_PART = "imag.read.reply.part"
#: ... and for the residual-dependency flusher (repro.cor.flusher).
OP_IMAG_PUSH = "imag.push"
OP_FLUSH_REGISTER = "flush.register"
#: ... and for the content-addressed store's multi-source fault
#: service (repro.store.server; replies reuse the imag reply ops).
OP_STORE_READ = "store.read"
OP_STORE_READ_BATCH = "store.read.batch"

#: Histogram buckets for peer-source topology distance.
SOURCE_DISTANCE_BUCKETS = (1, 2, 4, 8, 16, 32)

#: Wire bytes of an Imaginary Read Request's payload.
IMAG_REQUEST_PAYLOAD_BYTES = 16
#: Extra payload bytes per additional page named in a batched request.
IMAG_BATCH_PAGE_BYTES = 4


class PagerError(Exception):
    """Fault that cannot be resolved (bad reply, missing backing)."""


class _BatchCollector:
    """Concurrent imaginary faults coalescing into one batched request.

    Keyed by (space, segment): every fault raised against the same
    imaginary segment while the leader pays the pager's administrative
    overhead joins the open collector instead of mailing its own
    request.  ``page_events`` fire per demanded page, with the reply
    round trip as their value, as :meth:`Pager._fetch` installs it.
    """

    __slots__ = ("faults", "page_events", "closed")

    def __init__(self):
        self.faults = []  # (fault_id, page_index, fault_span)
        self.page_events = {}  # page_index -> completion Event
        self.closed = False

    def add(self, engine, fault_id, index, span):
        """Register one fault; returns the event its faulter waits on."""
        self.faults.append((fault_id, index, span))
        event = engine.event()
        self.page_events[index] = event
        return event


class _ReplyStream:
    """The replies to one in-flight read request, as they land.

    A single-page reply is a one-part stream; a batched one streams up
    to the pipeline depth of parts.  ``event`` wakes the fetch when a
    part lands.  It is None between a wake and the fetch's next wait; a
    part landing in that gap creates and fires a fresh one, so every
    part that finds no pending wake-up schedules exactly one.
    """

    __slots__ = ("parts", "event")

    def __init__(self, engine):
        self.parts = []
        self.event = engine.event()


class Pager:
    """Per-host Pager/Scheduler."""

    def __init__(self, host):
        self.host = host
        self.engine = host.engine
        self.calibration = host.calibration
        self.cpu = Resource(self.engine, capacity=1, name=f"{host.name}-pager")
        #: Reply port for imaginary read replies.
        self.reply_port = host.registry.create(host, name=f"{host.name}-pager-reply")
        #: (space_id, page_index) -> in-flight fault Event, for dedupe.
        self._inflight = {}
        #: Pages targeted per batched Imaginary Read Request; 1 keeps
        #: the per-page path (bit-identical to the original protocol).
        self.batch = 1
        #: Reply parts a backer may stream per batched request.
        self.pipeline = 1
        #: (space_id, segment_id) -> open :class:`_BatchCollector`.
        self._collectors = {}
        #: request key -> :class:`_ReplyStream` of an in-flight request:
        #: the fault id a single-page request carries, or a batched
        #: request's batch id.  The batch/pipeline options are set
        #: world-wide before any fault, so one pager never mixes the two
        #: id sequences.
        self._streams = {}
        self._dispatcher = self.engine.process(
            self._reply_loop(), name=f"{host.name}-pager-dispatch"
        )

    def __repr__(self):
        return f"<Pager {self.host.name} inflight={len(self._inflight)}>"

    # -- fault entry points (generators; kernel yields from them) -------------
    def fill_zero_fault(self, space, index):
        """FillZero: materialise a zero page (paper §2.3, RealZeroMem)."""
        self.host.metrics.record_fault("fill-zero")
        with self.cpu.held() as req:
            yield req
            yield self.engine.timeout(self.calibration.fill_zero_s)
        yield from self._install_resident(space, index, Page.zero())

    def disk_fault(self, space, index):
        """Bring a real page in from the local paging disk."""
        self.host.metrics.record_fault("disk")
        with self.cpu.held() as req:
            yield req
            yield self.engine.timeout(self.calibration.pager_overhead_s)
        page = yield from self.host.disk.read(space.space_id, index)
        space.set_page(index, page)
        yield from self._make_resident(space, index)
        with self.cpu.held() as req:
            yield req
            yield self.engine.timeout(self.calibration.map_in_s)

    def imaginary_fault(self, space, index, handle):
        """Fetch an owed page from its backing port (paper §2.2);
        ``handle`` is the owing segment's ImaginaryHandle."""
        key = (space.space_id, index)
        shared = self._inflight.get(key)
        if shared is not None:
            # Another faulter already asked for this page; share the wait.
            yield shared
            return
        done = self.engine.event()
        self._inflight[key] = done
        engine = self.engine
        fault_started = engine.now
        self.host.metrics.record_fault("imaginary")
        fault_id = engine.serial("fault")
        obs = self.host.metrics.obs
        # The fault nests under whatever phase the process is in (an
        # exec root after insertion, a transfer phase if mid-migration)
        # but *carries the trace id of the migration that owed the
        # page* — the cross-trace stitch point that lets one trace DAG
        # span raiser, backer, and the shipping in between.
        fault_span = obs.tracer.span(
            "fault",
            parent=obs.current_phase,
            track=f"pager/{self.host.name}",
            trace_id=handle.trace_id,
            fault_id=fault_id,
            page=index,
            segment=handle.segment_id,
        )
        lifecycle = obs.lifecycle
        if lifecycle is not None:
            lifecycle.raised(
                fault_id,
                trace_id=fault_span.trace_id,
                page=index,
                segment_id=handle.segment_id,
                host=self.host.name,
                now=fault_started,
            )
        try:
            if self.batch == 1 and self.pipeline == 1:
                # Serial: the faulter pays the overhead and fetches
                # inline.  This is the batch of one without the
                # coalescing window, the spawned process and the page
                # event: each would add a scheduled event per fault, and
                # the single-page request and reply shapes are what
                # store-off timings, byte categories and hashes pin.
                with self.cpu.held() as req:
                    yield req
                    yield engine.timeout(self.calibration.pager_overhead_s)
                rtt = yield from self._fetch(
                    space, handle, ((fault_id, index, fault_span),),
                    {index: None},
                )
            else:
                rtt = yield from self._coalesce(
                    space, index, handle, fault_id, fault_span
                )
            self.host.metrics.record_imag_latency(
                engine.now - fault_started, rtt
            )
            if lifecycle is not None:
                lifecycle.resumed(fault_id, now=engine.now)
            done.succeed()
        except BaseException as error:
            # Defused: waiters sharing the fault still see the error
            # raised at their yield point, but a lone faulter's failure
            # must not detonate a second time when the engine drains.
            done.fail(error)
            done.defuse()
            raise
        finally:
            fault_span.finish()
            self._inflight.pop(key, None)
            # A failure's traceback keeps this frame, and ``done`` keeps
            # the failure: drop the frame's hold so the two are no cycle.
            done = None  # noqa: F841

    def _coalesce(self, space, index, handle, fault_id, fault_span):
        """Generator: bring one fault to a batched fetch; returns the rtt.

        The first fault against a (space, segment) pair becomes the
        *leader*: it pays the pager's administrative overhead once,
        holds a deferred coalescing window open so concurrent faults
        can join, then spawns one :meth:`_fetch` for the whole batch.
        Every member (leader included) just waits for its own page.
        """
        key = (space.space_id, handle.segment_id)
        collector = self._collectors.get(key)
        if collector is not None and not collector.closed:
            joined = collector.add(self.engine, fault_id, index, fault_span)
            return (yield joined)
        collector = _BatchCollector()
        self._collectors[key] = collector
        page_done = collector.add(self.engine, fault_id, index, fault_span)
        with self.cpu.held() as req:
            yield req
            yield self.engine.timeout(self.calibration.pager_overhead_s)
        # Coalescing window: every fault raised up to this instant
        # joins before the deferred wakeup closes it.
        yield self.engine.defer()
        collector.closed = True
        if self._collectors.get(key) is collector:
            del self._collectors[key]
        self.engine.process(
            self._fetch_batch(space, handle, collector),
            name=f"{self.host.name}-imag-batch",
        )
        return (yield page_done)

    def _fetch_batch(self, space, handle, collector):
        """Process body: one :meth:`_fetch` for a closed collector.

        A terminal error fails each member's page event with the typed
        error, so every faulter raises it at its yield point (defused —
        a member killed along with its process leaves no waiter).
        """
        try:
            yield from self._fetch(
                space, handle, collector.faults, dict(collector.page_events)
            )
        except (PagerError, ResidualDependencyError) as error:
            for event in collector.page_events.values():
                if not event.triggered:
                    event.fail(error)
                    event.defuse()

    def _fetch(self, space, handle, faults, pending):
        """Generator: resolve ``faults`` through the PageSource walk.

        ``faults`` lists (fault_id, page_index, fault_span) in raise
        order; ``pending`` maps each demanded page still owed to the
        event its faulter waits on (None for a serial faulter, which
        runs this inline).  Local-store hits install without wire
        traffic; every other page is requested from each source in turn
        — nearest peer first, the origin last — falling through on a
        miss, a missed reply deadline or a transport error.  The origin
        failing is terminal: a residual-dependency kill.  Returns the
        reply round trip (0.0 when the local store served everything).
        """
        engine = self.engine
        calibration = self.calibration
        lifecycle = self.host.metrics.obs.lifecycle
        span = faults[0][2]
        batched = self.batch > 1 or self.pipeline > 1
        request_id = engine.serial("batch") if batched else None
        # Replies route by batch id, or by the one fault id a
        # single-page request carries.
        stream_key = request_id if batched else faults[0][0]
        fault_ids = None
        if lifecycle is not None:
            fault_ids = {index: fault_id for fault_id, index, _ in faults}
        # Store-off this degenerates to the single origin source, and
        # each request is byte-identical to the pre-store protocol.
        resolution = self.host.resolver.resolve(handle, sorted(pending))
        if resolution.local:
            with self.cpu.held() as req:
                yield req
                yield engine.timeout(calibration.store_lookup_s)
            woken = yield from self._land(
                space, resolution.local, pending, 0.0
            )
            for index in woken:
                if lifecycle is not None:
                    lifecycle.request_done(fault_ids[index], now=engine.now)
                    lifecycle.reply_done(fault_ids[index], now=engine.now)
                self._note_store_service("local", None, span)
            if not pending:
                return 0.0

        rtt = None
        requested = False
        sources = resolution.sources
        for source in sources:
            last = source is sources[-1]
            request = self._request(
                source, handle, faults, pending, resolution, request_id
            )
            causal.attach(request, span)
            stream = self._streams[stream_key] = _ReplyStream(engine)
            request_sent = engine.now
            try:
                yield from self.host.kernel.send(request)
            except TransportError as error:
                del self._streams[stream_key]
                if not last:
                    continue  # fall through to the next source
                raise self._lost(space, faults, error) from error
            if not requested and lifecycle is not None:
                for fault_id, index, _ in faults:
                    if index in pending:
                        lifecycle.request_done(fault_id, now=engine.now)
            requested = True

            received = 0
            parts = 1
            failure = None
            while received < parts:
                while not stream.parts:
                    if stream.event is None:
                        stream.event = engine.event()
                    if self.host.fault_injector is not None:
                        # The request arrived, but the serving host may
                        # die before the reply escapes it; the deadline
                        # turns that into a fallback (at the origin, a
                        # kill), never a hang.
                        deadline = engine.timeout(
                            calibration.imag_reply_deadline_s
                        )
                        yield engine.any_of([stream.event, deadline])
                        if not stream.event.processed:
                            failure = TransportError(
                                f"no imaginary read reply within "
                                f"{calibration.imag_reply_deadline_s}s"
                            )
                            break
                    else:
                        yield stream.event
                    stream.event = None
                if failure is not None:
                    break
                reply = stream.parts.pop(0)
                received += 1
                parts = reply.meta.get("parts", 1)
                if reply.meta.get("miss"):
                    # The peer no longer holds some requested contents
                    # (volatile cache); retry the remainder at the next
                    # source.  The origin backer never misses.
                    failure = PagerError(
                        f"{source.kind} reply for pages {sorted(pending)} "
                        "reported a miss"
                    )
                    break
                if rtt is None:
                    rtt = engine.now - request_sent
                # A serial fault's reply lands now; a batch member's
                # lands when its page event fires, below.
                if lifecycle is not None and not batched:
                    lifecycle.reply_done(faults[0][0], now=engine.now)
                region = reply.first_section(RegionSection)
                woken = yield from self._land(
                    space, region.pages, pending, rtt
                )
                for index in woken:
                    if lifecycle is not None and batched:
                        lifecycle.reply_done(fault_ids[index], now=engine.now)
                    if resolution.store_enabled:
                        self._note_store_service(source.kind, source, span)
            del self._streams[stream_key]
            if failure is None:
                break
            if last:
                # A miss at the origin is a protocol error; an origin
                # that never answered leaves a residual dependency.
                if isinstance(failure, TransportError):
                    raise self._lost(space, faults, failure)
                raise failure
        if pending:
            raise PagerError(
                f"imaginary read reply omitted demanded pages "
                f"{sorted(pending)}"
            )
        return rtt

    def _request(self, source, handle, faults, pending, resolution,
                 request_id):
        """The read request for the ``pending`` pages at ``source``.

        Without a ``request_id`` it keeps the paper's single-page shape
        (``imag.read``, or ``store.read`` at a peer); a batched request
        names every pending fault and carries the window and pipeline
        depth.
        """
        if request_id is None:
            fault_id, index, _span = faults[0]
            if source.kind == "origin":
                op, payload = OP_IMAG_READ, IMAG_REQUEST_PAYLOAD_BYTES
                meta = {"fault_id": fault_id, "page_index": index,
                        "segment_id": handle.segment_id}
            else:
                op = OP_STORE_READ
                payload = IMAG_REQUEST_PAYLOAD_BYTES + CONTENT_ID_BYTES
                meta = {"fault_id": fault_id, "page_index": index,
                        "cid": resolution.content_ids[index]}
        else:
            asked = [(fid, index) for fid, index, _ in faults
                     if index in pending]
            if source.kind == "origin":
                op = OP_IMAG_READ_BATCH
                payload = (IMAG_REQUEST_PAYLOAD_BYTES
                           + IMAG_BATCH_PAGE_BYTES * (len(pending) - 1))
                # The window is sized from the *original* demand set:
                # store-off this keeps the request byte-identical, and
                # store-on a local split must not shrink the backer's
                # prefetch reach.
                meta = {"request_id": request_id, "faults": asked,
                        "segment_id": handle.segment_id,
                        "window": max(self.batch, len(faults)),
                        "pipeline": self.pipeline}
            else:
                op = OP_STORE_READ_BATCH
                payload = IMAG_REQUEST_PAYLOAD_BYTES + (
                    IMAG_BATCH_PAGE_BYTES + CONTENT_ID_BYTES
                ) * len(pending)
                meta = {"request_id": request_id, "faults": asked,
                        "cids": {index: resolution.content_ids[index]
                                 for index in sorted(pending)},
                        "pipeline": self.pipeline}
        return Message(
            dest=source.port,
            op=op,
            sections=[InlineSection(bytes(payload))],
            reply_port=self.reply_port,
            meta=meta,
        )

    def _land(self, space, pages, pending, rtt):
        """Generator: install ``pages``, map them in, wake their faulters.

        Pages already present lost a race with another reply and are
        skipped; arrivals nobody demanded are marked prefetched so later
        touches count hits.  Returns the demanded indices among
        ``pages``, each removed from ``pending``.
        """
        landed = sorted(pages)
        for index in landed:
            if not space.has_page(index):
                yield from self._install_resident(space, index, pages[index])
                if index not in pending:
                    space.mark_prefetched(index)
        with self.cpu.held() as req:
            yield req
            yield self.engine.timeout(self.calibration.map_in_s)
        woken = [index for index in landed if index in pending]
        for index in woken:
            waiter = pending.pop(index)
            if waiter is not None:
                waiter.succeed(rtt)
        return woken

    def _note_store_service(self, kind, source, fault_span):
        """Store-gated bookkeeping for one cache-involved fault.

        Only ever called when the content store is enabled, so store-off
        runs register none of these metric families or span args.
        """
        registry = self.host.metrics.obs.registry
        registry.counter(
            "store_fault_served_total", labels=("host", "source")
        ).inc(1, host=self.host.name, source=kind)
        if fault_span is not NULL_SPAN:
            fault_span.attrs["source"] = kind
        if source is not None and source.host_name:
            if fault_span is not NULL_SPAN:
                fault_span.attrs["source_host"] = source.host_name
            if source.distance is not None:
                registry.histogram(
                    "store_source_distance",
                    buckets=SOURCE_DISTANCE_BUCKETS,
                ).observe(source.distance)

    def _lost(self, space, faults, cause):
        """The origin is unreachable: fail ``faults`` and kill the process.

        This is the paper's central copy-on-reference caveat made
        concrete — with the source gone, the page can never be
        rematerialised, so the process is destroyed rather than left
        wedged.  Returns the typed error for the faulter to raise.
        """
        lifecycle = self.host.metrics.obs.lifecycle
        if lifecycle is not None:
            for fault_id, _index, _span in faults:
                lifecycle.failed(fault_id, str(cause), now=self.engine.now)
        process = None
        for candidate in self.host.kernel.processes.values():
            if candidate.space is space:
                process = candidate
                break
        name = process.name if process is not None else space.name
        if process is not None:
            self.host.kernel.kill(process)
        self.host.metrics.obs.registry.counter(
            "residual_kills_total", labels=("host",)
        ).inc(1, host=self.host.name)
        return ResidualDependencyError(
            f"process {name!r} lost page {faults[0][1]}: {cause}"
        )

    # -- reply dispatch ---------------------------------------------------------
    def _reply_loop(self):
        """Routes read replies to the stream of their request."""
        while True:
            message = yield self.reply_port.receive()
            key = message.meta.get("request_id")
            if key is None:
                key = message.meta.get("fault_id")
            stream = self._streams.get(key)
            if stream is None:
                if self.host.fault_injector is not None:
                    # A reply outlasting its request's deadline: stale,
                    # not a protocol error, in a faulty world.
                    self.host.metrics.obs.registry.counter(
                        "stale_replies_total", labels=("host",)
                    ).inc(1, host=self.host.name)
                    continue
                raise PagerError(f"unmatched imaginary reply {key!r}")
            stream.parts.append(message)
            if stream.event is None:
                stream.event = self.engine.event()
            if not stream.event.triggered:
                stream.event.succeed()

    # -- flusher support --------------------------------------------------------
    def install_pushed(self, space, index, page):
        """Generator: install one flusher-pushed page (no fault charged).

        The push raced any demand fault for the same page; callers
        check residency first, and installation is a map-in plus the
        usual frame claim.
        """
        with self.cpu.held() as req:
            yield req
            yield self.engine.timeout(self.calibration.map_in_s)
        yield from self._install_resident(space, index, page)

    # -- frame management ---------------------------------------------------------
    def _install_resident(self, space, index, page):
        """Install a brand-new page as resident, evicting if needed."""
        yield from self._claim_frame(space, index)
        space.install_page(index, page, Residency.RESIDENT)

    def _make_resident(self, space, index):
        """Flip an existing on-disk page to resident."""
        yield from self._claim_frame(space, index)
        space.set_residency(index, Residency.RESIDENT)

    def _claim_frame(self, space, index):
        victim = self.host.physical.allocate(space.space_id, index)
        if victim is not None:
            victim_space_id, victim_index = victim
            victim_space = self.host.space_by_id(victim_space_id)
            yield from self.host.disk.write(
                victim_space_id, victim_index,
                victim_space.disk_image(victim_index),
            )
            victim_space.set_residency(victim_index, Residency.ON_DISK)

"""The NetMsgServer: Accent's user-level network server (paper §2.4).

One runs on each host.  It extends ports and imaginary segments across
the network: messages to remote ports are fragmented, shipped over the
link and reassembled at the peer, *using the AMap as a guide* so that
imaginary subranges travel as descriptors rather than data.

The server also implements the paper's IOU-caching optimisation: when a
message carries a large real-memory section and the sender has not set
the ``NoIOUs`` bit, the NetMsgServer caches the pages locally, becomes
their backer (through its :class:`~repro.cor.backer.BackingServer`) and
passes an IOU in the data's place.  This is the mechanism the
MigrationManager leans on for pure-IOU context transfers (§3.2).
"""

from repro.accent.constants import PAGE_SIZE
from repro.accent.ipc.message import (
    IOUSection,
    Message,
    RegionSection,
)
from collections import Counter
from itertools import count

from repro.cor.backer import BackingServer
from repro.faults.errors import TransportError
from repro.obs import causal
from repro.obs.span import NULL_SPAN
from repro.sim import Event, Process, Resource, Timeout


class NetMsgServerError(Exception):
    """Shipment to an unconnected host, or a malformed message."""


class NetMsgServer:
    """Per-host network message server."""

    #: Real-memory sections larger than this are eligible for IOU
    #: substitution when the NoIOUs bit is clear.
    IOU_CACHE_THRESHOLD_BYTES = 4096

    def __init__(self, host, prefetch=0):
        self.host = host
        self.engine = host.engine
        self.calibration = host.calibration
        self.cpu = Resource(self.engine, capacity=1, name=f"{host.name}-nms")
        #: Backs every RIMAS region this server has cached.
        self.backing = BackingServer(host, prefetch=prefetch, name=f"{host.name}-nms-backer")
        #: host name -> the Link to it (its NetMsgServer is ``host.nms``).
        self._routes = {}
        #: Wire dedup: when True (set by ``TestbedWorld.enable_store``
        #: with the dedup knob) outgoing real-memory sections replace
        #: pages the destination already holds with content references.
        self.dedup = False
        self.messages_shipped = 0
        self.messages_delivered = 0
        #: Pages physically shipped, per message op (Table 4-3 input).
        self.pages_shipped_by_op = Counter()
        #: Reliable-transport state (lossy worlds only): fragment
        #: sequence numbers are globally unique per sender, and the
        #: receiver remembers what it has seen so a retransmission
        #: whose ack was lost is suppressed rather than re-handled.
        self._seq = count(1)
        self._seen_seqs = set()
        registry = host.metrics.obs.registry
        self._retransmits = registry.counter(
            "transport_retransmits_total", labels=("host",)
        )
        self._duplicates = registry.counter(
            "transport_duplicates_total", labels=("host",)
        )
        host.nms = self

    def __repr__(self):
        return (
            f"<NetMsgServer {self.host.name} routes={sorted(self._routes)}>"
        )

    @property
    def prefetch(self):
        """Pages prefetched per imaginary fault on cached segments."""
        return self.backing.prefetch

    @prefetch.setter
    def prefetch(self, value):
        self.backing.prefetch = value

    def connect(self, link, peer):
        """Register a route to ``peer`` (another host's NMS) over ``link``."""
        self._routes[peer.host.name] = link

    def route_to(self, host):
        """The (link, peer NMS) pair for ``host``."""
        try:
            return self._routes[host.name], host.nms
        except KeyError:
            raise NetMsgServerError(
                f"{self.host.name} has no route to {host.name}"
            ) from None

    # -- shipment ----------------------------------------------------------------
    def ship(self, message, dest_host):
        """Generator: deliver ``message`` to its port on ``dest_host``.

        Completes when the reassembled message is enqueued at the
        destination port.  Each fragment is a :class:`_Fragment`
        callback chain that pipelines through the three stage resources
        (source CPU, link medium, destination CPU) under the
        paper-calibrated cost model; with a FaultInjector attached it
        also runs the reliable transport (acks and retransmission).
        """
        link, peer = self.route_to(dest_host)
        obs = self.host.metrics.obs
        # Causal parenting: a message carrying a trace context descends
        # from the span that sent it (a fault, a flush batch, a transfer
        # sub-phase) even when that span lives on another host's track;
        # messages without one fall back to the active phase.
        ship_span = obs.tracer.span(
            f"ship {message.op}",
            parent=causal.parent_of(message, obs.current_phase),
            track=f"nms/{self.host.name}",
            dest=dest_host.name,
        )
        # Byte attribution is resolved once, here, from the message's
        # causal ancestry: the nearest enclosing phase span owns every
        # fragment of this shipment.  Resolving per fragment instead
        # would credit whichever phase happened to be open when the
        # fragment crossed — wrong as soon as two migrations share the
        # link.
        phase = obs.phase_for(ship_span)
        try:
            cached = self._substitute_ious(message, ship_span)
            if cached:
                obs.registry.counter(
                    "iou_substitutions_total", labels=("host",)
                ).inc(len(cached), host=self.host.name)
                ship_span.add("iou_sections", len(cached))
                with ship_span.child("iou-cache"):
                    yield from self._cache_cost(cached)

            if (
                self.dedup
                and self.host.store is not None
                and peer.host.store is not None
            ):
                self._dedup_sections(message, peer, ship_span)

            self.messages_shipped += 1
            for section in message.sections_of(RegionSection):
                self.pages_shipped_by_op[message.op] += len(section.pages)
            yield self._fragment(message, link, peer, phase, ship_span)
            if peer.host.crashed:
                raise TransportError(
                    f"{peer.host.name} crashed before {message.op} "
                    "could be reassembled"
                )

            delivered = peer._reassemble(message)
            peer.messages_delivered += 1
            yield message.dest.enqueue(delivered)
        finally:
            ship_span.finish()

    def _fragment(self, message, link, peer, phase, ship_span):
        """Start one :class:`_Fragment` chain per fragment of ``message``;
        returns the event that waits for all of them.

        The all_of owns every fragment's failure: the first one fails
        the shipment, and siblings failing later (or at the same
        instant) are already accounted.  The chains live in the all_of
        alone, not in :meth:`ship`'s frame: a failure's traceback keeps
        that frame, and the failed chain keeps the failure.
        """
        calibration = self.calibration
        payload = message.wire_bytes
        frag_data = calibration.fragment_data_bytes
        header = calibration.fragment_header_bytes
        sizes = [
            min(frag_data, payload - offset) + header
            for offset in range(0, payload, frag_data)
        ]
        ship_span.add("payload_bytes", payload)
        ship_span.add("fragments", len(sizes))
        name = f"frag-{message.op}"
        shipment = _Shipment(self, link, peer, message.op, phase, ship_span)
        pipes = []
        for size in sizes:
            pipe = _Fragment(
                shipment, size, calibration.nms_hop_s(size), name
            ).done
            pipe.defuse()
            pipes.append(pipe)
        return self.engine.all_of(pipes)

    # -- IOU caching ----------------------------------------------------------------
    def _substitute_ious(self, message, ship_span=NULL_SPAN):
        """Cache eligible real-memory sections; pass IOUs instead.

        Returns the list of freshly-created IOU sections.  Cached
        segments remember the shipping span's trace context, so
        residual faults against them later stitch back into the
        migration that left the IOU behind.
        """
        if message.no_ious:
            return []
        cached = []
        trace_ctx = message.trace_ctx
        if trace_ctx is None and ship_span is not NULL_SPAN:
            trace_ctx = causal.TraceContext(ship_span)
        for position, section in enumerate(message.sections):
            if not isinstance(section, RegionSection):
                continue
            if section.force_copy:
                continue
            if section.byte_size <= self.IOU_CACHE_THRESHOLD_BYTES:
                continue
            segment = self.backing.create_segment(
                section.pages, label=f"cached-{message.op}",
                trace_ctx=trace_ctx,
                window=getattr(section, "transfer_window", None),
            )
            iou = IOUSection(
                segment.handle,
                section.pages.keys(),
                label=section.label,
            )
            message.sections[position] = iou
            cached.append(iou)
        return cached

    # -- wire dedup -----------------------------------------------------------------
    def _dedup_sections(self, message, peer, ship_span):
        """Replace pages the peer already holds with content references.

        Every outgoing page's contents are registered in the source
        store (making this host a holder for later multi-source fault
        service); pages whose content id the destination holds — or
        that an earlier page of this same message already ships — ride
        the wire as a (index, content id) reference instead of bytes
        and are rematerialised from the destination's store at
        reassembly.
        """
        source_store = self.host.store
        directory = source_store.directory
        dest_name = peer.host.name
        shipping_now = set()
        deduped_pages = 0
        for section in message.sections_of(RegionSection):
            refs = {}
            for index, page in list(section.pages.items()):
                content_id = source_store.put_page(page)
                if (
                    dest_name in directory.holders(content_id)
                    or content_id in shipping_now
                ):
                    refs[index] = content_id
                    del section.pages[index]
                else:
                    shipping_now.add(content_id)
            if refs:
                section.content_refs.update(refs)
                deduped_pages += len(refs)
        if deduped_pages:
            saved_bytes = deduped_pages * (
                PAGE_SIZE
                + RegionSection.PAGE_DESCRIPTOR_BYTES
                - RegionSection.CONTENT_REF_BYTES
            )
            ship_span.add("dedup_pages", deduped_pages)
            ship_span.add("dedup_bytes_saved", saved_bytes)
            registry = self.host.metrics.obs.registry
            registry.counter(
                "store_dedup_pages_total", labels=("host",)
            ).inc(deduped_pages, host=self.host.name)
            registry.counter(
                "store_dedup_bytes_saved_total", labels=("host",)
            ).inc(saved_bytes, host=self.host.name)

    def _cache_cost(self, cached):
        """Charge the (small) cost of having cached sections just now."""
        calibration = self.calibration
        cost = sum(
            calibration.iou_cache_base_s
            + len(section.runs()) * calibration.iou_cache_per_run_s
            for section in cached
        )
        with self.cpu.held() as req:
            yield req
            yield self.engine.timeout(cost)

    # -- reassembly --------------------------------------------------------------
    def _reassemble(self, message):
        """Build the delivered message at the receiving side.

        Physically-shipped pages become independent copies (their bytes
        crossed the wire); IOU sections pass through as descriptors —
        the receiver will fault pages in from the backing site.
        """
        sections = []
        store = self.host.store
        for section in message.sections:
            if isinstance(section, RegionSection):
                pages = {
                    index: page.fork_copy()
                    for index, page in section.pages.items()
                }
                if store is not None:
                    # Arrived bytes enter the local content store (this
                    # host becomes a holder), and deduped references
                    # rematerialise from it — bit-identical to the
                    # bytes the sender held, or the id would differ.
                    for page in pages.values():
                        store.put_page(page)
                    for index, content_id in section.content_refs.items():
                        pages[index] = store.get_page(content_id)
                sections.append(
                    RegionSection(
                        pages,
                        force_copy=section.force_copy,
                        label=section.label,
                    )
                )
            else:
                sections.append(section)
        delivered = Message(
            dest=message.dest,
            op=message.op,
            sections=sections,
            reply_port=message.reply_port,
            no_ious=message.no_ious,
            meta=message.meta,
        )
        delivered.source_host = message.source_host
        # The causal context crosses the wire with the message, so the
        # receiver's handlers can parent their spans to the sender's.
        delivered.trace_ctx = message.trace_ctx
        return delivered


class _Fragment:
    """One fragment's passage: src NMS -> link -> dst NMS.

    A callback chain, not a generator process: each step is the callback
    of the event the previous one created, which costs less host time
    than resuming a generator.  It creates and dispatches exactly the
    events a generator process running the same steps would, so event
    counts, kinds and order, and every hash built on them, do not
    depend on which of the two runs (``tests/net/test_fragment_chain.py``
    keeps those generators as the oracle):

    * an init ``Event``, scheduled on creation;
    * the source-CPU ``Request`` and its hop ``Timeout``;
    * per frame, the medium ``Request`` (``Link.enter``), the
      serialisation ``Timeout`` and, if ``Link.settle`` delivers the
      frame, the latency ``Timeout``;
    * the destination-CPU ``Request`` and its hop ``Timeout``;
    * :attr:`done`, a ``Process`` named ``frag-<op>``.

    With a fault model on the link it is also the reliable transport:
    the init event draws a sequence number, each attempt checks that
    the source is up, a duplicate skips the receiver's CPU hold, and an
    ack frame returns through the same link stages.  A lost frame opens
    a ``retransmit`` child of the ship span and restarts at the source CPU
    after a backed-off ``Timeout``; out of attempts, or with the source
    down, :attr:`done` fails with ``TransportError``.  Each slot is
    released, and each ``record_*`` made, where the generator did;
    bytes are credited to the shipment's phase, resolved by the sender at
    ship time.
    """

    __slots__ = ("shipment", "wire_bytes", "hop", "req", "done", "acking",
                 "frame_bytes", "seq", "attempts", "backoff", "retry_span")

    def __init__(self, shipment, wire_bytes, hop, name):
        engine = shipment.nms.engine
        #: The constants it shares with its siblings.
        self.shipment = shipment
        self.wire_bytes = wire_bytes
        self.hop = hop
        self.req = None
        #: The sequence number, or None on a perfect network.
        self.seq = None
        #: The completion event: what the shipment waits on.
        self.done = Process.chained(engine, name)
        init = Event(engine)
        init._ok = True
        init._value = None
        init.callbacks.append(
            self._attempt if shipment.link.faults is None
            else self._start_reliable
        )
        engine._ready(init)

    def _start_reliable(self, init):
        nms = self.shipment.nms
        self.seq = (nms.host.name, next(nms._seq))
        self.attempts = 0
        self.backoff = nms.calibration.retransmit_timeout_s
        self.retry_span = NULL_SPAN
        self._attempt(init)

    def _attempt(self, _event):
        nms = self.shipment.nms
        if self.seq is not None:
            self.attempts += 1
            if nms.host.crashed:
                self._fail(
                    f"{nms.host.name} crashed while sending "
                    f"{self.shipment.category}"
                )
                return
        req = self.req = nms.cpu.request()
        req.callbacks.append(self._source_granted)

    def _source_granted(self, _req):
        Timeout(self.shipment.nms.engine, self.hop).callbacks.append(
            self._source_done
        )

    def _source_done(self, _hop):
        nms = self.shipment.nms
        nms.cpu.release(self.req)
        nms.host.metrics.record_nms(nms.host.name, self.hop)
        self._send(False)

    def _send(self, acking):
        """Enter a data frame (or, ``acking``, the ack frame) on the link."""
        link = self.shipment.link
        self.acking = acking
        self.frame_bytes = (
            link.calibration.ack_wire_bytes if acking else self.wire_bytes
        )
        req = self.req = link.enter()
        req.callbacks.append(self._medium_granted)

    def _medium_granted(self, _req):
        link = self.shipment.link
        Timeout(
            link.engine,
            (self.frame_bytes * 8.0) / link.calibration.link_bandwidth_bps,
        ).callbacks.append(self._serialised)

    def _serialised(self, _serialisation):
        shipment = self.shipment
        link = shipment.link
        source = shipment.nms.host
        dest = shipment.peer.host
        if self.acking:
            source, dest = dest, source
        if not link.settle(self.req, self.frame_bytes, source, dest,
                           shipment.span):
            self._lost()
            return
        Timeout(
            link.engine, link.calibration.link_latency_s
        ).callbacks.append(self._acked if self.acking else self._arrived)

    def _arrived(self, _latency):
        shipment = self.shipment
        nms = shipment.nms
        peer = shipment.peer
        nms.host.metrics.record_link(
            self.wire_bytes, shipment.category, nms.host.name,
            peer.host.name, phase=shipment.phase,
        )
        seq = self.seq
        if seq is not None:
            if seq in peer._seen_seqs:
                nms._duplicates.inc(1, host=peer.host.name)
                self._send(True)
                return
            peer._seen_seqs.add(seq)
        req = self.req = peer.cpu.request()
        req.callbacks.append(self._dest_granted)

    def _dest_granted(self, _req):
        Timeout(self.shipment.nms.engine, self.hop).callbacks.append(
            self._dest_done
        )

    def _dest_done(self, _hop):
        shipment = self.shipment
        peer = shipment.peer
        peer.cpu.release(self.req)
        shipment.nms.host.metrics.record_nms(peer.host.name, self.hop)
        if self.seq is None:
            self.done.succeed()
        else:
            self._send(True)

    def _acked(self, _latency):
        self.retry_span.finish()
        self.done.succeed()

    def _lost(self):
        shipment = self.shipment
        nms = shipment.nms
        calibration = nms.calibration
        attempts = self.attempts
        if attempts >= calibration.retransmit_max_attempts:
            self._fail(
                f"fragment of {shipment.category} from {nms.host.name} to "
                f"{shipment.peer.host.name} undeliverable after {attempts} "
                "attempts"
            )
            return
        nms._retransmits.inc(1, host=nms.host.name)
        span = shipment.span
        span.add("retransmits")
        self.retry_span.finish()
        self.retry_span = span.child(
            "retransmit", attempt=attempts + 1, backoff_s=self.backoff
        )
        Timeout(nms.engine, self.backoff).callbacks.append(self._attempt)
        self.backoff = min(
            self.backoff * calibration.retransmit_backoff_factor,
            calibration.retransmit_timeout_cap_s,
        )

    def _fail(self, reason):
        self.retry_span.finish()
        self.done.fail(TransportError(reason))


class _Shipment:
    """What every :class:`_Fragment` of one shipment shares: the sending
    server, the link, the receiving server, the message op (the byte
    category), the phase its bytes are credited to, and the ship span."""

    __slots__ = ("nms", "link", "peer", "category", "phase", "span")

    def __init__(self, nms, link, peer, category, phase, span):
        self.nms = nms
        self.link = link
        self.peer = peer
        self.category = category
        self.phase = phase
        self.span = span

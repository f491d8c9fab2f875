"""The backing server: fields Imaginary Read Requests for its segments.

One server (one port, one receive loop) can back many segments — the
NetMsgServer runs one of these to manage every RIMAS region it caches.
Applications may run their own for arbitrary lazy data delivery.
"""

from repro.accent.ipc.message import Message, RegionSection
from repro.accent.pager import (
    OP_FLUSH_REGISTER,
    OP_IMAG_DEATH,
    OP_IMAG_READ,
    OP_IMAG_READ_BATCH,
    OP_IMAG_READ_REPLY,
    OP_IMAG_READ_REPLY_PART,
)
from repro.cor.imaginary import ImaginarySegment
from repro.obs import causal

#: Histogram buckets for the residual-dependency vulnerability window:
#: the window runs from segment creation until the last owed page
#: drains, which spans sub-second (flusher on) to minutes (pure
#: copy-on-reference under a lazy workload).
VULNERABILITY_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0,
)


def read_reply(request, section, part=1, parts=1):
    """A reply to ``request`` carrying ``section``, in the shape its op
    asks for: ``imag.read.reply`` to a single-page request, part
    ``part`` of ``parts`` of ``imag.read.reply.part`` to a batched one.
    """
    meta = request.meta
    if "request_id" in meta:
        op = OP_IMAG_READ_REPLY_PART
        meta = {"request_id": meta["request_id"], "part": part,
                "parts": parts}
    else:
        op = OP_IMAG_READ_REPLY
        meta = {"fault_id": meta["fault_id"]}
    return Message(dest=request.reply_port, op=op, sections=[section],
                   meta=meta)


def post_read_reply(host, request, pages, label, span):
    """Post ``pages`` to ``request``'s reply port, in their dict order.

    A single-page request gets one reply; a batched one gets up to its
    ``pipeline`` depth of parts.  Section labels are ``{label}-reply``
    and ``{label}-reply-part``.  Posts are fire-and-forget, so the
    server can overlap reply shipment with its next request (Accent's
    backer is not store-and-forward), and parts overlap on the link —
    the pipelining.
    """
    batched = "request_id" in request.meta
    label = f"{label}-reply-part" if batched else f"{label}-reply"
    # Single-page requests carry no pipeline depth: one part.
    depth = max(1, min(request.meta.get("pipeline", 1), len(pages)))
    chunks = [pages]
    if depth > 1:
        ordered = list(pages)
        size = -(-len(ordered) // depth)  # ceil division
        chunks = [
            {index: pages[index] for index in ordered[start:start + size]}
            for start in range(0, len(ordered), size)
        ]
    for part, chunk in enumerate(chunks, start=1):
        section = RegionSection(chunk, force_copy=True, label=label)
        reply = read_reply(request, section, part, len(chunks))
        causal.attach(reply, span)
        host.kernel.post(reply)


class BackerError(Exception):
    """Request for an unknown segment or page."""


class BackingServer:
    """A user-level memory manager reachable through one port."""

    def __init__(self, host, prefetch=0, name=None):
        self.host = host
        self.engine = host.engine
        self.name = name or f"{host.name}-backer"
        #: Extra contiguous pages returned per request (0, 1, 3, 7, 15).
        self.prefetch = prefetch
        self.port = host.create_port(name=self.name)
        self.segments = {}
        #: (segment_id, label, delivered_pages, total_pages) of segments
        #: retired by Imaginary Segment Death.
        self.retired = []
        self._server = self.engine.process(self._serve(), name=self.name)

    def __repr__(self):
        return f"<BackingServer {self.name} segments={len(self.segments)}>"

    def create_segment(self, pages, label=None, trace_ctx=None, window=None):
        """Register a new segment backed by this server's port.

        ``trace_ctx`` is the causal context of whatever shipment left
        these pages behind; faults against the segment stitch into it.
        ``window`` is a transfer plan's per-region prefetch window: read
        replies against the segment are widened to at least that many
        pages.
        """
        segment = ImaginarySegment(self.port, pages, label=label,
                                   segment_id=self.engine.serial("segment"),
                                   trace_ctx=trace_ctx)
        segment.window = window
        segment.created_at = self.engine.now
        store = self.host.store
        if store is not None:
            # Content-store world: register the stash and stamp the
            # segment with content ids so receivers can resolve faults
            # against any holder, and chained re-migrations collapse
            # residual dependencies onto cached copies.
            segment.content_ids = {
                index: store.put_page(page)
                for index, page in segment.stash.items()
            }
        self.segments[segment.segment_id] = segment
        self.note_progress(segment)
        return segment

    def segment(self, segment_id):
        """The live segment with this id (BackerError if unknown)."""
        try:
            return self.segments[segment_id]
        except KeyError:
            raise BackerError(f"unknown segment {segment_id}") from None

    def owed_pages(self):
        """Pages this backer still owes across live segments — the
        host's outstanding residual-dependency gauge."""
        return sum(len(s.owed) for s in self.segments.values() if not s.dead)

    # -- server loop -------------------------------------------------------------
    def _serve(self):
        while True:
            message = yield self.port.receive()
            if message.op in (OP_IMAG_READ, OP_IMAG_READ_BATCH):
                yield from self._handle_read(message)
            elif message.op == OP_IMAG_DEATH:
                self._handle_death(message)
            elif message.op == OP_FLUSH_REGISTER:
                self._handle_flush_register(message)
            else:
                raise BackerError(f"unexpected op {message.op!r}")

    def _handle_read(self, message):
        """Serve one Imaginary Read Request, single-page or batched.

        One lookup charge covers the request.  The reply is widened to
        the request window (further widened by the backer's prefetch
        knob and any plan-stamped segment window) and, for a batched
        request, streamed back as up to ``pipeline`` parts — demanded
        pages in the leading parts so their faulters resume while
        prefetch tails are still on the wire.
        """
        meta = message.meta
        segment = self.segment(meta["segment_id"])
        obs = self.host.metrics.obs
        if message.op == OP_IMAG_READ_BATCH:
            faults = meta["faults"]
            demanded = sorted({index for _fid, index in faults})
            name, attrs = "imag-serve-batch", {"demanded": len(demanded)}
        else:
            faults = ((meta["fault_id"], meta["page_index"]),)
            demanded = [meta["page_index"]]
            name, attrs = "imag-serve", {"page": meta["page_index"]}
        # Parent to the fault span that mailed the request (it lives on
        # the faulting host's track) so the service leg joins the DAG.
        serve_span = obs.tracer.span(
            name,
            parent=causal.parent_of(message),
            track=f"backer/{self.host.name}",
            segment=segment.segment_id,
            **attrs,
        )
        try:
            yield self.engine.timeout(self.host.calibration.backer_lookup_s)
            window = max(
                meta.get("window", 0),
                segment.window or 0,
                len(demanded) + self.prefetch,
            )
            pages = segment.take_batch(demanded, window)
            extra = len(pages) - len(demanded)
            if extra:
                self.host.metrics.record_prefetch(extra)
            serve_span.add("pages", len(pages))
            lifecycle = obs.lifecycle
            if lifecycle is not None:
                for fault_id, _index in faults:
                    lifecycle.service_done(
                        fault_id, backer=self.host.name,
                        pages=len(pages), now=self.engine.now,
                    )
            # take_batch lists demanded pages first, so they lead the
            # reply and their faulters resume first.
            post_read_reply(self.host, message, pages, "imag", serve_span)
            self.note_progress(segment)
        finally:
            serve_span.finish()

    def _handle_flush_register(self, message):
        """A migrated-in process asks us to push its owed pages.

        Sent by the destination's MigrationManager after insertion when
        a ResidualFlusher is enabled; the reply port is the flusher's
        intake on the destination host.
        """
        segment = self.segments.get(message.meta["segment_id"])
        flusher = self.host.flusher
        if segment is None or segment.dead or flusher is None:
            return
        flusher.pump(
            segment,
            message.reply_port,
            message.meta["process_name"],
            backer=self,
            trace_ctx=message.trace_ctx,
        )

    def note_progress(self, segment):
        """Refresh residual-dependency gauges after delivery activity."""
        registry = self.host.metrics.obs.registry
        registry.gauge("residual_pages", labels=("host",)).set(
            sum(len(s.owed) for s in self.segments.values() if not s.dead),
            host=self.host.name,
        )
        if segment.fully_delivered and segment.drained_at is None:
            segment.drained_at = self.engine.now
            if segment.created_at is not None:
                registry.histogram(
                    "vulnerability_window_s", buckets=VULNERABILITY_BUCKETS
                ).observe(segment.drained_at - segment.created_at)

    def _handle_death(self, message):
        segment = self.segments.pop(message.meta["segment_id"], None)
        if segment is not None:
            self.retired.append(
                (
                    segment.segment_id,
                    segment.label,
                    len(segment.stash) - len(segment.owed),
                    len(segment.stash),
                )
            )
            segment.die()

    def delivered_page_count(self):
        """Distinct pages delivered on demand, live and retired segments."""
        live = sum(
            len(s.stash) - len(s.owed) for s in self.segments.values()
        )
        return live + sum(entry[2] for entry in self.retired)

"""The per-host store server: serves faults from the content cache.

One :class:`StoreServer` runs on each host when the world enables the
content store.  Remote pagers whose resolver picked this host as a
nearer source mail it ``store.read`` / ``store.read.batch`` requests;
it answers in exactly the wire shape of the origin backer
(``imag.read.reply`` / ``imag.read.reply.part``), so the pager's reply
dispatch is source-agnostic.  A request for contents this host no
longer holds (crash wiped the cache, eviction raced the directory)
gets an explicit *miss* reply — the pager falls through to its next
source, never corrupting or losing the page.
"""

from repro.accent.ipc.message import InlineSection
from repro.accent.pager import OP_STORE_READ, OP_STORE_READ_BATCH
from repro.cor.backer import post_read_reply, read_reply
from repro.obs import causal


class StoreServerError(Exception):
    """A malformed store request."""


class StoreServer:
    """Fields content-store read requests through one port."""

    def __init__(self, host):
        self.host = host
        self.engine = host.engine
        self.name = f"{host.name}-store"
        self.port = host.create_port(name=self.name)
        registry = host.metrics.obs.registry
        self._served = registry.counter(
            "store_server_pages_total", labels=("host",)
        )
        self._misses = registry.counter(
            "store_server_misses_total", labels=("host",)
        )
        self._server = self.engine.process(self._serve(), name=self.name)

    def __repr__(self):
        return f"<StoreServer {self.name}>"

    def _serve(self):
        while True:
            message = yield self.port.receive()
            if message.op not in (OP_STORE_READ, OP_STORE_READ_BATCH):
                raise StoreServerError(f"unexpected op {message.op!r}")
            yield from self._handle_read(message)

    def _lookup(self, content_ids):
        """index -> fresh Page, ascending, for every id held; None on
        any miss."""
        store = self.host.store
        if store is None:
            return None
        pages = {}
        for index in sorted(content_ids):
            content_id = content_ids[index]
            if not store.has(content_id):
                return None
            pages[index] = store.get_page(content_id)
        return pages

    def _handle_read(self, message):
        """Serve one store read, single-page or batched, streamed like
        the backer.

        All-or-nothing: a single missing content id turns the whole
        request into one miss reply, and the pager retries it at its
        next source — partial installs from a half-hit would complicate
        conservation for no simulated win.
        """
        meta = message.meta
        if message.op == OP_STORE_READ_BATCH:
            content_ids = meta["cids"]
            name, attrs = "store-serve-batch", {"demanded": len(content_ids)}
        else:
            content_ids = {meta["page_index"]: meta["cid"]}
            name, attrs = "store-serve", {"page": meta["page_index"]}
        serve_span = self.host.metrics.obs.tracer.span(
            name,
            parent=causal.parent_of(message),
            track=f"store/{self.host.name}",
            **attrs,
        )
        try:
            yield self.engine.timeout(self.host.calibration.store_lookup_s)
            pages = self._lookup(content_ids)
            if pages is None:
                self._misses.inc(1, host=self.host.name)
                serve_span.add("miss", 1)
                reply = read_reply(message, InlineSection(bytes(4)))
                reply.meta["miss"] = True
                causal.attach(reply, serve_span)
                self.host.kernel.post(reply)
                return
            self._served.inc(len(pages), host=self.host.name)
            serve_span.add("pages", len(pages))
            post_read_reply(self.host, message, pages, "store", serve_span)
        finally:
            serve_span.finish()

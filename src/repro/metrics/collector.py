"""The testbed-wide metrics collector.

Everything the evaluation section measures funnels through here: bytes
on the wire (Figure 4-3, 4-5), message-handling time (Figure 4-4),
fault counts and kinds (§4.3.3), and phase boundaries (Tables 4-4/4-5).

Storage lives in the :class:`repro.obs.Registry` owned by the world's
:class:`repro.obs.Instrumentation`, so the same numbers appear in
exported traces without being kept twice.  The attribute views
(``faults``, ``total_link_bytes``, ...) are derived from the registry;
they are the collector's API, read by the testbed's and the stress and
serving harnesses' result classes.
"""

from array import array
from collections import Counter, namedtuple
from collections.abc import Sequence

from repro.obs import Instrumentation

LinkRecord = namedtuple("LinkRecord", "time bytes category source dest")
LinkRecord.__doc__ = "One fragment on the wire at a simulated instant."


class LinkLog(Sequence):
    """Every fragment on the wire, in time order, stored by column.

    A :class:`~collections.abc.Sequence` of :class:`LinkRecord` that
    builds each record on demand (``len``, iteration, indexing).  Times
    and byte counts are packed arrays, and each fragment's
    ``(category, source, dest)`` route is an index into a table that
    holds each distinct route once: about 20 bytes a fragment, where a
    list of records costs about 156.  Only :meth:`append` changes it.
    """

    __slots__ = ("times", "nbytes", "route_ids", "routes", "_route_index")

    def __init__(self, records=()):
        #: Simulated send times, one per fragment.
        self.times = array("d")
        #: Wire bytes, one per fragment.
        self.nbytes = array("q")
        #: Each fragment's index into :attr:`routes`.
        self.route_ids = array("I")
        #: Distinct ``(category, source, dest)`` triples, first seen first.
        self.routes = []
        self._route_index = {}
        for record in records:
            self.append(*record)

    def append(self, time, nbytes, category, source, dest):
        """Log one fragment."""
        key = (category, source, dest)
        route = self._route_index.get(key)
        if route is None:
            route = self._route_index[key] = len(self.routes)
            self.routes.append(key)
        self.times.append(time)
        self.nbytes.append(nbytes)
        self.route_ids.append(route)

    def copy(self):
        """An independent snapshot: later appends to either do not
        show in the other."""
        clone = LinkLog()
        clone.times = self.times[:]
        clone.nbytes = self.nbytes[:]
        clone.route_ids = self.route_ids[:]
        clone.routes = list(self.routes)
        clone._route_index = dict(self._route_index)
        return clone

    def __len__(self):
        return len(self.times)

    def __getitem__(self, index):
        return LinkRecord(
            self.times[index], self.nbytes[index],
            *self.routes[self.route_ids[index]],
        )

    def __iter__(self):
        routes = self.routes
        for time, nbytes, route in zip(self.times, self.nbytes, self.route_ids):
            yield LinkRecord(time, nbytes, *routes[route])


class MetricsCollector:
    """Accumulates raw measurements during one simulation run."""

    #: Link-record categories that support imaginary-fault activity
    #: (the white areas of Figure 4-5).
    FAULT_CATEGORIES = frozenset({"imag.read", "imag.read.reply"})

    def __init__(self, engine, obs=None):
        self.engine = engine
        if obs is None:
            obs = Instrumentation(clock=lambda: engine.now, enabled=False)
        #: The world's instrumentation (tracer + metrics registry).
        self.obs = obs
        registry = obs.registry
        self._faults = registry.counter("faults_total", labels=("kind",))
        self._link_bytes = registry.counter("link_bytes", labels=("category",))
        self._link_fragments = registry.counter(
            "link_fragments_total", labels=("category",)
        )
        self._nms_busy = registry.counter("nms_busy_seconds", labels=("host",))
        self._nms_messages = registry.counter(
            "nms_messages_total", labels=("host",)
        )
        self._prefetched = registry.counter("prefetched_pages_total")
        self._prefetch_hits = registry.counter("prefetch_hits_total")
        #: Fault-resolution latency: fault entry to page installed.
        self._imag_fault = registry.histogram("imag_fault_seconds")
        #: Wire round trip alone: request sent to reply received.
        self._imag_rtt = registry.histogram("imag_rtt_seconds")
        #: Every fragment transmitted, in time order (a :class:`LinkLog`).
        self.link_records = LinkLog()
        #: Named phase marks: name -> simulated time.
        self.marks = {}
        # category -> (bytes child, fragments child): the per-fragment
        # hot path skips the family's label resolution after first use,
        # and adds to the children's values directly (wire bytes and hop
        # times are never negative, so ``Counter.inc``'s check is moot).
        self._link_children = {}
        # host name -> (busy child, messages child), same reason: every
        # fragment hop records NMS busy time twice.
        self._nms_children = {}

    # -- recording ----------------------------------------------------------
    def record_link(self, nbytes, category, source, dest, phase=None):
        """A fragment of ``nbytes`` just crossed the link.

        ``phase`` is the span to credit the bytes to, resolved by the
        sender at ship time (None for unattributed traffic).
        """
        self.link_records.append(
            self.engine.now, nbytes, category, source, dest
        )
        children = self._link_children.get(category)
        if children is None:
            children = self._link_children[category] = (
                self._link_bytes.labels(category=category),
                self._link_fragments.labels(category=category),
            )
        children[0].value += nbytes
        children[1].value += 1
        self.obs.on_link(nbytes, category, phase)

    def record_nms(self, host_name, busy_s):
        """The NetMsgServer at ``host_name`` spent ``busy_s`` on a hop."""
        children = self._nms_children.get(host_name)
        if children is None:
            children = self._nms_children[host_name] = (
                self._nms_busy.labels(host=host_name),
                self._nms_messages.labels(host=host_name),
            )
        children[0].value += busy_s
        children[1].value += 1

    def record_fault(self, kind):
        """Count one fault of ``kind`` (fill-zero / disk / imaginary)."""
        self._faults.inc(1, kind=kind)
        self.obs.on_fault(kind)

    def record_imag_latency(self, total_s, rtt_s):
        """One imaginary fault resolved: total and wire-round-trip time."""
        self._imag_fault.observe(total_s)
        self._imag_rtt.observe(rtt_s)
        telemetry = self.obs.telemetry
        if telemetry is not None:
            telemetry.observe("fault.service", total_s)

    def record_prefetch(self, pages):
        """A backer just sent ``pages`` extra pages."""
        self._prefetched.inc(pages)

    def record_prefetch_hit(self):
        """A previously prefetched page was finally referenced."""
        self._prefetch_hits.inc(1)

    def mark(self, name):
        """Stamp the current simulated time under ``name``."""
        self.marks[name] = self.engine.now

    # -- registry-derived views ------------------------------------------------
    @property
    def faults(self):
        """Fault counts by kind ("fill-zero", "disk", "imaginary", ...)."""
        return Counter(
            {key[0]: child.value for key, child in self._faults.items()}
        )

    @property
    def nms_messages(self):
        """Messages handled (hops), per host name."""
        return Counter(
            {key[0]: child.value for key, child in self._nms_messages.items()}
        )

    @property
    def prefetched_pages(self):
        """Pages delivered by prefetch (beyond the demanded page)."""
        return self._prefetched.value()

    @property
    def prefetch_hits(self):
        """Prefetched pages that were later actually referenced."""
        return self._prefetch_hits.value()

    # -- aggregate views ------------------------------------------------------
    @property
    def total_link_bytes(self):
        """Bytes exchanged between machines (Figure 4-3's metric)."""
        return sum(child.value for _, child in self._link_bytes.items())

    def link_bytes_by_category(self):
        """Bytes on the wire per message category."""
        return Counter(
            {key[0]: child.value for key, child in self._link_bytes.items()}
        )

    @property
    def fault_support_bytes(self):
        """Bytes moved in support of imaginary faults (Fig 4-5 white)."""
        return sum(
            child.value
            for key, child in self._link_bytes.items()
            if key[0] in self.FAULT_CATEGORIES
        )

    @property
    def total_message_handling_s(self):
        """Both hosts' message-manipulation time (Figure 4-4's metric)."""
        return sum(child.value for _, child in self._nms_busy.items())

    @property
    def total_messages(self):
        """Message hops processed across both NetMsgServers."""
        return sum(child.value for _, child in self._nms_messages.items())

    def span(self, start_mark, end_mark):
        """Elapsed simulated seconds between two marks."""
        return self.marks[end_mark] - self.marks[start_mark]

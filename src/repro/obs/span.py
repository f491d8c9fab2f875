"""Spans: named, nested intervals of simulated time.

A :class:`Tracer` hands out :class:`Span` objects keyed to the
simulation clock (``engine.now``).  Spans nest (``span.child``), carry
free-form attributes set at creation, and accumulate per-span counters
(``span.add``) while they are open — the mechanism the testbed uses to
attribute bytes-on-wire and fault counts to migration phases.

When tracing is disabled the tracer returns the :data:`NULL_SPAN`
singleton, so instrumentation sites can call the span API
unconditionally at near-zero cost.
"""

from itertools import count
from types import MappingProxyType


class Span:
    """One named interval: [start, end) in simulated seconds."""

    __slots__ = (
        "tracer", "name", "span_id", "parent", "track", "trace_id",
        "start", "end", "attrs", "counters", "children", "is_phase",
    )

    def __init__(self, tracer, name, span_id, parent, track, start, attrs,
                 trace_id=None):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.track = track
        self.trace_id = trace_id
        self.start = start
        self.end = None
        self.attrs = attrs
        self.counters = {}
        self.children = []
        #: Set once the span has been opened as a phase
        #: (:meth:`repro.obs.Instrumentation.phase`).
        self.is_phase = False

    def __repr__(self):
        end = f"{self.end:.6f}" if self.end is not None else "open"
        return f"<Span {self.name!r} #{self.span_id} {self.start:.6f}..{end}>"

    @property
    def parent_id(self):
        return self.parent.span_id if self.parent is not None else None

    @property
    def duration(self):
        """Elapsed simulated seconds (to now if still open)."""
        end = self.end if self.end is not None else self.tracer.now()
        return end - self.start

    def child(self, name, track=None, **attrs):
        """Open a nested span starting now."""
        return self.tracer.span(name, parent=self, track=track, **attrs)

    def add(self, counter, value=1):
        """Accumulate ``value`` under a per-span counter."""
        self.counters[counter] = self.counters.get(counter, 0) + value

    def finish(self, end=None):
        """Close the span (idempotent)."""
        if self.end is None:
            self.end = self.tracer._clock() if end is None else end

    def walk(self):
        """This span then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.finish()
        return False


class NullSpan:
    """No-op stand-in returned when tracing is disabled."""

    __slots__ = ()
    name = "null"
    span_id = 0
    parent = None
    parent_id = None
    track = None
    trace_id = None
    start = 0.0
    end = 0.0
    duration = 0.0
    #: Read-only: a stray write through the shared singleton must fail
    #: loudly rather than leak state between disabled runs.
    attrs = MappingProxyType({})
    counters = MappingProxyType({})
    children = ()
    is_phase = False

    def child(self, name, track=None, **attrs):
        """Return self: null spans have null children."""
        return self

    def add(self, counter, value=1):
        """Discard the counter update."""
        pass

    def finish(self, end=None):
        """Nothing to close."""
        pass

    def walk(self):
        """An empty iterator: no descendants."""
        return iter(())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def __repr__(self):
        return "<NullSpan>"


#: The shared disabled-tracing span.
NULL_SPAN = NullSpan()


class Tracer:
    """Factory and container for one run's spans.

    Span ids are local to the tracer (starting at 1), so a fresh world
    produces a byte-identical trace given the same seed.
    """

    def __init__(self, clock=None, enabled=True):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.enabled = enabled
        self._ids = count(1)
        self._trace_ids = count(1)
        #: Top-level spans, in creation order.
        self.roots = []
        self._all = []

    def __repr__(self):
        return f"<Tracer spans={len(self._all)} enabled={self.enabled}>"

    def now(self):
        """The current simulated time."""
        return self._clock()

    def new_trace_id(self):
        """Mint a trace id unique within this tracer (deterministic)."""
        return f"t{next(self._trace_ids)}"

    def span(self, name, parent=None, track=None, trace_id=None, **attrs):
        """Open a span starting at the current simulated time.

        ``trace_id`` names the causal trace (one per migration) the
        span belongs to; unset, it is inherited from the parent, so an
        explicit id only appears at trace roots and at cross-trace
        stitch points (a residual fault joining the migration that owed
        it the page).
        """
        if not self.enabled:
            return NULL_SPAN
        if parent is NULL_SPAN:
            parent = None
        if track is None:
            track = parent.track if parent is not None else "main"
        if trace_id is None and parent is not None:
            trace_id = parent.trace_id
        span = Span(
            self, name, next(self._ids), parent, track, self._clock(), attrs,
            trace_id=trace_id,
        )
        if parent is None:
            self.roots.append(span)
        else:
            parent.children.append(span)
        self._all.append(span)
        return span

    @property
    def spans(self):
        """Every span created, in creation order."""
        return list(self._all)

    def find(self, name):
        """All spans with this name, in creation order."""
        return [span for span in self._all if span.name == name]

    def trace(self, trace_id):
        """The DAG of one causal trace: every span carrying this id."""
        return [span for span in self._all if span.trace_id == trace_id]

    def finish_open(self, end=None):
        """Close every still-open span (used before export)."""
        when = self._clock() if end is None else end
        for span in self._all:
            if span.end is None:
                span.end = when

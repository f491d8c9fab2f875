"""Unified instrumentation: spans, a metrics registry, and exporters.

The :class:`Instrumentation` object ties one simulated world's tracing
together:

* ``tracer`` — :class:`~repro.obs.span.Tracer` keyed to simulated time;
  the MigrationManager opens one root span per migration with
  excise/transfer/insert/freeze children.
* ``registry`` — :class:`~repro.obs.registry.Registry` of named
  counters, gauges and histograms (``faults_total{kind=...}``,
  ``link_bytes{category=...}``, ``imag_fault_seconds`` ...).  The
  registry is *always* live — it is the storage behind
  :class:`~repro.metrics.collector.MetricsCollector` — while spans and
  engine event counting only run when ``enabled``.

Exporters live in :mod:`repro.obs.export`: Chrome trace-event JSON
(openable in Perfetto / ``chrome://tracing``), a JSONL event stream,
and the plain-text summary tree behind ``repro inspect``.
"""

from collections import Counter as _Counter
from contextlib import contextmanager

from repro.obs.causal import TraceContext
from repro.obs.critpath import (
    analyze_run,
    critical_path,
    phase_breakdown,
    render_analysis,
)
from repro.obs.diff import TraceDiffError, diff_traces, render_diff
from repro.obs.export import (
    TRACE_SCHEMA,
    build_chrome,
    check_schema,
    jsonl_lines,
    load_chrome,
    render_summary,
    write_chrome,
    write_jsonl,
)
from repro.obs.lifecycle import FaultRecord, LifecycleProfiler
from repro.obs.prof import (
    EngineProfiler,
    build_speedscope,
    profiled,
    render_profile,
    write_speedscope,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    Registry,
    WindowedHistogram,
)
from repro.obs.slo import SLO, SLOEngine, SLOError, load_slos, parse_slos
from repro.obs.span import NULL_SPAN, Span, Tracer
from repro.obs.telemetry import DEFAULT_SAMPLE_PERIOD, Telemetry

#: Marks where a result's report rows place the run-metadata block
#: (events dispatched, host wall clock: host data the result lacks).
RUN_META = object()

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SAMPLE_PERIOD",
    "EngineProfiler",
    "FaultRecord",
    "Histogram",
    "Instrumentation",
    "LifecycleProfiler",
    "NULL_SPAN",
    "RUN_META",
    "Registry",
    "SLO",
    "SLOEngine",
    "SLOError",
    "Span",
    "TRACE_SCHEMA",
    "Telemetry",
    "TraceContext",
    "TraceDiffError",
    "Tracer",
    "WindowedHistogram",
    "analyze_run",
    "build_chrome",
    "build_speedscope",
    "check_schema",
    "critical_path",
    "diff_traces",
    "jsonl_lines",
    "load_chrome",
    "load_slos",
    "parse_slos",
    "phase_breakdown",
    "profiled",
    "render_analysis",
    "render_diff",
    "render_profile",
    "render_summary",
    "write_chrome",
    "write_jsonl",
    "write_speedscope",
]


class Instrumentation:
    """One world's tracer + registry + phase-attribution state."""

    def __init__(self, clock=None, enabled=True):
        self.enabled = enabled
        self.tracer = Tracer(clock=clock, enabled=enabled)
        self.registry = Registry()
        #: The world's :class:`~repro.obs.telemetry.Telemetry`, or None
        #: when continuous sampling is off — hot paths guard with one
        #: attribute load.
        self.telemetry = None
        #: Fault-lifecycle profiler, or None when disabled — hot-path
        #: sites guard with a single attribute load.
        self.lifecycle = LifecycleProfiler() if enabled else None
        #: Simulated process (None: code outside any process) -> its
        #: open phase span; see :meth:`phase`.
        self._open_phases = {}
        self._engine = None
        # category -> interned "bytes.<category>" counter key.
        self._link_keys = {}
        # category -> interned "faults.<kind>" counter key.
        self._fault_keys = {}
        # Engine event kinds land here as raw classes (one append per
        # dispatch) and are folded into counts at finalize() — a
        # labeled registry lookup per simulated event would be far
        # too slow.
        self._event_log = []
        #: :meth:`host_meta` as it stood when the engine was detached.
        self._host_meta = None

    def __repr__(self):
        return (
            f"<Instrumentation enabled={self.enabled} "
            f"spans={len(self.tracer.spans)}>"
        )

    # -- engine hook ------------------------------------------------------------
    def attach_engine(self, engine):
        """Count event dispatches by kind (only when enabled).

        Uses the engine's inline ``kind_log`` fast path rather than an
        observer callback: the per-event cost is one list append of
        the event class; counting and stringification happen once at
        :meth:`finalize`.
        """
        self._engine = engine
        if self.enabled:
            engine.kind_log = self._event_log

    def detach_engine(self):
        """Keep what the run recorded and let its engine go.

        Called when the world ends: the tracer's clock stops at the
        engine's final time, :meth:`host_meta` keeps its final counts,
        and the telemetry sampler drops its sources.
        """
        engine = self._engine
        if engine is None:
            return
        self._host_meta = self.host_meta()
        now = engine.now
        self.tracer._clock = lambda: now
        self._engine = None
        if self.telemetry is not None:
            self.telemetry.detach()

    # -- phase attribution --------------------------------------------------------
    @property
    def current_phase(self):
        """The open phase of the executing simulated process, or of
        code running outside any process; None when there is none."""
        open_phases = self._open_phases
        if not open_phases:
            return None
        engine = self._engine
        return open_phases.get(
            engine.active_process if engine is not None else None
        )

    def phase(self, span):
        """Context manager: ``span`` is the executing process's open
        phase for the block, the target that :meth:`on_fault` credits
        and that :meth:`phase_for` finds.  On exit the previous phase
        (almost always none) is restored and ``span`` finishes.
        :data:`NULL_SPAN` is its own no-op block."""
        if span is NULL_SPAN:
            return NULL_SPAN
        span.is_phase = True
        return self._opened(span)

    @contextmanager
    def _opened(self, span):
        engine = self._engine
        # Keyed by the process that opened the phase: a process closed
        # at the end of its world exits the block with none active.
        owner = engine.active_process if engine is not None else None
        open_phases = self._open_phases
        previous = open_phases.get(owner)
        open_phases[owner] = span
        try:
            yield span
        finally:
            if previous is None:
                del open_phases[owner]
            else:
                open_phases[owner] = previous
            span.finish()

    def phase_for(self, span):
        """The nearest enclosing *phase* span of ``span`` (inclusive),
        or None.  Shipments resolve their attribution target once, at
        send time, from their causal parentage — per-fragment credit
        then lands on the owning migration's phase no matter which
        other phases are open when the fragment finally crosses."""
        while span is not None:
            if span.is_phase:
                return span
            span = span.parent
        return None

    def on_link(self, nbytes, category, phase):
        """A fragment crossed the wire: credit ``phase``, which the
        sender resolved via :meth:`phase_for` (None: unattributed)."""
        if phase is None:
            return
        key = self._link_keys.get(category)
        if key is None:
            key = self._link_keys[category] = "bytes." + category
        counters = phase.counters
        counters["bytes"] = counters.get("bytes", 0) + nbytes
        counters[key] = counters.get(key, 0) + nbytes

    def on_fault(self, kind):
        """A fault resolved: credit the context's active phase."""
        phase = self.current_phase
        if phase is None:
            return
        key = self._fault_keys.get(kind)
        if key is None:
            key = self._fault_keys[kind] = "faults." + kind
        counters = phase.counters
        counters[key] = counters.get(key, 0) + 1

    def host_meta(self):
        """Host-side run metadata: events dispatched and wall-clock
        seconds spent in dispatch by this world's engine, as they stood
        at :meth:`detach_engine` once it ran.  ``None`` when no engine
        was ever attached (hand-scripted obs, foreign traces) so such
        exports stay byte-stable."""
        engine = self._engine
        if engine is None:
            return self._host_meta
        return {
            "events_dispatched": engine.dispatched,
            "wall_s": engine.wall_s,
        }

    # -- export -----------------------------------------------------------------
    def finalize(self):
        """Close open spans and sync engine event counts (idempotent)."""
        if self._event_log:
            family = self.registry.counter("sim_events_total", labels=("kind",))
            for kind, total in _Counter(self._event_log).items():
                family.labels(kind=kind.__name__).value = total
        self.tracer.finish_open()

"""Critical-path analysis: where did a migration's time actually go?

The causal trace of one migration is a DAG of spans spread over both
hosts.  The critical path through it is the chain of spans that
actually bounds the end-to-end time: at every instant of the root
``migrate`` interval, exactly one span is charged — the innermost one
active on the path — so the per-phase attribution *partitions* the
root span and its durations sum to the migration time exactly.  That
is the property the ``repro analyze`` CI smoke job asserts.

Decomposition walks the span tree recursively: children (in start
order, clipped to the parent's interval and to one another) claim
their sub-intervals; whatever no child covers is the parent's own
self-time.  The ``freeze`` span is excluded — it deliberately overlaps
transfer + insert on its own track to measure the outage, and charging
it would double-count.

Phases answer the paper's Table-4.x questions per run:

=================  ==================================================
``precopy``        pre-copy rounds while the process still runs (§5)
``excise``         ExciseProcess at the source (Table 4-4)
``core-ship``      Core context message: setup + ship (§4.3.2's ~1 s)
``rimas-ship``     strategy prepare + RIMAS ship (Table 4-5)
``insert``         InsertProcess at the destination (§4.3.1)
``residual-faults`` imaginary fault round trips during execution
``flusher``        residual-dependency push batches
``compute``        remote execution outside any fault
``other``          uncategorised self-time (span-tree gaps)
=================  ==================================================

Spans with no phase of their own (``ship …`` under ``core``, a
``retransmit`` under a ship) inherit the enclosing phase, so a
retransmitted Core fragment is still Core-ship time.
"""

from collections import namedtuple

from repro.obs.lifecycle import aggregate

#: One stretch of the critical path: ``span`` owns [start, end).
Segment = namedtuple("Segment", "name phase start end")

#: Span names that open a phase; descendants inherit it.
_PHASE_BY_NAME = {
    "precopy": "precopy",
    "excise": "excise",
    "core": "core-ship",
    "rimas": "rimas-ship",
    "insert": "insert",
    "exec": "compute",
    "fault": "residual-faults",
    "imag-serve": "residual-faults",
    "flush-batch": "flusher",
}

#: Message ops whose ``ship <op>`` spans open a phase even outside one
#: (a residual fault's request leaves from the destination's exec).
_PHASE_BY_OP = {
    "imag.read": "residual-faults",
    "imag.read.reply": "residual-faults",
    "imag.push": "flusher",
    "flush.register": "flusher",
}


def classify(name):
    """The phase a span of this name opens, or None (inherit)."""
    phase = _PHASE_BY_NAME.get(name)
    if phase is not None:
        return phase
    if name.startswith("ship "):
        return _PHASE_BY_OP.get(name[5:])
    return None


def _end(span):
    """A span's end time (live Span, loaded SpanView, open span)."""
    end = getattr(span, "end", None)
    if end is not None:
        return end
    return span.start + span.duration


def _decompose(span, start, end, phase, out):
    """Append ``span``'s critical-path segments over [start, end)."""
    own = classify(span.name)
    if own is not None:
        phase = own
    cursor = start
    for child in sorted(span.children, key=lambda c: c.start):
        if child.name == "freeze":
            continue  # overlaps transfer+insert by design; never on the path
        child_start = max(child.start, cursor)
        child_end = min(_end(child), end)
        if child_end <= child_start:
            continue
        if child_start > cursor:
            out.append(Segment(span.name, phase, cursor, child_start))
        _decompose(child, child_start, child_end, phase, out)
        cursor = child_end
    if cursor < end:
        out.append(Segment(span.name, phase, cursor, end))


def critical_path(root, phase="other"):
    """The critical path through ``root``'s trace, as segments.

    Segments tile [root.start, root.end) exactly — their durations sum
    to the root duration with zero error by construction.
    """
    out = []
    start, end = root.start, _end(root)
    if end > start:
        _decompose(root, start, end, phase, out)
    return out


def phase_breakdown(segments):
    """Seconds on the critical path per phase."""
    totals = {}
    for segment in segments:
        seconds = segment.end - segment.start
        totals[segment.phase] = totals.get(segment.phase, 0.0) + seconds
    return totals


def _walk_roots(roots):
    for root in roots:
        yield from root.walk()


def analyze_run(run):
    """The full analysis of one loaded (or live) run.

    ``run`` needs ``label``, ``roots`` (spans or SpanViews), and
    optionally ``faults`` (lifecycle records).  Returns a plain dict —
    the ``--json`` payload of ``repro analyze``.
    """
    migrations = []
    post = None
    for root in run.roots:
        if root.name == "migrate":
            segments = critical_path(root)
            migrations.append({
                "process": _arg(root, "process"),
                "strategy": _arg(root, "strategy"),
                "source": _arg(root, "source"),
                "dest": _arg(root, "dest"),
                "trace_id": getattr(root, "trace_id", None)
                or _arg(root, "trace_id"),
                "start": root.start,
                "end": _end(root),
                "duration_s": _end(root) - root.start,
                "phases": phase_breakdown(segments),
                "path": [
                    {
                        "span": segment.name,
                        "phase": segment.phase,
                        "start": segment.start,
                        "end": segment.end,
                    }
                    for segment in segments
                ],
            })
        elif root.name == "exec":
            segments = critical_path(root, phase="compute")
            phases = phase_breakdown(segments)
            if post is None:
                post = {"duration_s": 0.0, "phases": {}}
            post["duration_s"] += _end(root) - root.start
            for phase, seconds in phases.items():
                post["phases"][phase] = post["phases"].get(phase, 0.0) + seconds
    flusher_s = sum(
        _end(span) - span.start
        for span in _walk_roots(run.roots)
        if span.name == "flush-batch"
    )
    slo_violations = []
    for root in run.roots:
        if root.name != "slo.violation":
            continue
        recovered = [
            child for child in root.children
            if child.name == "slo.recovered"
        ]
        slo_violations.append({
            "slo": _arg(root, "slo"),
            "metric": _arg(root, "metric"),
            "objective": _arg(root, "objective"),
            "threshold": _arg(root, "threshold"),
            "start": root.start,
            "end": _end(root),
            "duration_s": _end(root) - root.start,
            "peak_burn_rate": _arg(root, "burn_rate"),
            "recovered": bool(recovered)
            and not _arg(root, "open_at_exit"),
        })
    records = getattr(run, "faults", None) or []
    return {
        "label": run.label,
        "migrations": migrations,
        "post_insertion": post,
        "flusher_s": flusher_s,
        "slo_violations": slo_violations,
        "fault_lifecycle": aggregate(records) if records else None,
    }


def _arg(span, key):
    args = getattr(span, "args", None)
    if args is None:
        args = getattr(span, "attrs", {})
    return args.get(key)


# -- rendering -------------------------------------------------------------------
#: Display order for phase tables.
_PHASE_ORDER = (
    "precopy", "excise", "core-ship", "rimas-ship", "insert",
    "residual-faults", "flusher", "compute", "other",
)


def _phase_lines(phases, total, lines, indent="  "):
    for phase in _PHASE_ORDER:
        seconds = phases.get(phase)
        if seconds is None:
            continue
        share = 100.0 * seconds / total if total else 0.0
        lines.append(f"{indent}{phase:<16} {seconds:>9.3f}s  {share:>5.1f}%")
    for phase in sorted(set(phases) - set(_PHASE_ORDER)):
        seconds = phases[phase]
        share = 100.0 * seconds / total if total else 0.0
        lines.append(f"{indent}{phase:<16} {seconds:>9.3f}s  {share:>5.1f}%")


def render_analysis(report):
    """Human-readable text for one run's :func:`analyze_run` dict."""
    lines = [f"run: {report['label']}"]
    for migration in report["migrations"]:
        total = migration["duration_s"]
        head = f"  migration of {migration['process'] or '?'}"
        if migration.get("strategy"):
            head += f" ({migration['strategy']})"
        if migration.get("trace_id"):
            head += f"  trace={migration['trace_id']}"
        lines.append(head)
        lines.append(
            f"  critical path {migration['start']:.3f}s → "
            f"{migration['end']:.3f}s  (total {total:.3f}s)"
        )
        _phase_lines(migration["phases"], total, lines, indent="    ")
        attributed = sum(migration["phases"].values())
        lines.append(
            f"    {'= attributed':<16} {attributed:>9.3f}s  "
            f"of {total:.3f}s root span"
        )
    if not report["migrations"]:
        lines.append("  (no migrate span in this run)")
    post = report.get("post_insertion")
    if post:
        lines.append(f"  post-insertion execution ({post['duration_s']:.3f}s)")
        _phase_lines(post["phases"], post["duration_s"], lines, indent="    ")
    if report.get("flusher_s"):
        lines.append(f"  flusher push time   {report['flusher_s']:.3f}s")
    violations = report.get("slo_violations")
    if violations:
        lines.append(f"  SLO violations: {len(violations)}")
        for violation in violations:
            fate = (
                "recovered" if violation["recovered"] else "open at exit"
            )
            burn = violation.get("peak_burn_rate")
            burn_text = (
                f"peak burn {burn:g}x budget" if burn is not None
                else "peak burn ?"
            )
            lines.append(
                f"    {violation['slo'] or '?':<16} "
                f"{violation['start']:.3f}s → {violation['end']:.3f}s  "
                f"({violation['duration_s']:.3f}s, {burn_text}, {fate})"
            )
    lifecycle = report.get("fault_lifecycle")
    if lifecycle:
        lines.append(
            f"  fault lifecycle: {lifecycle['count']} faults "
            f"({lifecycle['complete']} complete, "
            f"{lifecycle['failed']} failed)"
        )
        for stage in ("request", "service", "reply", "resume", "total"):
            stats = lifecycle["stages"].get(stage)
            if stats is None:
                continue
            lines.append(
                f"    {stage:<8} mean={stats['mean'] * 1e3:>8.3f}ms  "
                f"p50={stats['p50'] * 1e3:>8.3f}ms  "
                f"p95={stats['p95'] * 1e3:>8.3f}ms  "
                f"p99={stats['p99'] * 1e3:>8.3f}ms"
            )
    return "\n".join(lines)

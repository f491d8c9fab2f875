"""The self-contained fleet-health dashboard (``repro health``).

Renders the continuous-telemetry payload a sampled run embeds in its
trace (``--sample-period``) as one self-contained HTML file: stat
tiles, fleet concurrency timelines, per-host queue-depth small
multiples, rolling-percentile ribbons, and SLO burn-rate charts with
violation bands.

Everything is inline — charts are SVG from
:func:`repro.metrics.svg.line_chart`, colors are CSS custom properties
with a ``prefers-color-scheme`` dark variant — so the file opens
anywhere without a network connection or a plotting stack.  Chart
colors are passed to the SVG layer as ``var(--...)`` references and
resolve against whichever theme the page is showing.
"""

from xml.sax.saxutils import escape

from repro.metrics.svg import line_chart

#: Gauge suffixes the sampler records per host (used to discover the
#: host list from series names alone, so foreign traces still render).
_HOST_SUFFIXES = (
    "inflight", "queued", "resident_pages", "imag_pages",
    "residual_pages", "flusher_backlog",
)

#: Well-known distribution metrics -> display label.
_METRIC_LABELS = {
    "migration.freeze": "Freeze time",
    "scheduler.wait": "Scheduler wait",
    "fault.service": "Fault service time",
    "request.latency": "Request latency",
}


def _metric_label(metric):
    """Display label for one distribution metric's ribbon card."""
    label = _METRIC_LABELS.get(metric)
    if label is not None:
        return label
    if metric.startswith("request.latency."):
        return f"Request latency — {metric[len('request.latency.'):]}"
    return metric

#: Keyword args giving every chart the page's themable chrome.
_CHART_INK = {
    "ink": "var(--ink)",
    "ink_muted": "var(--ink-2)",
    "grid": "var(--grid)",
    "band_fill": "var(--band)",
    "background": None,
}


# -- telemetry digestion ---------------------------------------------------------
def _last(column):
    """The most recent non-None value of a series, or None."""
    if not column:
        return None
    for value in reversed(column):
        if value is not None:
            return value
    return None


def _peak(column):
    """The largest non-None value of a series, or None."""
    values = [value for value in (column or ()) if value is not None]
    return max(values) if values else None


def _host_names(series):
    """Host names mentioned by ``host.<name>.<gauge>`` series keys."""
    names = set()
    for key in series:
        if not key.startswith("host."):
            continue
        name, _, suffix = key[5:].rpartition(".")
        if name and suffix in _HOST_SUFFIXES:
            names.add(name)
    return sorted(names)


def _percentile_metrics(series):
    """Distribution metrics with percentile ribbons, known ones first."""
    found = {key[: -len(".p50")] for key in series if key.endswith(".p50")}
    ordered = [metric for metric in _METRIC_LABELS if metric in found]
    ordered.extend(sorted(found - set(_METRIC_LABELS)))
    return ordered


def _fleet_sum(series, suffix, hosts):
    """Sum one per-host gauge across the fleet, tick by tick."""
    columns = [series.get(f"host.{name}.{suffix}") for name in hosts]
    columns = [column for column in columns if column]
    if not columns:
        return None
    depth = max(len(column) for column in columns)
    summed = []
    for index in range(depth):
        values = [
            column[index] for column in columns
            if index < len(column) and column[index] is not None
        ]
        summed.append(sum(values) if values else None)
    return summed


def violation_bands(telemetry):
    """``{slo name: [(t0, t1), ...]}`` violation intervals.

    Pairs each ``slo.violation`` event with its ``slo.recovered``;
    violations still open at end of run extend to the final tick.
    """
    bands = {}
    open_at = {}
    events = (telemetry.get("slo") or {}).get("events", ())
    for event in events:
        if event["type"] == "slo.violation":
            open_at[event["slo"]] = event["t"]
        elif event["type"] == "slo.recovered":
            start = open_at.pop(event["slo"], None)
            if start is not None:
                bands.setdefault(event["slo"], []).append((start, event["t"]))
    times = telemetry.get("times") or (0.0,)
    for name in sorted(open_at):
        bands.setdefault(name, []).append((open_at[name], times[-1]))
    return bands


def summarize(telemetry):
    """Headline numbers for one run's telemetry (tiles + JSON view)."""
    times = telemetry.get("times", [])
    series = telemetry.get("series", {})
    summary = {
        "ticks": len(times),
        "period_s": telemetry.get("period_s"),
        "window_s": telemetry.get("window_s"),
        "duration_s": (
            round(times[-1] - times[0], 9) if len(times) > 1 else 0.0
        ),
        "hosts": _host_names(series),
    }
    peaks = {}
    for key in ("scheduler.inflight", "scheduler.queued"):
        peak = _peak(series.get(key))
        if peak is not None:
            peaks[key] = peak
    summary["peaks"] = peaks
    final = {}
    for metric in _percentile_metrics(series):
        for suffix in ("p50", "p99", "p999"):
            value = _last(series.get(f"{metric}.{suffix}"))
            if value is not None:
                final[f"{metric}.{suffix}"] = value
    summary["final_percentiles"] = final
    # Serving counters appear only when a flow router fed the sampler
    # (repro serve); a trace without serving data simply omits the key.
    if "serve.issued" in series:
        summary["serving"] = {
            key: _last(series.get(f"serve.{key}")) or 0
            for key in (
                "issued", "completed", "dropped", "retried", "redirected",
            )
        }
    slo = telemetry.get("slo")
    if slo is not None:
        bands = violation_bands(telemetry)
        summary["slo"] = {
            "specs": list(slo.get("specs", ())),
            "violations": sum(
                1 for event in slo.get("events", ())
                if event["type"] == "slo.violation"
            ),
            "violation_seconds": {
                name: round(sum(t1 - t0 for t0, t1 in spans), 9)
                for name, spans in sorted(bands.items())
            },
        }
    return summary


def health_json(run):
    """The machine-readable health view of one sampled run."""
    return {
        "label": run.label,
        "summary": summarize(run.telemetry),
        "telemetry": run.telemetry,
    }


def summary_rows(run):
    """``repro health``'s text summary of one sampled run, by line."""
    summary = summarize(run.telemetry)
    rows = [
        f"run {run.pid}: {run.label}",
        f"  samples      {summary['ticks']} every "
        f"{summary['period_s']:g}s over {summary['duration_s']:g}s "
        f"({len(summary['hosts'])} hosts)",
    ]
    peaks = summary["peaks"]
    if peaks:
        depth = ", ".join(
            f"{key.split('.')[-1]} {value}"
            for key, value in sorted(peaks.items())
        )
        rows.append(f"  peak depth   {depth}")
    serving = summary.get("serving")
    if serving is not None:
        rows.append(
            f"  serving      issued {serving['issued']}, "
            f"completed {serving['completed']}, "
            f"dropped {serving['dropped']}, "
            f"retried {serving['retried']}, "
            f"redirected {serving['redirected']}"
        )
    rows += [
        f"  {key:<22} {value:g}s (final window)"
        for key, value in sorted(summary["final_percentiles"].items())
    ]
    slo = summary.get("slo")
    if slo is not None:
        burned = ", ".join(
            f"{name}={seconds:g}s"
            for name, seconds in slo["violation_seconds"].items()
        ) or "none"
        rows.append(f"  SLO          {slo['violations']} violation(s); "
                    f"time in violation: {burned}")
    return rows


# -- HTML assembly ---------------------------------------------------------------
_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page);
  color: var(--ink);
}
.viz-root {
  color-scheme: light;
  --page: #f9f9f7;
  --surface-1: #fcfcfb;
  --ink: #0b0b0b;
  --ink-2: #52514e;
  --ink-3: #898781;
  --grid: #e1e0d9;
  --border: rgba(11, 11, 11, 0.10);
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --series-3: #1baf7a;
  --ramp-1: #86b6ef;
  --ramp-2: #2a78d6;
  --ramp-3: #104281;
  --ribbon: rgba(42, 120, 214, 0.16);
  --status-critical: #d03b3b;
  --band: rgba(208, 59, 59, 0.12);
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page: #0d0d0d;
    --surface-1: #1a1a19;
    --ink: #ffffff;
    --ink-2: #c3c2b7;
    --ink-3: #898781;
    --grid: #2c2c2a;
    --border: rgba(255, 255, 255, 0.10);
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
    --ramp-1: #86b6ef;
    --ramp-2: #3987e5;
    --ramp-3: #184f95;
    --ribbon: rgba(57, 135, 229, 0.20);
    --band: rgba(208, 59, 59, 0.18);
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --page: #0d0d0d;
  --surface-1: #1a1a19;
  --ink: #ffffff;
  --ink-2: #c3c2b7;
  --ink-3: #898781;
  --grid: #2c2c2a;
  --border: rgba(255, 255, 255, 0.10);
  --series-1: #3987e5;
  --series-2: #d95926;
  --series-3: #199e70;
  --ramp-1: #86b6ef;
  --ramp-2: #3987e5;
  --ramp-3: #184f95;
  --ribbon: rgba(57, 135, 229, 0.20);
  --band: rgba(208, 59, 59, 0.18);
}
main { max-width: 1360px; margin: 0 auto; padding: 18px 22px 48px; }
header h1 { font-size: 20px; margin: 18px 0 2px; }
header .sub { color: var(--ink-2); margin: 0 0 14px; font-size: 13px; }
section.run { margin-bottom: 34px; }
section.run > h2 {
  font-size: 16px; margin: 22px 0 10px;
  border-bottom: 1px solid var(--border); padding-bottom: 6px;
}
section.run h3 { font-size: 13px; color: var(--ink-2); margin: 18px 0 8px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin: 10px 0 16px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 14px; min-width: 108px;
}
.tile-value { font-size: 22px; }
.tile-value.critical { color: var(--status-critical); }
.tile-label { font-size: 11px; color: var(--ink-2); margin-top: 2px; }
.grid { display: flex; flex-wrap: wrap; gap: 12px; align-items: flex-start; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 12px; margin: 0;
}
.card figcaption { font-size: 12px; margin-bottom: 2px; }
.card .card-sub { font-size: 11px; color: var(--ink-3); margin: 0 0 6px; }
.card svg { display: block; }
details.data { margin-top: 18px; font-size: 12px; }
details.data summary { cursor: pointer; color: var(--ink-2); }
details.data table {
  border-collapse: collapse; margin-top: 8px;
  font-variant-numeric: tabular-nums;
}
details.data th, details.data td {
  border: 1px solid var(--border); padding: 3px 8px; text-align: right;
}
details.data th { color: var(--ink-2); font-weight: 600; }
"""


def _fmt(value):
    """Compact cell/tile formatting for telemetry numbers."""
    if value is None:
        return "–"
    if isinstance(value, float):
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    return f"{value:,}"


def _card(title, svg, subtitle=None):
    sub = (
        f'<p class="card-sub">{escape(subtitle)}</p>' if subtitle else ""
    )
    return (
        f'<figure class="card"><figcaption>{escape(title)}</figcaption>'
        f"{sub}{svg}</figure>"
    )


def _tile(value, label, critical=False):
    cls = "tile-value critical" if critical else "tile-value"
    return (
        f'<div class="tile"><div class="{cls}">{escape(str(value))}</div>'
        f'<div class="tile-label">{escape(label)}</div></div>'
    )


def _tiles(summary):
    tiles = [
        _tile(summary["ticks"], "samples"),
        _tile(f"{summary['duration_s']:g}s", "sampled span"),
        _tile(f"{summary['period_s']:g}s", "sample period"),
        _tile(len(summary["hosts"]), "hosts"),
    ]
    peaks = summary["peaks"]
    if "scheduler.inflight" in peaks:
        tiles.append(_tile(peaks["scheduler.inflight"], "peak in-flight"))
    if "scheduler.queued" in peaks:
        tiles.append(_tile(peaks["scheduler.queued"], "peak queued"))
    final = summary["final_percentiles"]
    p99 = final.get("migration.freeze.p99")
    if p99 is not None:
        tiles.append(_tile(f"{p99:g}s", "freeze p99 (final window)"))
    serving = summary.get("serving")
    if serving is not None:
        tiles.append(_tile(serving["completed"], "requests completed"))
        tiles.append(_tile(
            serving["dropped"], "requests dropped",
            critical=serving["dropped"] > 0,
        ))
        tiles.append(_tile(serving["retried"], "requests retried"))
        latency_p99 = final.get("request.latency.p99")
        if latency_p99 is not None:
            tiles.append(
                _tile(f"{latency_p99:g}s", "request p99 (final window)")
            )
    slo = summary.get("slo")
    if slo is not None:
        tiles.append(
            _tile(
                slo["violations"], "SLO violations",
                critical=slo["violations"] > 0,
            )
        )
    return f'<div class="tiles">{"".join(tiles)}</div>'


def _table(times, series, specs):
    """The collapsed data table backing the charts (fleet columns)."""
    columns = []
    for key in ("scheduler.inflight", "scheduler.queued"):
        if key in series:
            columns.append(key)
    for metric in _percentile_metrics(series):
        for suffix in ("p50", "p99", "p999"):
            key = f"{metric}.{suffix}"
            if key in series:
                columns.append(key)
    for spec in specs:
        key = f"slo.{spec['name']}.burn"
        if key in series:
            columns.append(key)
    if not columns:
        return ""
    head = "".join(f"<th>{escape(name)}</th>" for name in ["t (s)"] + columns)
    rows = []
    for index, when in enumerate(times):
        cells = [f"<td>{when:g}</td>"]
        for name in columns:
            column = series[name]
            value = column[index] if index < len(column) else None
            cells.append(f"<td>{_fmt(value)}</td>")
        rows.append(f"<tr>{''.join(cells)}</tr>")
    return (
        '<details class="data"><summary>Data table</summary>'
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table></details>"
    )


def _run_section(run):
    telemetry = run.telemetry
    times = telemetry["times"]
    series = telemetry["series"]
    hosts = _host_names(series)
    summary = summarize(telemetry)
    slo_data = telemetry.get("slo") or {}
    specs = list(slo_data.get("specs", ()))
    bands_by_slo = violation_bands(telemetry)
    bands_by_metric = {}
    for spec in specs:
        for span in bands_by_slo.get(spec["name"], ()):
            bands_by_metric.setdefault(spec["metric"], []).append(span)

    parts = [f'<section class="run"><h2>{escape(run.label)}</h2>']
    parts.append(_tiles(summary))
    charts = []

    if "scheduler.inflight" in series:
        svg = line_chart(
            times,
            [
                ("in flight", series["scheduler.inflight"],
                 "var(--series-1)"),
                ("queued", series.get("scheduler.queued", []),
                 "var(--series-2)"),
            ],
            width=640, height=200, y_label="migrations", **_CHART_INK,
        )
        charts.append(_card(
            "Fleet concurrency", svg,
            "cluster-wide in-flight and queued migrations",
        ))

    if "serve.issued" in series:
        svg = line_chart(
            times,
            [
                ("completed", series.get("serve.completed", []),
                 "var(--series-3)"),
                ("dropped", series.get("serve.dropped", []),
                 "var(--status-critical)"),
                ("retried", series.get("serve.retried", []),
                 "var(--series-2)"),
                ("redirected", series.get("serve.redirected", []),
                 "var(--series-1)"),
            ],
            width=640, height=200, y_label="requests", **_CHART_INK,
        )
        charts.append(_card(
            "Serving outcomes", svg,
            "cumulative request outcomes through the flow router",
        ))

    window_note = f"sliding {telemetry.get('window_s', 0):g}s window"
    for metric in _percentile_metrics(series):
        ribbon_series = [
            (suffix, series[f"{metric}.{suffix}"], color)
            for suffix, color in (
                ("p50", "var(--ramp-1)"),
                ("p99", "var(--ramp-2)"),
                ("p999", "var(--ramp-3)"),
            )
            if f"{metric}.{suffix}" in series
        ]
        if not ribbon_series:
            continue
        bands = sorted(bands_by_metric.get(metric, ()))
        svg = line_chart(
            times, ribbon_series, width=640, height=200,
            y_label="seconds", bands=bands,
            ribbon=("p50", "p999", "var(--ribbon)"), **_CHART_INK,
        )
        subtitle = window_note
        if bands:
            subtitle += "; shaded bands mark SLO violations"
        charts.append(_card(
            f"{_metric_label(metric)} — rolling percentiles",
            svg, subtitle,
        ))

    for spec in specs:
        column = series.get(f"slo.{spec['name']}.burn")
        if not column:
            continue
        svg = line_chart(
            times,
            [
                ("burn rate", column, "var(--series-1)"),
                ("budget", [1.0] * len(times), "var(--status-critical)"),
            ],
            width=640, height=200, y_label="burn ×budget",
            bands=sorted(bands_by_slo.get(spec["name"], ())),
            y_max=1.5, **_CHART_INK,
        )
        charts.append(_card(
            f"SLO {spec['name']}", svg,
            f"{spec['metric']} {spec['objective']} ≤ "
            f"{spec['threshold']:g} over {spec['window_s']:g}s; "
            "burn ≥ 1 violates",
        ))

    parts.append(f'<div class="grid">{"".join(charts)}</div>')

    if hosts and any(f"host.{name}.inflight" in series for name in hosts):
        depth_peak = max(
            [
                _peak(series.get(f"host.{name}.{suffix}")) or 0
                for name in hosts
                for suffix in ("inflight", "queued")
            ] + [1]
        )
        cells = []
        for name in hosts:
            svg = line_chart(
                times,
                [
                    ("in flight", series.get(f"host.{name}.inflight", []),
                     "var(--series-1)"),
                    ("queued", series.get(f"host.{name}.queued", []),
                     "var(--series-2)"),
                ],
                width=300, height=150, y_max=depth_peak, **_CHART_INK,
            )
            cells.append(_card(name, svg))
        parts.append(
            "<h3>Per-host queue depth (shared scale)</h3>"
            f'<div class="grid small">{"".join(cells)}</div>'
        )

    fleet_charts = []
    resident = _fleet_sum(series, "resident_pages", hosts)
    imag = _fleet_sum(series, "imag_pages", hosts)
    if resident or imag:
        svg = line_chart(
            times,
            [
                ("resident", resident or [], "var(--series-1)"),
                ("imaginary", imag or [], "var(--series-2)"),
            ],
            width=420, height=180, y_label="pages", **_CHART_INK,
        )
        fleet_charts.append(_card(
            "Fleet memory", svg,
            "resident frames vs imaginary (copy-on-reference) pages",
        ))
    residual = _fleet_sum(series, "residual_pages", hosts)
    backlog = _fleet_sum(series, "flusher_backlog", hosts)
    if residual or backlog:
        svg = line_chart(
            times,
            [
                ("owed pages", residual or [], "var(--series-2)"),
                ("flusher backlog", backlog or [], "var(--series-3)"),
            ],
            width=420, height=180, y_label="pages", **_CHART_INK,
        )
        fleet_charts.append(_card(
            "Residual dependencies", svg,
            "pages still owed by source hosts after migration",
        ))
    link_names = sorted(
        key[len("link."):-len(".inflight")]
        for key in series
        if key.startswith("link.") and key.endswith(".inflight")
    )
    for name in link_names:
        svg = line_chart(
            times,
            [
                ("in flight", series.get(f"link.{name}.inflight", []),
                 "var(--series-1)"),
                ("peak", series.get(f"link.{name}.peak_inflight", []),
                 "var(--series-2)"),
            ],
            width=420, height=180, y_label="transmissions", **_CHART_INK,
        )
        fleet_charts.append(_card(
            f"Link {name}", svg, "concurrent transmissions on the wire",
        ))
    if fleet_charts:
        parts.append(
            "<h3>Fleet resources</h3>"
            f'<div class="grid">{"".join(fleet_charts)}</div>'
        )

    parts.append(_table(times, series, specs))
    parts.append("</section>")
    return "".join(parts)


def render_health(runs):
    """The dashboard HTML document for loaded, sampled runs.

    ``runs`` are :class:`~repro.obs.export.RunView` objects; runs
    without telemetry are skipped.  Raises :class:`ValueError` when no
    run carries samples.
    """
    sections = [
        _run_section(run)
        for run in runs
        if run.telemetry and run.telemetry.get("times")
    ]
    if not sections:
        raise ValueError(
            "no run in this trace carries telemetry samples "
            "(record with --sample-period)"
        )
    labels = ", ".join(
        run.label for run in runs
        if run.telemetry and run.telemetry.get("times")
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1">\n'
        f"<title>repro fleet health — {escape(labels)}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n"
        '<body class="viz-root">\n<main>\n<header>'
        "<h1>Fleet health</h1>"
        f'<p class="sub">continuous telemetry from {escape(labels)}</p>'
        "</header>\n"
        + "\n".join(sections)
        + "\n</main>\n</body>\n</html>\n"
    )


def write_health(path, runs):
    """Render and write the dashboard; returns ``path``."""
    document = render_health(runs)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
    return path

"""Declarative SLOs evaluated online by a burn-rate engine.

An :class:`SLO` names an objective over one telemetry metric::

    {"name": "freeze-p99", "metric": "migration.freeze",
     "objective": "p99", "threshold": 0.5, "window_s": 5.0}

For distribution metrics the objective is a percentile (``p50`` /
``p90`` / ``p95`` / ``p99`` / ``p999``) or ``mean``; ``pXX <=
threshold`` is equivalent to "at most ``1 - 0.XX`` of observations may
exceed the threshold", so the percentile doubles as the default error
**budget** (``p99`` -> 0.01).  An explicit ``budget`` overrides it.
The **burn rate** is the classic SRE ratio

    burn = bad_fraction_in_window / budget

and the SLO is *violated* while ``burn >= 1``.  For gauge metrics
(``objective: "value"``) the burn rate is simply ``value / threshold``.

The :class:`SLOEngine` re-evaluates every spec at each sampler tick,
opens a first-class ``slo.violation`` span (own causal trace id, track
``slo``) when a spec starts burning faster than budget, and closes it
with a zero-length ``slo.recovered`` child when it stops — so
violations are visible in the Chrome trace, the causal DAG, and
``repro analyze`` like any other simulated work.
"""

import json

from repro.obs.span import NULL_SPAN

#: objective -> (is_distribution, default budget).
_OBJECTIVES = {
    "p50": (True, 0.50),
    "p90": (True, 0.10),
    "p95": (True, 0.05),
    "p99": (True, 0.01),
    "p999": (True, 0.001),
    "mean": (True, None),
    "value": (False, None),
}

#: objective name -> quantile for the reported statistic.
_QUANTILES = {"p50": 0.50, "p90": 0.90, "p95": 0.95, "p99": 0.99,
              "p999": 0.999}


class SLOError(ValueError):
    """A malformed SLO spec."""


class SLO:
    """One parsed objective: metric, threshold, window, budget."""

    __slots__ = ("name", "metric", "objective", "threshold", "window_s",
                 "budget")

    def __init__(self, name, metric, threshold, objective="p99",
                 window_s=5.0, budget=None):
        if objective not in _OBJECTIVES:
            raise SLOError(
                f"slo {name!r}: unknown objective {objective!r} "
                f"(choose from {', '.join(sorted(_OBJECTIVES))})"
            )
        if threshold is None or threshold <= 0:
            raise SLOError(f"slo {name!r}: threshold must be > 0")
        if window_s <= 0:
            raise SLOError(f"slo {name!r}: window_s must be > 0")
        _, default_budget = _OBJECTIVES[objective]
        if budget is None:
            budget = default_budget
        if budget is not None and not (0 < budget <= 1):
            raise SLOError(f"slo {name!r}: budget must be in (0, 1]")
        self.name = name
        self.metric = metric
        self.objective = objective
        self.threshold = float(threshold)
        self.window_s = float(window_s)
        self.budget = budget

    def __repr__(self):
        return (
            f"<SLO {self.name} {self.metric}:{self.objective} "
            f"<= {self.threshold}>"
        )

    @property
    def is_distribution(self):
        return _OBJECTIVES[self.objective][0]

    def to_dict(self):
        """Plain-data view (JSON-serialisable, round-trips parse)."""
        data = {
            "name": self.name,
            "metric": self.metric,
            "objective": self.objective,
            "threshold": self.threshold,
            "window_s": self.window_s,
        }
        if self.budget is not None:
            data["budget"] = self.budget
        return data

    def evaluate(self, window_hist, gauge_value):
        """(burn_rate, statistic) for the current window.

        ``window_hist`` is the merged sliding-window histogram for
        distribution objectives; ``gauge_value`` the latest sampled
        value for gauge objectives.  Empty windows burn at 0.
        """
        if not self.is_distribution:
            value = gauge_value
            if value is None:
                return 0.0, None
            return value / self.threshold, value
        if window_hist is None or window_hist.count == 0:
            return 0.0, None
        if self.objective == "mean":
            value = window_hist.mean
            return value / self.threshold, value
        value = window_hist.percentile(_QUANTILES[self.objective])
        bad = window_hist.count_above(self.threshold) / window_hist.count
        return bad / self.budget, value


def parse_slos(data):
    """Parse an SLO spec document into a list of :class:`SLO`.

    Accepts ``{"slos": [...]}`` or a bare list; each entry needs
    ``name``, ``metric`` and ``threshold``, with ``objective`` /
    ``window_s`` / ``budget`` optional.
    """
    if isinstance(data, dict):
        entries = data.get("slos")
        if entries is None:
            raise SLOError('SLO spec object must carry a "slos" list')
    else:
        entries = data
    if not isinstance(entries, (list, tuple)):
        raise SLOError("SLO spec must be a list of objectives")
    slos = []
    seen = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise SLOError(f"SLO entry must be an object, got {entry!r}")
        unknown = set(entry) - {"name", "metric", "objective", "threshold",
                                "window_s", "budget"}
        if unknown:
            raise SLOError(
                f"SLO entry has unknown keys: {', '.join(sorted(unknown))}"
            )
        for field in ("name", "metric", "threshold"):
            if field not in entry:
                raise SLOError(f"SLO entry is missing {field!r}: {entry!r}")
        if entry["name"] in seen:
            raise SLOError(f"duplicate SLO name {entry['name']!r}")
        seen.add(entry["name"])
        slos.append(
            SLO(
                entry["name"], entry["metric"], entry["threshold"],
                objective=entry.get("objective", "p99"),
                window_s=entry.get("window_s", 5.0),
                budget=entry.get("budget"),
            )
        )
    return slos


def load_slos(path):
    """Read an SLO spec JSON file: ``(raw document, parsed SLOs)``.
    Raises OSError when unreadable and SLOError when malformed."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SLOError(f"not valid JSON ({exc})") from None
    return data, tuple(parse_slos(data))


class SLOEngine:
    """Online burn-rate evaluation with violation state tracking."""

    def __init__(self, slos, obs):
        self.slos = list(slos)
        self.tracer = obs.tracer
        #: slo name -> open ``slo.violation`` span (while burning).
        self._open = {}
        #: slo name -> peak burn rate within the open violation.
        self._peak = {}
        #: Emitted events, in order: dicts with type / slo / t / burn.
        self.events = []
        self.violations_total = obs.registry.counter(
            "slo_violations_total", labels=("slo",)
        )

    def __repr__(self):
        return f"<SLOEngine slos={len(self.slos)} events={len(self.events)}>"

    def evaluate(self, now, window_for, gauge_for):
        """Evaluate every SLO at sampler tick time ``now``.

        ``window_for(slo)`` returns the merged sliding-window histogram
        for a distribution metric (or None); ``gauge_for(slo)`` the
        latest sampled value for a gauge metric (or None).  Returns
        ``{slo name: burn rate}`` for the sampler's burn-rate series.
        """
        burns = {}
        for slo in self.slos:
            window = window_for(slo) if slo.is_distribution else None
            gauge = None if slo.is_distribution else gauge_for(slo)
            burn, value = slo.evaluate(window, gauge)
            burns[slo.name] = burn
            violated = burn >= 1.0
            open_span = self._open.get(slo.name)
            if violated and open_span is None:
                span = self.tracer.span(
                    "slo.violation",
                    track="slo",
                    trace_id=self.tracer.new_trace_id(),
                    slo=slo.name,
                    metric=slo.metric,
                    objective=slo.objective,
                    threshold=slo.threshold,
                )
                self._open[slo.name] = span
                self._peak[slo.name] = burn
                self.violations_total.inc(1, slo=slo.name)
                self.events.append(self._event(
                    "slo.violation", slo, now, burn, value))
            elif violated:
                if burn > self._peak.get(slo.name, 0.0):
                    self._peak[slo.name] = burn
            elif open_span is not None:
                self._close(slo, open_span, now, burn, value)
        return burns

    def _event(self, kind, slo, now, burn, value):
        event = {
            "type": kind,
            "slo": slo.name,
            "metric": slo.metric,
            "objective": slo.objective,
            "threshold": slo.threshold,
            "t": now,
            "burn_rate": round(burn, 6),
        }
        if value is not None:
            event["value"] = round(value, 6)
        return event

    def _close(self, slo, span, now, burn, value):
        """Recovery: close the violation span and stamp peak burn."""
        peak = self._peak.pop(slo.name, 0.0)
        if span is not NULL_SPAN:
            span.attrs["burn_rate"] = round(peak, 6)
        recovered = span.child(
            "slo.recovered", slo=slo.name, burn_rate=round(burn, 6))
        recovered.finish(now)
        span.finish(now)
        del self._open[slo.name]
        event = self._event("slo.recovered", slo, now, burn, value)
        event["peak_burn_rate"] = round(peak, 6)
        self.events.append(event)

    def finalize(self, now):
        """Close violations still open at end of run (still-violated)."""
        for slo in self.slos:
            span = self._open.get(slo.name)
            if span is not None:
                peak = self._peak.pop(slo.name, 0.0)
                if span is not NULL_SPAN:
                    span.attrs["burn_rate"] = round(peak, 6)
                    span.attrs["open_at_exit"] = True
                span.finish(now)
                del self._open[slo.name]

    def snapshot(self):
        """Plain-data view: specs plus the event log."""
        return {
            "specs": [slo.to_dict() for slo in self.slos],
            "events": list(self.events),
        }

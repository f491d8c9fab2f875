"""The fault-lifecycle profiler: one record per imaginary fault.

Copy-on-reference trades freeze time for a tail of residual remote
faults (the paper's central bargain), so *where a fault's latency goes*
is a first-class question: request shipping, backer service, reply
reassembly, or resume?  The profiler answers it with one
:class:`FaultRecord` per imaginary fault, stamped at five points:

=========  ======================================================
``raised``       the faulting process trapped (pager entry)
``request_at``   the Imaginary Read Request finished shipping
                 (enqueued at the backing port)
``service_at``   the backer posted the reply (queue wait + lookup
                 + page selection are behind it)
``reply_at``     the reply reached the faulting pager
``resumed_at``   pages installed and mapped; the process runs again
=========  ======================================================

Stage durations derive pairwise: ``request`` (raised→request_at),
``service`` (request_at→service_at), ``reply`` (service_at→reply_at),
``resume`` (reply_at→resumed_at), and ``total`` (raised→resumed_at).
A fault whose backer died mid-flight stays incomplete and carries the
failure reason instead.

Records export as JSONL lines and ride along in Chrome trace files
(under the ``repro`` key), so ``repro analyze`` can aggregate them into
per-stage percentiles per run — and a sweep trace yields percentiles
per strategy/prefetch for free, one run per trial.
"""

from repro.obs.registry import nearest_rank

#: Stamp attribute per lifecycle stage boundary, in causal order.
_MARKS = ("raised", "request_at", "service_at", "reply_at", "resumed_at")

#: Stage name -> (start mark, end mark).
STAGES = {
    "request": ("raised", "request_at"),
    "service": ("request_at", "service_at"),
    "reply": ("service_at", "reply_at"),
    "resume": ("reply_at", "resumed_at"),
    "total": ("raised", "resumed_at"),
}


class FaultRecord:
    """The lifecycle of one imaginary fault."""

    __slots__ = (
        "fault_id", "trace_id", "page", "segment_id", "host", "backer",
        "pages", "failure",
    ) + _MARKS

    def __init__(self, fault_id, trace_id, page, segment_id, host, raised):
        self.fault_id = fault_id
        #: The migration trace this fault belongs to (carried by the
        #: imaginary handle through IOU caching), or None.
        self.trace_id = trace_id
        self.page = page
        self.segment_id = segment_id
        #: Faulting host name; the backing host fills in ``backer``.
        self.host = host
        self.backer = None
        #: Pages the reply carried (1 + prefetched companions).
        self.pages = 0
        #: Why the fault never resolved, or None.
        self.failure = None
        self.raised = raised
        self.request_at = None
        self.service_at = None
        self.reply_at = None
        self.resumed_at = None

    def __repr__(self):
        state = "complete" if self.complete else (self.failure or "open")
        return f"<FaultRecord #{self.fault_id} page={self.page} {state}>"

    @property
    def complete(self):
        return self.resumed_at is not None

    def stage_s(self, stage):
        """Duration of one stage, or None if either boundary is unset."""
        start_mark, end_mark = STAGES[stage]
        start = getattr(self, start_mark)
        end = getattr(self, end_mark)
        if start is None or end is None:
            return None
        return end - start

    def to_dict(self):
        """Plain-data view (JSON-serialisable, stable key order)."""
        record = {
            "fault_id": self.fault_id,
            "trace_id": self.trace_id,
            "page": self.page,
            "segment_id": self.segment_id,
            "host": self.host,
            "backer": self.backer,
            "pages": self.pages,
            "failure": self.failure,
        }
        for mark in _MARKS:
            record[mark] = getattr(self, mark)
        return record

    @classmethod
    def from_dict(cls, data):
        """Rebuild a record from :meth:`to_dict` output (trace loading)."""
        record = cls(
            data.get("fault_id"), data.get("trace_id"), data.get("page"),
            data.get("segment_id"), data.get("host"), data.get("raised"),
        )
        record.backer = data.get("backer")
        record.pages = data.get("pages", 0)
        record.failure = data.get("failure")
        for mark in _MARKS[1:]:
            setattr(record, mark, data.get(mark))
        return record


class LifecycleProfiler:
    """Collects fault records for one instrumented world.

    Only built when instrumentation is enabled (``obs.lifecycle`` is
    None otherwise), so call sites guard with one attribute load.
    """

    def __init__(self):
        #: fault_id -> record, in raise order (dicts preserve it).
        self._records = {}

    def __repr__(self):
        return f"<LifecycleProfiler faults={len(self._records)}>"

    def raised(self, fault_id, trace_id, page, segment_id, host, now):
        """A process trapped on an owed page."""
        self._records[fault_id] = FaultRecord(
            fault_id, trace_id, page, segment_id, host, now
        )

    def request_done(self, fault_id, now):
        """The Imaginary Read Request is enqueued at the backing port."""
        record = self._records.get(fault_id)
        if record is not None:
            record.request_at = now

    def service_done(self, fault_id, backer, pages, now):
        """The backer posted the reply."""
        record = self._records.get(fault_id)
        if record is not None:
            record.service_at = now
            record.backer = backer
            record.pages = pages

    def reply_done(self, fault_id, now):
        """The reply reached the faulting pager."""
        record = self._records.get(fault_id)
        if record is not None:
            record.reply_at = now

    def resumed(self, fault_id, now):
        """Pages installed and mapped; the fault is fully resolved."""
        record = self._records.get(fault_id)
        if record is not None:
            record.resumed_at = now

    def failed(self, fault_id, reason, now):
        """The fault can never resolve (backer dead / unreachable)."""
        record = self._records.get(fault_id)
        if record is not None:
            record.failure = str(reason)

    @property
    def records(self):
        """Every record, in raise order."""
        return list(self._records.values())

    def snapshot(self):
        """Plain-data view of every record (JSON-serialisable)."""
        return [record.to_dict() for record in self._records.values()]


def aggregate(records):
    """Per-stage latency statistics over fault records.

    Accepts :class:`FaultRecord` objects or their ``to_dict`` forms
    (what a loaded trace holds).  Returns::

        {"count": N, "complete": M, "failed": F,
         "stages": {stage: {"count", "mean", "p50", "p95", "p99", "max"}}}

    Stages with no observations are omitted.
    """
    parsed = [
        record if isinstance(record, FaultRecord) else FaultRecord.from_dict(record)
        for record in records
    ]
    stages = {}
    for stage in STAGES:
        values = sorted(
            duration
            for record in parsed
            if (duration := record.stage_s(stage)) is not None
        )
        if not values:
            continue
        stages[stage] = {
            "count": len(values),
            "mean": sum(values) / len(values),
            "p50": nearest_rank(values, 0.50),
            "p95": nearest_rank(values, 0.95),
            "p99": nearest_rank(values, 0.99),
            "max": values[-1],
        }
    return {
        "count": len(parsed),
        "complete": sum(1 for record in parsed if record.complete),
        "failed": sum(1 for record in parsed if record.failure is not None),
        "stages": stages,
    }

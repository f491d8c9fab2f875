"""Binned byte-rate timelines (Figure 4-5).

The figure plots network transfer rate over the migration + remote
execution interval, splitting imaginary-fault support traffic (white)
from everything else (black).
"""

from collections import namedtuple

from repro.metrics.collector import LinkLog, MetricsCollector

TimelineBin = namedtuple("TimelineBin", "start end fault_bytes other_bytes")
TimelineBin.__doc__ = "Bytes transferred during [start, end), split by purpose."


class Timeline:
    """Builds a binned transfer-rate series from link records."""

    def __init__(self, bin_seconds=1.0, fault_categories=None):
        if bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        self.bin_seconds = bin_seconds
        self.fault_categories = (
            frozenset(fault_categories)
            if fault_categories is not None
            else MetricsCollector.FAULT_CATEGORIES
        )

    def bins(self, link_records, start=None, end=None):
        """Aggregate records into :class:`TimelineBin` rows.

        ``link_records`` is a :class:`~repro.metrics.LinkLog`, read by
        column, or any iterable of :class:`~repro.metrics.LinkRecord`.
        Empty bins inside the interval are emitted (rate zero), so the
        series plots without gaps.
        """
        log = (
            link_records if isinstance(link_records, LinkLog)
            else LinkLog(link_records)
        )
        times = log.times
        if not times and (start is None or end is None):
            return []
        t0 = start if start is not None else times[0]
        t1 = end if end is not None else times[-1]
        if t1 < t0:
            raise ValueError(f"end {t1} before start {t0}")
        count = max(1, int((t1 - t0) / self.bin_seconds) + 1)
        fault = [0] * count
        other = [0] * count
        is_fault = [
            category in self.fault_categories
            for category, _, _ in log.routes
        ]
        for time, nbytes, route in zip(times, log.nbytes, log.route_ids):
            if time < t0 or time > t1:
                continue
            index = min(int((time - t0) / self.bin_seconds), count - 1)
            if is_fault[route]:
                fault[index] += nbytes
            else:
                other[index] += nbytes
        return [
            TimelineBin(
                t0 + i * self.bin_seconds,
                t0 + (i + 1) * self.bin_seconds,
                fault[i],
                other[i],
            )
            for i in range(count)
        ]

    def rates(self, link_records, start=None, end=None):
        """Like :meth:`bins` but in bytes/second."""
        return [
            (
                b.start,
                b.fault_bytes / self.bin_seconds,
                b.other_bytes / self.bin_seconds,
            )
            for b in self.bins(link_records, start=start, end=end)
        ]

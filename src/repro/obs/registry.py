"""The metrics registry: named counters, gauges, and histograms.

Prometheus-flavoured but dependency-free.  A :class:`Registry` holds
*families* keyed by metric name; a family with label names hands out
one child instrument per distinct label combination::

    faults = registry.counter("faults_total", labels=("kind",))
    faults.inc(1, kind="imaginary")
    faults.value(kind="imaginary")       # 1

Histograms use fixed upper bounds (``value <= bound`` falls in that
bucket, like Prometheus ``le``) plus an overflow bucket, and estimate
percentiles by linear interpolation inside the winning bucket, clamped
to the observed min/max.
"""

from bisect import bisect_left

#: Default bucket upper bounds for fault/hop latencies, in seconds.
#: Chosen around the paper's landmarks: 40.8 ms disk fault, ~115 ms
#: remote imaginary fault, ~1 s Core message.
DEFAULT_LATENCY_BUCKETS = (
    0.005, 0.01, 0.02, 0.04, 0.06, 0.08, 0.1,
    0.125, 0.15, 0.2, 0.3, 0.5, 1.0, 2.0, 5.0,
)


def nearest_rank(ordered, q):
    """Exact q-quantile of a sorted sequence by nearest rank (or None).

    What a :class:`Histogram` estimates from buckets, this reads off
    the raw values: freeze times, request latencies, fault stages.
    """
    if not ordered:
        return None
    return ordered[max(0, min(len(ordered) - 1, int(q * len(ordered))))]


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def snapshot(self):
        """Plain-data view (JSON-serialisable)."""
        return {"value": self.value}


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0

    def set(self, value):
        """Replace the current value."""
        self.value = value

    def inc(self, amount=1):
        """Add ``amount`` (may be negative)."""
        self.value += amount

    def snapshot(self):
        """Plain-data view (JSON-serialisable)."""
        return {"value": self.value}


class Histogram:
    """Fixed-bucket histogram with min/max/sum tracking."""

    __slots__ = ("buckets", "counts", "overflow", "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, buckets=DEFAULT_LATENCY_BUCKETS):
        buckets = tuple(buckets)
        if not buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(buckets) != sorted(buckets):
            raise ValueError(f"bucket bounds must be ascending: {buckets}")
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        """Record one observation."""
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        position = bisect_left(self.buckets, value)
        if position < len(self.buckets):
            self.counts[position] += 1
        else:
            self.overflow += 1

    @property
    def mean(self):
        return self.sum / self.count if self.count else None

    def percentile(self, q):
        """Estimated q-quantile (q in [0, 1]); None if empty.

        Linear interpolation inside the selected bucket, clamped to the
        observed min/max so single-observation histograms report the
        exact value.
        """
        return self.percentiles((q,))[0]

    def percentiles(self, qs):
        """:meth:`percentile` for several *ascending* quantiles in one
        bucket scan (the sampler reads p50/p99/p999 every tick)."""
        if self.count == 0:
            return (None,) * len(qs)
        buckets = self.buckets
        counts = self.counts
        size = len(buckets)
        results = []
        position = 0
        cumulative = 0
        lower_bound = 0.0
        for q in qs:
            target = q * self.count
            while position < size:
                bucket_count = counts[position]
                if cumulative + bucket_count >= target and bucket_count > 0:
                    break
                cumulative += bucket_count
                lower_bound = buckets[position]
                position += 1
            if position >= size:
                # Landed in the overflow bucket.
                results.append(self.max)
                continue
            fraction = (target - cumulative) / counts[position]
            low = max(lower_bound, self.min)
            high = min(buckets[position], self.max)
            if high < low:
                high = low
            results.append(low + fraction * (high - low))
        return tuple(results)

    def snapshot(self):
        """Plain-data view (JSON-serialisable)."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_snapshot(cls, data):
        """Rebuild a histogram from :meth:`snapshot` output (for
        ``repro inspect`` reading a saved trace)."""
        hist = cls(buckets=data["buckets"])
        hist.counts = list(data["counts"])
        hist.overflow = data["overflow"]
        hist.count = data["count"]
        hist.sum = data["sum"]
        hist.min = data["min"]
        hist.max = data["max"]
        return hist

    def merge_from(self, other):
        """Fold ``other``'s observations into this histogram.

        Both must share bucket bounds — the property that makes
        fixed-bucket histograms mergeable, which the windowed variant
        relies on to answer sliding-window percentile queries by
        summing its tumbling chunks.
        """
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.buckets} vs {other.buckets}"
            )
        for position, bucket_count in enumerate(other.counts):
            self.counts[position] += bucket_count
        self.overflow += other.overflow
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    def count_above(self, threshold):
        """Observations strictly above ``threshold`` (bucket-resolved).

        ``threshold`` should be one of the bucket bounds for an exact
        answer; other values resolve to the enclosing bucket's upper
        bound, which over-counts by at most one bucket — good enough
        for budget-fraction SLO arithmetic over coarse buckets.
        """
        if self.count == 0:
            return 0
        above = self.overflow
        for bound, bucket_count in zip(self.buckets, self.counts):
            if bound > threshold:
                above += bucket_count
        return above


#: Chunks a :class:`WindowedHistogram` keeps; older ones are dropped
#: (their observations stay in the all-time ``total``).
RETAIN_CHUNKS = 256


class WindowedHistogram:
    """A streaming histogram over tumbling windows of simulated time.

    Each observation lands in the chunk (a plain :class:`Histogram`) of
    the ``window_s``-second tumbling window its time falls in; the last
    :data:`RETAIN_CHUNKS` chunks are kept so that :meth:`merged` can
    answer sliding-window queries over the last ``k`` windows.  The
    caller passes the simulated time, so two runs with the same seed
    produce identical chunk sequences: windowed percentiles are as
    deterministic as the simulation itself.
    """

    __slots__ = ("window_s", "buckets", "chunks", "total")
    kind = "windowed_histogram"

    def __init__(self, window_s=1.0, buckets=DEFAULT_LATENCY_BUCKETS):
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        self.window_s = float(window_s)
        #: All-time merge of every observation ever made, including
        #: those whose chunks have been dropped.
        self.total = Histogram(buckets)
        self.buckets = self.total.buckets
        #: (epoch, Histogram) pairs, oldest first; epochs with no
        #: observations have no chunk (they merge as empty).
        self.chunks = []

    def __repr__(self):
        return (
            f"<WindowedHistogram window={self.window_s}s "
            f"chunks={len(self.chunks)} count={self.total.count}>"
        )

    def observe(self, value, now):
        """Record one observation made at simulated time ``now``."""
        epoch = int(now // self.window_s)
        chunks = self.chunks
        if not chunks or chunks[-1][0] != epoch:
            chunks.append((epoch, Histogram(self.buckets)))
            if len(chunks) > RETAIN_CHUNKS:
                del chunks[0]
        chunks[-1][1].observe(value)
        self.total.observe(value)

    def merged(self, windows, now):
        """A new :class:`Histogram` of the observations in the last
        ``windows`` tumbling windows, ending with the one simulated
        time ``now`` falls in."""
        if windows < 1:
            raise ValueError(f"windows must be >= 1, got {windows}")
        floor = int(now // self.window_s) - windows
        chunks = self.chunks
        start = len(chunks)
        while start and chunks[start - 1][0] > floor:
            start -= 1
        result = Histogram(self.buckets)
        for _, chunk in chunks[start:]:
            result.merge_from(chunk)
        return result

    # The generic instrument surface (Family conveniences, snapshots).
    @property
    def count(self):
        return self.total.count

    def snapshot(self):
        """Plain-data view: the all-time merge plus retained chunks."""
        return {
            "window_s": self.window_s,
            **self.total.snapshot(),
            "chunks": [
                {"epoch": epoch, **chunk.snapshot()}
                for epoch, chunk in self.chunks
            ],
        }


class Family:
    """All series of one metric name: one child per label combination."""

    def __init__(self, name, label_names, factory):
        self.name = name
        self.label_names = tuple(label_names)
        self._label_set = frozenset(label_names)
        self._factory = factory
        self._children = {}

    def __repr__(self):
        return (
            f"<Family {self.name} labels={self.label_names} "
            f"series={len(self._children)}>"
        )

    @property
    def kind(self):
        return self._factory.kind

    def labels(self, **labels):
        """The child instrument for this label combination."""
        if labels.keys() != self._label_set:
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple([labels[name] for name in self.label_names])
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._factory()
        return child

    def items(self):
        """(label-values tuple, instrument) pairs, sorted by labels."""
        return sorted(self._children.items(), key=lambda item: item[0])

    def __len__(self):
        return len(self._children)

    # -- conveniences so unlabeled families read naturally ----------------------
    def inc(self, amount=1, **labels):
        """Increment the series selected by ``labels``."""
        self.labels(**labels).inc(amount)

    def set(self, value, **labels):
        """Set the series selected by ``labels``."""
        self.labels(**labels).set(value)

    def observe(self, value, **labels):
        """Observe into the series selected by ``labels``."""
        self.labels(**labels).observe(value)

    def value(self, **labels):
        """Current value (0 for a never-touched series)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(labels[name] for name in self.label_names)
        child = self._children.get(key)
        return child.value if child is not None else 0

    def snapshot(self):
        """Plain-data view of every series (JSON-serialisable)."""
        return {
            "kind": self.kind,
            "labels": list(self.label_names),
            "series": [
                {
                    "labels": dict(zip(self.label_names, key)),
                    **child.snapshot(),
                }
                for key, child in self.items()
            ],
        }


class Registry:
    """Process-wide named metric families."""

    def __init__(self):
        self._families = {}

    def __repr__(self):
        return f"<Registry families={len(self._families)}>"

    def _family(self, name, label_names, factory):
        family = self._families.get(name)
        if family is not None:
            if family.kind != factory.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"not {factory.kind}"
                )
            if family.label_names != tuple(label_names):
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{family.label_names}, not {tuple(label_names)}"
                )
            return family
        family = self._families[name] = Family(name, label_names, factory)
        return family

    def counter(self, name, labels=()):
        """The counter family ``name`` (registered on first use)."""
        return self._family(name, labels, Counter)

    def gauge(self, name, labels=()):
        """The gauge family ``name`` (registered on first use)."""
        return self._family(name, labels, Gauge)

    def histogram(self, name, labels=(), buckets=DEFAULT_LATENCY_BUCKETS):
        """The histogram family ``name`` (registered on first use)."""
        factory = lambda: Histogram(buckets)  # noqa: E731
        factory.kind = Histogram.kind
        return self._family(name, labels, factory)

    def windowed_histogram(self, name, labels=(), window_s=1.0,
                           buckets=DEFAULT_LATENCY_BUCKETS):
        """The windowed-histogram family ``name`` (registered on first
        use); see :class:`WindowedHistogram`."""
        factory = lambda: WindowedHistogram(window_s, buckets)  # noqa: E731
        factory.kind = WindowedHistogram.kind
        return self._family(name, labels, factory)

    def families(self):
        """(name, family) pairs, sorted by name."""
        return sorted(self._families.items())

    def get(self, name):
        """The family named ``name``, or None."""
        return self._families.get(name)

    def snapshot(self):
        """Plain-data view of every family (JSON-serialisable)."""
        return {name: family.snapshot() for name, family in self.families()}

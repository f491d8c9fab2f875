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
from collections import deque

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

    @classmethod
    def _blank(cls, buckets):
        """A fresh empty histogram over already-validated ``buckets``
        (a sorted tuple) — skips ``__init__``'s validation, which the
        windowed slide would otherwise re-pay on every chunk, base,
        and merge result it allocates."""
        hist = cls.__new__(cls)
        hist.buckets = buckets
        hist.counts = [0] * len(buckets)
        hist.overflow = 0
        hist.count = 0
        hist.sum = 0.0
        hist.min = None
        hist.max = None
        return hist

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
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        lower_bound = 0.0
        for bound, bucket_count in zip(self.buckets, self.counts):
            if cumulative + bucket_count >= target and bucket_count > 0:
                fraction = (target - cumulative) / bucket_count
                low = max(lower_bound, self.min)
                high = min(bound, self.max)
                if high < low:
                    high = low
                return low + fraction * (high - low)
            cumulative += bucket_count
            lower_bound = bound
        # Landed in the overflow bucket.
        return self.max

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

    def _subtract(self, other):
        """Remove ``other``'s observations (counts/count/sum only).

        The inverse of :meth:`merge_from` for everything that
        subtracts exactly: bucket counts, overflow, count (ints) and
        sum (float, drift bounded by rounding).  ``min``/``max`` are
        left STALE — set union has no inverse — so callers must
        recompute extrema from whatever remains included.  Internal to
        the windowed sliding merge.
        """
        for position, bucket_count in enumerate(other.counts):
            self.counts[position] -= bucket_count
        self.overflow -= other.overflow
        self.count -= other.count
        self.sum -= other.sum

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


class _SlideState:
    """Incremental sliding-merge state for one ``windows`` width.

    Closed chunks are immutable, so their merge (``base``) advances by
    one exact integer subtraction (the chunk expiring past the floor)
    and one addition (the chunk that just closed) per step, instead of
    re-merging every included chunk.  Extrema are recomputed from the
    included chunks' scalar stats after an expiry — O(k) float
    compares, not O(k) bucket merges.
    """

    __slots__ = (
        "included", "base", "hi_epoch", "version", "live_in", "result",
        "evictions",
    )

    def __init__(self, buckets):
        #: Closed (epoch, chunk) pairs folded into ``base``, oldest
        #: first.
        self.included = deque()
        self.base = Histogram._blank(buckets)
        #: Highest closed epoch ever folded (scan cursor).
        self.hi_epoch = None
        #: :attr:`WindowedHistogram.version` when ``result`` was built.
        self.version = None
        #: Whether the live chunk was inside the window at build time.
        self.live_in = False
        self.result = None
        #: :attr:`WindowedHistogram.evictions` at last build — a
        #: mismatch means a retained chunk vanished and the state must
        #: rebuild from scratch.
        self.evictions = 0


class WindowedHistogram:
    """A streaming histogram over tumbling windows of simulated time.

    Observations land in the *current* tumbling window (a plain
    :class:`Histogram` chunk of ``window_s`` simulated seconds); closed
    chunks are retained so sliding-window queries can merge the last
    ``k`` windows (:meth:`merged`, :meth:`percentile`).  Everything is
    keyed to the registry's clock, so two runs with the same seed
    produce identical chunk sequences — windowed percentiles are as
    deterministic as the simulation itself.
    """

    __slots__ = ("clock", "window_s", "retain", "buckets", "chunks", "total",
                 "version", "evictions", "_merge_cache")
    kind = "windowed_histogram"

    def __init__(self, clock, window_s=1.0, retain=256,
                 buckets=DEFAULT_LATENCY_BUCKETS):
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.window_s = float(window_s)
        self.retain = retain
        self.buckets = tuple(buckets)
        #: (epoch, Histogram) pairs, oldest first; epochs with no
        #: observations have no chunk (they merge as empty).
        self.chunks = []
        #: All-time merge of every observation ever made, including
        #: those whose chunks have been evicted.
        self.total = Histogram(self.buckets)
        #: Bumped on every observation — the sampler-facing merge
        #: cache keys on it.
        self.version = 0
        #: Bumped whenever a retained chunk is evicted (invalidates
        #: incremental merge state built over the evicted chunk).
        self.evictions = 0
        #: windows -> :class:`_SlideState`.
        self._merge_cache = {}

    def __repr__(self):
        return (
            f"<WindowedHistogram window={self.window_s}s "
            f"chunks={len(self.chunks)} count={self.total.count}>"
        )

    def _epoch(self, now=None):
        if now is None:
            now = self.clock()
        return int(now // self.window_s)

    def observe(self, value):
        """Record one observation into the current tumbling window."""
        epoch = self._epoch()
        if not self.chunks or self.chunks[-1][0] != epoch:
            self.chunks.append((epoch, Histogram._blank(self.buckets)))
            if len(self.chunks) > self.retain:
                del self.chunks[0]
                self.evictions += 1
        self.chunks[-1][1].observe(value)
        self.total.observe(value)
        self.version += 1

    def merged(self, windows=1, now=None):
        """One mergeable :class:`Histogram` over the last ``windows``
        tumbling windows ending at the current epoch (inclusive).

        The result is cached and shared between calls — treat it as
        read-only.  A *new* object is returned exactly when the
        window's content may have changed, so callers can memoise
        derived values (percentiles) on result identity.  Internally
        the closed-chunk part of the window slides incrementally (see
        :class:`_SlideState`): each step expires one chunk by exact
        subtraction and folds in the chunk that just closed, instead of
        re-merging every chunk under the window — the sampler calls
        this every tick, so the merge must not rescan the window.
        """
        if windows < 1:
            raise ValueError(f"windows must be >= 1, got {windows}")
        floor = self._epoch(now) - windows
        chunks = self.chunks
        state = self._merge_cache.get(windows)
        if state is None:
            state = self._merge_cache[windows] = _SlideState(self.buckets)
            state.evictions = self.evictions
        included = state.included
        live_in = bool(chunks) and chunks[-1][0] > floor
        if (
            state.result is not None
            and state.version == self.version
            and state.evictions == self.evictions
            and state.live_in == live_in
            and (not included or included[0][0] > floor)
        ):
            return state.result
        base = state.base
        expired = False
        if state.evictions != self.evictions:
            # Evicted chunks left the retained list but not our refs:
            # subtract any the slide still holds (exact — the chunk
            # object is intact), so saturated retention degrades to
            # one extra subtraction per step, not a full re-merge.
            state.evictions = self.evictions
            oldest = chunks[0][0] if chunks else None
            while included and (oldest is None or included[0][0] < oldest):
                base._subtract(included.popleft()[1])
                expired = True
        # Expire closed chunks that fell below the floor (exact for
        # the integer stats; extrema recomputed below).
        while included and included[0][0] <= floor:
            base._subtract(included.popleft()[1])
            expired = True
        # Fold in chunks that closed since the last build.  The live
        # chunk (chunks[-1]) never enters the base: it is still
        # mutable, so it merges fresh into every result instead.
        hi = state.hi_epoch
        fold = []
        for index in range(len(chunks) - 2, -1, -1):
            pair = chunks[index]
            epoch = pair[0]
            if epoch <= floor or (hi is not None and epoch <= hi):
                break
            fold.append(pair)
        if fold:
            state.hi_epoch = fold[0][0]
            for pair in reversed(fold):
                included.append(pair)
                base.merge_from(pair[1])
        if expired:
            # Subtraction cannot shrink extrema: rebuild them from the
            # included chunks' scalar stats (O(k) compares).
            base.min = base.max = None
            for _, chunk in included:
                if chunk.min is not None and (
                    base.min is None or chunk.min < base.min
                ):
                    base.min = chunk.min
                if chunk.max is not None and (
                    base.max is None or chunk.max > base.max
                ):
                    base.max = chunk.max
        result = Histogram._blank(self.buckets)
        result.counts = list(base.counts)
        result.overflow = base.overflow
        result.count = base.count
        result.sum = base.sum
        result.min = base.min
        result.max = base.max
        if live_in:
            result.merge_from(chunks[-1][1])
        state.version = self.version
        state.live_in = live_in
        state.result = result
        return result

    def percentile(self, q, windows=1, now=None):
        """Sliding-window q-quantile (None if the window is empty)."""
        return self.merged(windows, now=now).percentile(q)

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


class _WindowedFactory:
    """Makes one family's :class:`WindowedHistogram` children."""

    kind = WindowedHistogram.kind

    def __init__(self, clock, window_s, buckets):
        self.clock = clock
        self.window_s = window_s
        self.buckets = buckets

    def __call__(self):
        return WindowedHistogram(
            self.clock, window_s=self.window_s, buckets=self.buckets
        )


class Registry:
    """Process-wide named metric families."""

    def __init__(self, clock=None):
        self._families = {}
        #: Time source for windowed instruments (the sim engine's
        #: :meth:`~repro.sim.engine.Engine.clock` in a live world).
        self.clock = clock

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
        use).  Children tumble on the registry clock; see
        :class:`WindowedHistogram`."""
        return self._family(
            name, labels, _WindowedFactory(self.clock, window_s, buckets)
        )

    def set_clock(self, clock):
        """Re-point the registry and its windowed instruments at ``clock``
        (a world that ends swaps its engine's clock for a stopped one)."""
        self.clock = clock
        for family in self._families.values():
            factory = family._factory
            if isinstance(factory, _WindowedFactory):
                factory.clock = clock
                for _, child in family.items():
                    child.clock = clock

    def families(self):
        """(name, family) pairs, sorted by name."""
        return sorted(self._families.items())

    def get(self, name):
        """The family named ``name``, or None."""
        return self._families.get(name)

    def snapshot(self):
        """Plain-data view of every family (JSON-serialisable)."""
        return {name: family.snapshot() for name, family in self.families()}

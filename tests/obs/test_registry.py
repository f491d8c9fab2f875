"""Registry semantics: bucket edges, percentiles, label cardinality."""

import pytest

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    Registry,
    nearest_rank,
)


def test_nearest_rank_reads_the_raw_values():
    values = [0.1, 0.2, 0.3, 0.4]
    assert nearest_rank([], 0.5) is None
    assert nearest_rank(values, 0.0) == 0.1
    assert nearest_rank(values, 0.5) == 0.3
    assert nearest_rank(values, 0.99) == 0.4
    assert nearest_rank(values, 1.0) == 0.4  # clamped to the last rank


# -- histogram bucket edges --------------------------------------------------------
def test_value_equal_to_bound_falls_in_that_bucket():
    # Prometheus ``le`` semantics: value <= bound.
    hist = Histogram(buckets=(1.0, 2.0))
    hist.observe(1.0)
    assert hist.counts == [1, 0]
    hist.observe(1.0000001)
    assert hist.counts == [1, 1]
    hist.observe(2.0)
    assert hist.counts == [1, 2]


def test_values_beyond_the_last_bound_land_in_overflow():
    hist = Histogram(buckets=(1.0, 2.0))
    hist.observe(2.5)
    assert hist.counts == [0, 0]
    assert hist.overflow == 1
    assert hist.percentile(0.5) == 2.5  # overflow percentile clamps to max


def test_histogram_tracks_count_sum_min_max():
    hist = Histogram(buckets=(10.0,))
    for value in (1.0, 3.0, 2.0):
        hist.observe(value)
    assert hist.count == 3
    assert hist.sum == pytest.approx(6.0)
    assert (hist.min, hist.max) == (1.0, 3.0)
    assert hist.mean == pytest.approx(2.0)


def test_histogram_rejects_bad_bucket_specs():
    with pytest.raises(ValueError):
        Histogram(buckets=())
    with pytest.raises(ValueError):
        Histogram(buckets=(2.0, 1.0))


def test_percentiles_read_several_quantiles_in_one_scan():
    assert Histogram().percentiles((0.5, 0.99)) == (None, None)
    hist = Histogram(buckets=(1.0, 2.0))
    for value in (0.5, 5.0, 6.0):
        hist.observe(value)
    # 0.2 interpolates inside the first bucket; the rest overflow.
    low, mid, high = hist.percentiles((0.2, 0.5, 0.99))
    assert low == pytest.approx(0.8)
    assert (mid, high) == (6.0, 6.0)
    assert hist.percentile(0.2) == low


def test_percentile_never_leaves_the_winning_bucket():
    # Extrema that contradict the bucket counts (a hand-edited saved
    # trace) collapse the estimate onto the bucket's lower bound.
    hist = Histogram.from_snapshot({
        "buckets": [1.0, 2.0], "counts": [0, 2], "overflow": 0,
        "count": 2, "sum": 1.0, "min": 0.4, "max": 0.6,
    })
    assert hist.percentiles((0.5, 1.0)) == (1.0, 1.0)


def test_percentile_of_empty_histogram_is_none():
    hist = Histogram()
    assert hist.percentile(0.5) is None
    assert hist.mean is None


def test_percentile_clamps_to_observed_range():
    # One observation: every percentile is exactly that value, however
    # wide the winning bucket is.
    hist = Histogram(buckets=(1.0,))
    hist.observe(0.115)
    assert hist.percentile(0.01) == pytest.approx(0.115)
    assert hist.percentile(0.50) == pytest.approx(0.115)
    assert hist.percentile(0.99) == pytest.approx(0.115)


def test_percentile_interpolates_inside_bucket():
    hist = Histogram(buckets=(1.0, 2.0))
    for value in (1.2, 1.4, 1.6, 1.8):
        hist.observe(value)
    p50 = hist.percentile(0.5)
    assert 1.2 <= p50 <= 1.8
    assert hist.percentile(0.95) <= 1.8


def test_snapshot_round_trips_percentiles():
    hist = Histogram(buckets=DEFAULT_LATENCY_BUCKETS)
    for value in (0.04, 0.115, 0.118, 0.9):
        hist.observe(value)
    clone = Histogram.from_snapshot(hist.snapshot())
    for q in (0.5, 0.95, 0.99):
        assert clone.percentile(q) == hist.percentile(q)
    assert clone.mean == hist.mean


# -- families and labels ----------------------------------------------------------
def test_label_cardinality_one_series_per_combination():
    registry = Registry()
    faults = registry.counter("faults_total", labels=("kind",))
    faults.inc(2, kind="imaginary")
    faults.inc(1, kind="imaginary")
    faults.inc(5, kind="disk")
    assert len(faults) == 2
    assert faults.value(kind="imaginary") == 3
    assert faults.value(kind="disk") == 5
    assert faults.value(kind="fill-zero") == 0  # untouched series reads 0
    assert len(faults) == 2  # ... and reading one does not create it


def test_items_are_sorted_by_label_values():
    registry = Registry()
    bytes_family = registry.counter("link_bytes", labels=("category",))
    for category in ("zeta", "alpha", "mid"):
        bytes_family.inc(1, category=category)
    assert [key for key, _ in bytes_family.items()] == [
        ("alpha",), ("mid",), ("zeta",),
    ]


def test_wrong_label_names_are_rejected():
    registry = Registry()
    faults = registry.counter("faults_total", labels=("kind",))
    with pytest.raises(ValueError):
        faults.inc(1, flavour="imaginary")
    with pytest.raises(ValueError):
        faults.inc(1)
    with pytest.raises(ValueError):
        faults.value(kind="x", extra="y")


def test_reregistering_with_different_kind_or_labels_fails():
    registry = Registry()
    registry.counter("faults_total", labels=("kind",))
    with pytest.raises(ValueError):
        registry.gauge("faults_total", labels=("kind",))
    with pytest.raises(ValueError):
        registry.counter("faults_total", labels=("host",))
    # Same kind + labels returns the existing family.
    again = registry.counter("faults_total", labels=("kind",))
    assert again is registry.get("faults_total")


def test_counter_rejects_negative_increments():
    registry = Registry()
    counter = registry.counter("messages_total")
    with pytest.raises(ValueError):
        counter.inc(-1)
    counter.inc(3)
    assert counter.value() == 3


def test_gauge_goes_up_and_down():
    registry = Registry()
    gauge = registry.gauge("queue_depth", labels=("host",))
    gauge.set(4, host="alpha")
    gauge.inc(-1, host="alpha")
    assert gauge.labels(host="alpha").value == 3


def test_registry_snapshot_is_json_shaped():
    import json

    registry = Registry()
    registry.counter("faults_total", labels=("kind",)).inc(1, kind="disk")
    registry.histogram("imag_fault_seconds").observe(0.115)
    snap = registry.snapshot()
    assert json.loads(json.dumps(snap)) == snap
    assert snap["faults_total"]["series"][0]["labels"] == {"kind": "disk"}
    assert snap["imag_fault_seconds"]["kind"] == "histogram"


def test_registry_and_family_reprs_count_their_contents():
    registry = Registry()
    family = registry.counter("faults_total", labels=("kind",))
    family.inc(1, kind="disk")
    family.inc(1, kind="imaginary")
    assert repr(registry) == "<Registry families=1>"
    assert repr(family) == "<Family faults_total labels=('kind',) series=2>"

"""Continuous telemetry: windowed histograms, the sampler, SLOs."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accent.constants import PAGE_SIZE
from repro.cluster import StressConfig, run_stress
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Instrumentation,
    build_chrome,
    load_chrome,
)
from repro.obs.registry import (
    RETAIN_CHUNKS,
    Histogram,
    Registry,
    WindowedHistogram,
)
from repro.obs.slo import SLO, SLOEngine, SLOError, load_slos, parse_slos
from repro.obs.telemetry import (
    DEFAULT_SAMPLE_PERIOD,
    SERVING_LATENCY_BUCKETS,
    Telemetry,
    check_sample_period,
)
from repro.testbed import Testbed

SLO_FREEZE = Path(__file__).parents[2] / "examples" / "slo-freeze.json"


# -- mergeable fixed-bucket histograms ---------------------------------------------
def test_merge_from_sums_counts_and_unions_extrema():
    left = Histogram(buckets=(1.0, 2.0))
    right = Histogram(buckets=(1.0, 2.0))
    left.observe(0.5)
    right.observe(1.5)
    right.observe(9.0)  # overflow
    left.merge_from(right)
    assert left.count == 3
    assert left.counts == [1, 1]
    assert left.overflow == 1
    assert (left.min, left.max) == (0.5, 9.0)


def test_merge_from_rejects_different_buckets():
    with pytest.raises(ValueError):
        Histogram(buckets=(1.0,)).merge_from(Histogram(buckets=(2.0,)))


def test_merge_from_empty_histogram_is_identity():
    hist = Histogram(buckets=(1.0,))
    hist.observe(0.5)
    before = hist.snapshot()
    hist.merge_from(Histogram(buckets=(1.0,)))
    assert hist.snapshot() == before


def test_count_above_resolves_on_bucket_bounds():
    hist = Histogram(buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 3.0, 9.0):
        hist.observe(value)
    assert hist.count_above(1.0) == 3
    assert hist.count_above(2.0) == 2
    assert hist.count_above(4.0) == 1  # only the overflow observation
    assert Histogram().count_above(1.0) == 0


# -- windowed histograms -----------------------------------------------------------
def test_windowed_histogram_tumbles_on_the_clock():
    hist = WindowedHistogram(window_s=1.0, buckets=(1.0, 5.0))
    hist.observe(0.5, 0.0)
    hist.observe(3.0, 1.2)  # next epoch
    assert len(hist.chunks) == 2
    # The 1-window view sees only the current epoch.
    assert hist.merged(1, 1.2).count == 1
    assert hist.merged(2, 1.2).count == 2
    assert hist.total.count == 2


def test_windowed_percentile_slides_over_k_chunks():
    hist = WindowedHistogram(window_s=1.0, buckets=(1.0, 5.0))
    hist.observe(4.0, 0.0)
    hist.observe(0.2, 1.0)
    # Current epoch alone: only the small value.
    assert hist.merged(1, 1.0).percentile(0.99) <= 1.0
    # Two-window slide includes the old large value.
    assert hist.merged(2, 1.0).percentile(0.99) > 1.0
    # Once time moves past the retained window the old chunk ages out.
    assert hist.merged(2, 5.0).percentile(0.99) is None


def test_windowed_histogram_evicts_beyond_retain():
    hist = WindowedHistogram(window_s=1.0, buckets=(1.0,))
    epochs = RETAIN_CHUNKS + 2
    for epoch in range(epochs):
        hist.observe(0.5, float(epoch))
    assert len(hist.chunks) == RETAIN_CHUNKS
    assert hist.chunks[0][0] == 2  # the two oldest chunks were dropped
    assert hist.total.count == epochs  # the all-time merge never evicts
    # A window wider than what is retained merges what is left.
    assert hist.merged(epochs, epochs - 1.0).count == RETAIN_CHUNKS


def test_windowed_merge_rejects_an_empty_window():
    hist = WindowedHistogram(window_s=1.0)
    with pytest.raises(ValueError):
        hist.merged(0, 0.0)
    with pytest.raises(ValueError):
        WindowedHistogram(window_s=0.0)
    assert repr(hist) == "<WindowedHistogram window=1.0s chunks=0 count=0>"


def test_registry_windowed_family_keeps_label_sets_isolated():
    registry = Registry()
    family = registry.windowed_histogram(
        "wait_windowed", labels=("host",), window_s=1.0, buckets=(1.0,)
    )
    family.labels(host="alpha").observe(0.5, 0.0)
    family.labels(host="beta").observe(0.7, 0.0)
    family.labels(host="alpha").observe(0.9, 0.0)
    assert family.labels(host="alpha").count == 2
    assert family.labels(host="beta").count == 1
    snap = family.snapshot()
    assert snap["kind"] == "windowed_histogram"
    assert [series["labels"] for series in snap["series"]] == [
        {"host": "alpha"}, {"host": "beta"},
    ]


@settings(max_examples=200, deadline=None)
@given(
    observations=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=40.0),
            st.floats(min_value=0.0, max_value=8.0),
        ),
        max_size=60,
    ),
    window_s=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    windows=st.integers(min_value=1, max_value=12),
    lag=st.floats(min_value=0.0, max_value=10.0),
)
def test_windowed_merge_matches_the_raw_observations(
    observations, window_s, windows, lag
):
    """``merged(k, now)`` holds exactly the observations whose tumbling
    window is one of the last ``k`` up to the one ``now`` falls in."""
    buckets = (0.5, 1.0, 2.0, 4.0)
    observations.sort(key=lambda pair: pair[0])
    hist = WindowedHistogram(window_s=window_s, buckets=buckets)
    for when, value in observations:
        hist.observe(value, when)
    now = (observations[-1][0] if observations else 0.0) + lag
    floor = int(now // window_s) - windows
    expected = Histogram(buckets)
    for when, value in observations:
        if int(when // window_s) > floor:
            expected.observe(value)
    merged = hist.merged(windows, now)
    assert merged.counts == expected.counts
    assert merged.overflow == expected.overflow
    assert merged.count == expected.count
    assert (merged.min, merged.max) == (expected.min, expected.max)
    assert merged.sum == pytest.approx(expected.sum)


# -- SLO specs ---------------------------------------------------------------------
def test_parse_slos_accepts_document_or_bare_list():
    entry = {"name": "a", "metric": "m", "threshold": 1.0}
    assert len(parse_slos([entry])) == 1
    assert len(parse_slos({"slos": [entry]})) == 1


def test_percentile_objective_doubles_as_default_budget():
    slo = SLO("a", "m", 1.0, objective="p99")
    assert slo.budget == pytest.approx(0.01)
    explicit = SLO("b", "m", 1.0, objective="p99", budget=0.1)
    assert explicit.budget == pytest.approx(0.1)
    assert SLO("c", "m", 1.0, objective="value").budget is None


@pytest.mark.parametrize("bad", [
    {"metric": "m", "threshold": 1.0},                      # missing name
    {"name": "a", "threshold": 1.0},                        # missing metric
    {"name": "a", "metric": "m"},                           # missing threshold
    {"name": "a", "metric": "m", "threshold": 0},           # bad threshold
    {"name": "a", "metric": "m", "threshold": 1, "objective": "p42"},
    {"name": "a", "metric": "m", "threshold": 1, "budget": 2.0},
    {"name": "a", "metric": "m", "threshold": 1, "windowe": 5},  # unknown key
    {"name": "a", "metric": "m", "threshold": 1, "window_s": 0},
])
def test_parse_slos_rejects_malformed_entries(bad):
    with pytest.raises(SLOError):
        parse_slos([bad])


@pytest.mark.parametrize("bad", [
    {"objectives": []},   # an object without a "slos" list
    {"slos": "freeze"},   # "slos" is not a list
    "freeze",             # neither an object nor a list
    [5],                  # an entry that is not an object
])
def test_parse_slos_rejects_malformed_documents(bad):
    with pytest.raises(SLOError):
        parse_slos(bad)


def test_load_slos_reads_a_spec_file(tmp_path):
    path = tmp_path / "slo.json"
    entry = {"name": "a", "metric": "m", "threshold": 1.0}
    path.write_text(json.dumps({"slos": [entry]}), encoding="utf-8")
    data, (slo,) = load_slos(str(path))
    assert data == {"slos": [entry]}
    assert repr(slo) == "<SLO a m:p99 <= 1.0>"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SLOError, match="not valid JSON"):
        load_slos(str(path))


def test_parse_slos_rejects_duplicate_names():
    entry = {"name": "a", "metric": "m", "threshold": 1.0}
    with pytest.raises(SLOError):
        parse_slos([entry, dict(entry)])


def test_slo_round_trips_through_to_dict():
    slo = SLO("a", "m", 2.0, objective="p95", window_s=7.0, budget=0.2)
    (back,) = parse_slos([slo.to_dict()])
    assert back.to_dict() == slo.to_dict()


# -- the burn-rate engine ----------------------------------------------------------
def _distribution_window(values, buckets=(1.0, 2.0, 4.0)):
    hist = Histogram(buckets=buckets)
    for value in values:
        hist.observe(value)
    return hist


def test_burn_rate_is_bad_fraction_over_budget():
    slo = SLO("freeze", "migration.freeze", 2.0, objective="p99",
              budget=0.1)
    window = _distribution_window([0.5] * 8 + [3.0, 3.0])  # 20% bad
    burn, _ = slo.evaluate(window, None)
    assert burn == pytest.approx(2.0)
    assert slo.evaluate(None, None) == (0.0, None)  # empty window: no burn


def test_mean_objective_burns_as_mean_over_threshold():
    slo = SLO("mean", "migration.freeze", 2.0, objective="mean")
    assert slo.budget is None
    burn, value = slo.evaluate(_distribution_window([1.0, 3.0, 5.0]), None)
    assert value == pytest.approx(3.0)
    assert burn == pytest.approx(1.5)
    assert slo.evaluate(Histogram(), None) == (0.0, None)


def test_gauge_objective_burns_as_value_over_threshold():
    slo = SLO("queue", "scheduler.queued", 4.0, objective="value")
    assert slo.evaluate(None, 8.0)[0] == pytest.approx(2.0)
    assert slo.evaluate(None, None) == (0.0, None)


def test_engine_opens_and_closes_violation_spans():
    obs = Instrumentation(clock=lambda: 0.0, enabled=True)
    slo = SLO("queue", "scheduler.queued", 2.0, objective="value",
              window_s=1.0)
    engine = SLOEngine([slo], obs)
    gauge = {"value": 5.0}
    burns = engine.evaluate(
        1.0, lambda s: None, lambda s: gauge["value"]
    )
    assert burns["queue"] == pytest.approx(2.5)
    assert [event["type"] for event in engine.events] == ["slo.violation"]
    gauge["value"] = 1.0
    engine.evaluate(2.0, lambda s: None, lambda s: gauge["value"])
    kinds = [event["type"] for event in engine.events]
    assert kinds == ["slo.violation", "slo.recovered"]
    assert engine.events[1]["peak_burn_rate"] == pytest.approx(2.5)
    (root,) = [r for r in obs.tracer.roots if r.name == "slo.violation"]
    assert root.attrs["burn_rate"] == pytest.approx(2.5)
    assert root.end == 2.0
    assert [child.name for child in root.children] == ["slo.recovered"]


def test_peak_burn_rate_tracks_the_worst_tick_of_a_violation():
    obs = Instrumentation(clock=lambda: 0.0, enabled=True)
    slo = SLO("queue", "scheduler.queued", 2.0, objective="value")
    engine = SLOEngine([slo], obs)
    assert repr(engine) == "<SLOEngine slos=1 events=0>"
    for now, value in ((1.0, 3.0), (2.0, 8.0), (3.0, 4.0), (4.0, 1.0)):
        engine.evaluate(now, lambda s: None, lambda s, v=value: v)
    assert [event["type"] for event in engine.events] == [
        "slo.violation", "slo.recovered",
    ]
    assert engine.events[1]["peak_burn_rate"] == pytest.approx(4.0)
    (root,) = obs.tracer.roots
    assert root.attrs["burn_rate"] == pytest.approx(4.0)


def test_slo_engine_without_tracing_records_events_only():
    obs = Instrumentation(clock=lambda: 0.0, enabled=False)
    slos = [SLO("a", "scheduler.queued", 1.0, objective="value"),
            SLO("b", "scheduler.inflight", 1.0, objective="value")]
    engine = SLOEngine(slos, obs)
    gauges = {"scheduler.queued": 3.0, "scheduler.inflight": 3.0}
    engine.evaluate(1.0, lambda s: None, lambda s: gauges[s.metric])
    gauges["scheduler.queued"] = 0.0
    engine.evaluate(2.0, lambda s: None, lambda s: gauges[s.metric])
    engine.finalize(3.0)  # "b" is still violated at the end
    assert [(event["type"], event["slo"]) for event in engine.events] == [
        ("slo.violation", "a"), ("slo.violation", "b"),
        ("slo.recovered", "a"),
    ]
    assert obs.tracer.roots == []


def test_untraced_stress_run_evaluates_slos():
    """``repro stress --slo`` without ``--trace``: violations open and
    close on the disabled tracer's null span."""
    spec, _ = load_slos(str(SLO_FREEZE))
    config = StressConfig(hosts=4, procs=8, seed=7, slo=spec["slos"])
    telemetry = run_stress(config).obs.telemetry
    kinds = [event["type"] for event in telemetry.slo_engine.events]
    assert kinds == ["slo.violation", "slo.recovered"]
    assert any(telemetry.series["slo.freeze-p99.burn"])


def test_finalize_marks_still_open_violations():
    obs = Instrumentation(clock=lambda: 0.0, enabled=True)
    slo = SLO("queue", "scheduler.queued", 1.0, objective="value")
    engine = SLOEngine([slo], obs)
    engine.evaluate(1.0, lambda s: None, lambda s: 3.0)
    engine.finalize(4.0)
    (root,) = obs.tracer.roots
    assert root.attrs["open_at_exit"] is True
    assert root.end == 4.0
    # Recovery never happened, so no slo.recovered child exists.
    assert root.children == []


# -- the sampler -------------------------------------------------------------------
def test_sampled_migration_records_aligned_series():
    bed = Testbed(seed=11, instrument=True, sample_period=0.5)
    result = bed.migrate("minprog")
    telemetry = result.obs.telemetry
    assert telemetry is not None
    assert len(telemetry.times) > 2
    # Tick serials are engine-stable and strictly increasing.
    assert telemetry.ticks == sorted(telemetry.ticks)
    depth = len(telemetry.times)
    for name, column in telemetry.series.items():
        assert len(column) == depth, name
    # Host gauges exist for both testbed hosts.
    assert "host.alpha.resident_pages" in telemetry.series
    assert "host.beta.resident_pages" in telemetry.series
    assert "link.ether.inflight" in telemetry.series
    # The fault-service ribbon appears once remote execution faults.
    assert "fault.service.p99" in telemetry.series


def test_owed_page_tally_equals_the_walk_at_every_tick(monkeypatch):
    """Each host's owed-pages gauge reads its kernel's running tally; at
    every tick of a sampled stress run the tally equals the sum over
    the kernel's processes that the sampler used to walk."""
    seen = []
    sample_host = Telemetry._sample_host

    def sample(telemetry, entry):
        kernel = entry[2]
        walk = sum(process.space.imaginary_bytes // PAGE_SIZE
                   for process in kernel.processes.values())
        seen.append((kernel.owed_pages(), walk))
        sample_host(telemetry, entry)

    monkeypatch.setattr(Telemetry, "_sample_host", sample)
    run_stress(StressConfig(hosts=4, procs=12, seed=3, sample_period=0.1))
    assert len(seen) > 100
    assert max(owed for owed, _ in seen) > 0
    assert [owed for owed, _ in seen] == [walk for _, walk in seen]


def test_slos_alone_imply_default_sampling():
    slos = parse_slos([
        {"name": "q", "metric": "scheduler.queued", "objective": "value",
         "threshold": 100.0},
    ])
    bed = Testbed(seed=11, instrument=True, slos=slos)
    result = bed.migrate("minprog")
    telemetry = result.obs.telemetry
    assert telemetry is not None
    assert telemetry.period == pytest.approx(DEFAULT_SAMPLE_PERIOD)
    assert telemetry.slo_engine is not None


def test_stop_takes_a_final_flush_sample():
    bed = Testbed(seed=11, sample_period=10_000.0)
    world = bed.world()
    telemetry = world.obs.telemetry

    def tick():
        yield world.engine.timeout(3.0)

    world.engine.run(until=world.engine.process(tick()))
    assert telemetry.times == []  # period never elapsed
    world.stop_telemetry()
    assert telemetry.times == [3.0]
    world.engine.run()  # the pending timeout drains without sampling again
    assert telemetry.times == [3.0]


def test_new_metrics_get_their_own_window_and_ribbon():
    world = Testbed(seed=11, sample_period=0.5).world()
    telemetry = world.obs.telemetry
    assert repr(telemetry) == "<Telemetry period=0.5s ticks=0 series=%d>" % (
        len(telemetry.series)
    )
    telemetry.observe("request.latency.kv", 0.003)
    telemetry.observe("hop.extra", 0.05)
    family = world.obs.registry.get("request_latency_kv_windowed")
    assert family.labels().buckets == SERVING_LATENCY_BUCKETS
    assert world.obs.registry.get("hop_extra_windowed").labels().buckets == (
        DEFAULT_LATENCY_BUCKETS
    )
    telemetry.sample()
    assert telemetry.series["request.latency.kv.p50"] == [0.003]
    assert telemetry.series["hop.extra.p999"] == [0.05]
    telemetry.stop()
    telemetry.stop()  # idempotent
    assert len(telemetry.times) == 1


def test_slo_on_an_unfed_distribution_never_burns():
    slos = parse_slos([
        {"name": "latency", "metric": "request.latency", "threshold": 1.0},
    ])
    result = Testbed(seed=11, sample_period=0.5, slos=slos).migrate("minprog")
    telemetry = result.obs.telemetry
    assert result.obs.registry.get("request_latency_windowed") is None
    burns = telemetry.series["slo.latency.burn"]
    assert len(burns) == len(telemetry.times) and set(burns) == {0.0}


def test_sample_period_must_be_positive():
    check_sample_period(0.0)  # 0 turns sampling off
    with pytest.raises(ValueError):
        check_sample_period(-1.0)
    world = Testbed(seed=11).world()
    with pytest.raises(ValueError):
        Telemetry(world.obs, world.engine, period=0.0)


def test_unsampled_world_has_no_telemetry_families():
    # The windowed families are created by Telemetry alone, so a
    # sampling-free registry snapshot is unchanged from the seed.
    bed = Testbed(seed=11, instrument=True)
    result = bed.migrate("minprog")
    assert result.obs.telemetry is None
    names = [name for name, _ in result.obs.registry.families()]
    assert not any("windowed" in name for name in names)


# -- export round trip -------------------------------------------------------------
def test_telemetry_rides_the_chrome_trace_and_loads_back(tmp_path):
    config = StressConfig(
        hosts=3, procs=4, seed=21, sample_period=0.5,
        slo=[{"name": "q", "metric": "scheduler.queued",
              "objective": "value", "threshold": 1.0, "window_s": 2.0}],
    )
    result = run_stress(config, instrument=True)
    trace = build_chrome([("stress", result.obs)])
    (meta,) = trace["repro"]["runs"]
    assert meta["telemetry"] == result.obs.telemetry.snapshot()
    # JSON-serialisable end to end.
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace), encoding="utf-8")
    (run,) = load_chrome(str(path))
    assert run.telemetry["series"]["scheduler.inflight"]
    assert run.telemetry["slo"]["specs"][0]["name"] == "q"


def test_unsampled_trace_carries_no_telemetry_key():
    result = Testbed(seed=11, instrument=True).migrate("minprog")
    trace = build_chrome([("migrate", result.obs)])
    (meta,) = trace["repro"]["runs"]
    assert "telemetry" not in meta


def test_stress_config_hash_input_omits_default_telemetry():
    assert "sample_period" not in StressConfig(seed=1).to_dict()
    assert "slo" not in StressConfig(seed=1).to_dict()
    sampled = StressConfig(seed=1, sample_period=0.5, slo=[
        {"name": "q", "metric": "scheduler.queued", "objective": "value",
         "threshold": 1.0},
    ])
    data = sampled.to_dict()
    assert data["sample_period"] == 0.5
    assert data["slo"][0]["name"] == "q"


def test_scheduler_feeds_wait_and_freeze_windows():
    config = StressConfig(hosts=3, procs=4, seed=21, sample_period=0.5)
    result = run_stress(config)
    telemetry = result.obs.telemetry
    assert "migration.freeze.p99" in telemetry.series
    assert "scheduler.wait.p99" in telemetry.series
    assert any(
        value is not None
        for value in telemetry.series["migration.freeze.p99"]
    )
    # Per-host scheduler depths rode along.
    assert "host.node00.inflight" in telemetry.series

"""Engine-throughput baseline: how many events/s does dispatch sustain?

Events/s per stress shape is the engine's end-to-end number: an engine
change is judged against the committed baseline, and the profiled cost
centers say where to cut.  This benchmark runs the seeded stress
harness across several shapes — small, wide (many hosts), deep (many
processes per host), and serving-heavy — measuring host events/s for
each with the engine's own ``wall_s`` dispatch clock (two
``perf_counter`` reads per ``run()`` call, nothing per event), then
repeats the reference shape under the
:class:`~repro.obs.prof.EngineProfiler` to record the top-5
profiler-attributed cost centers.  The artifact lands in
``BENCH_engine_throughput.json`` at the repo root; CI re-runs the bench
through ``benchmarks.gate`` and **fails** on a >10% events/s drop on
any shape against the committed file (and, unconditionally, on any
determinism-hash divergence).  Host timing is machine-dependent but a
10% tolerance absorbs runner noise; the two-lane queue work showed real
regressions land well past it.

Gate a fresh run against the committed artifact (and rewrite it)::

    PYTHONPATH=src python -m benchmarks.gate engine_throughput

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_throughput.py
"""

from repro.cluster import StressConfig, run_stress
from repro.obs.prof import EngineProfiler, profiled

SEED = 7
#: Repeats per shape; the best run is reported (throughput is a
#: capability number — slower repeats measure host noise, not the code).
REPEATS = 3
#: The stress shapes swept.  ``reference`` is the profiled shape and the
#: one the events/s regression guard reads.
SHAPES = (
    ("small", dict(hosts=4, procs=8)),
    ("reference", dict(hosts=16, procs=64)),
    ("wide", dict(hosts=32, procs=64)),
    ("batched", dict(hosts=16, procs=64, strategy="adaptive",
                     batch=8, pipeline=4)),
    ("serving", dict(hosts=4, procs=3, services=("kv", "matmul", "stream"),
                     clients_per_service=2, requests_per_client=40)),
)
PROFILED_SHAPE = "reference"
TOP_CENTERS = 5

#: The rules ``python -m benchmarks.gate engine_throughput`` enforces.
GATE = {
    "title": "Engine throughput (seed {seed}, best of {repeats})",
    "key": ("shape",),
    "exact": ("rows.*.determinism_hash",),
    "tolerance": {"rows.*.events_per_s": "fall"},
    "targets": (("rows.*.verified", "==", True),),
    "tables": {
        "rows": ("shape", "events_dispatched", "events_per_s"),
        "profile": (
            "coverage", "peak_queue_depth", "queue_lanes.near.peak_depth",
            "queue_lanes.far.peak_depth", "queue_lanes.far.rolls",
        ),
        "profile.top_cost_centers": (
            "subsystem", "handler", "event", "count", "share",
        ),
    },
}


def run_shape(kwargs):
    """Best-of-N events/s for one stress shape.

    The engine's ``wall_s`` counts only dispatch-loop time, so the
    events/s figure excludes world construction and result packing.
    """
    best = None
    for _ in range(REPEATS):
        config = StressConfig(seed=SEED, **kwargs)
        if kwargs.get("services"):
            from repro.serve import run_serve

            result = run_serve(config)
        else:
            result = run_stress(config)
        engine = result.obs._engine
        events = engine.dispatched
        wall_s = engine.wall_s
        rate = events / wall_s if wall_s > 0 else 0.0
        row = {
            "events_dispatched": events,
            "engine_wall_s": round(wall_s, 6),
            "events_per_s": round(rate, 1),
            "verified": result.verified,
            "determinism_hash": result.determinism_hash,
        }
        if best is None or row["events_per_s"] > best["events_per_s"]:
            best = row
    return best


def profile_shape(kwargs):
    """Top cost centers for one shape under the engine profiler."""
    profiler = EngineProfiler()
    with profiled(profiler):
        config = StressConfig(seed=SEED, **kwargs)
        run_stress(config)
    report = profiler.report()
    # The profiler's own bookkeeping row is excluded from the top-N:
    # the baseline records what the *engine* spends its time on.  Its
    # share is reported separately so the overhead stays visible.
    engine_rows = [
        row for row in report["cost_centers"]
        if row["subsystem"] != "profiler"
    ]
    overhead = sum(
        row["self_s"] for row in report["cost_centers"]
        if row["subsystem"] == "profiler"
    )
    centers = [
        {
            "subsystem": row["subsystem"],
            "handler": row["handler"],
            "event": row["event"],
            "count": row["count"],
            "self_s": round(row["self_s"], 6),
            "share": round(row["share"], 4),
            "alloc_blocks": row["alloc_blocks"],
        }
        for row in engine_rows[:TOP_CENTERS]
    ]
    queue = report["queue"]

    def lane(stats):
        row = {
            "pushes": stats["pushes"],
            "push_s": round(stats["push_s"], 6),
            "pops": stats["pops"],
            "pop_s": round(stats["pop_s"], 6),
            "peak_depth": stats["peak_depth"],
        }
        if "rolls" in stats:
            row["rolls"] = stats["rolls"]
        return row

    return {
        "coverage": round(report["coverage"], 4),
        "profiler_overhead_share": round(
            overhead / report["engine_wall_s"], 4
        ) if report["engine_wall_s"] else 0.0,
        "peak_queue_depth": queue["peak_depth"],
        "queue_push_s": round(queue["push_s"], 6),
        "queue_pop_s": round(queue["pop_s"], 6),
        "queue_skipped": queue["skipped"],
        "queue_lanes": {
            "near": lane(queue["near"]),
            "far": lane(queue["far"]),
        },
        "top_cost_centers": centers,
    }


def measure():
    """The artifact dict: one row per shape + the profiled reference."""
    rows = []
    for name, kwargs in SHAPES:
        row = run_shape(kwargs)
        row["shape"] = name
        row["config"] = {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in kwargs.items()
        }
        rows.append(row)
    profiled_kwargs = dict(SHAPES)[PROFILED_SHAPE]
    return {
        "seed": SEED,
        "repeats": REPEATS,
        "rows": rows,
        "profiled_shape": PROFILED_SHAPE,
        "profile": profile_shape(profiled_kwargs),
    }


def test_shapes_dispatch_and_verify():
    """Every shape runs verified and the dispatch clock ticks."""
    for _, kwargs in SHAPES:
        row = run_shape(kwargs)
        assert row["verified"]
        assert row["events_dispatched"] > 0
        assert row["events_per_s"] > 0


def test_profiler_attributes_reference_shape():
    """The profiled reference shape attributes ≥95% of wall time."""
    profile = profile_shape(dict(SHAPES)[PROFILED_SHAPE])
    assert profile["coverage"] >= 0.95
    assert len(profile["top_cost_centers"]) == TOP_CENTERS
    lanes = profile["queue_lanes"]
    # Every dispatch is a near-lane pop; far-lane pops happen in rolls.
    assert lanes["near"]["pops"] > 0
    assert lanes["far"]["rolls"] > 0
    assert lanes["far"]["pops"] <= lanes["far"]["pushes"]
    assert profile["peak_queue_depth"] >= max(
        lanes["near"]["peak_depth"], lanes["far"]["peak_depth"]
    )

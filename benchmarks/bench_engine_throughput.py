"""Engine-throughput baseline: how many events/s does dispatch sustain?

Events/s per stress shape is the engine's end-to-end number: an engine
change is judged against the committed baseline, and the sampled
profile says where to cut.  This benchmark runs the seeded stress
harness across several shapes — small, wide (many hosts), deep (many
processes per host), and serving-heavy — measuring host events/s for
each with the engine's own ``wall_s`` dispatch clock (two
``perf_counter`` reads per ``run()`` call, nothing per event), then
repeats the reference shape in alternating unprofiled/profiled pairs
under the sampling :class:`~repro.obs.prof.EngineProfiler` to record
per-layer host shares, the top-5 sampled functions and what sampling
costs (``wall_ratio``, report-only).  The artifact lands in
``BENCH_engine_throughput.json`` at the repo root; CI re-runs the bench
through ``benchmarks.gate`` and **fails** on a >10% events/s drop on
any shape against the committed file (and, unconditionally, on any
determinism-hash divergence), and on a profile that finds program
code in under 95% of its samples.  Host timing is machine-dependent but
a 10% tolerance absorbs runner noise; the two-lane queue work showed
real regressions land well past it.

Gate a fresh run against the committed artifact (and rewrite it)::

    PYTHONPATH=src python -m benchmarks.gate engine_throughput
"""

import statistics
from contextlib import nullcontext

from repro.cluster import StressConfig, run_stress
from repro.obs.layers import LAYERS
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
TOP_FUNCTIONS = 5
#: Alternating unprofiled/profiled runs of the profiled shape.
PAIRS = 10

#: The rules ``python -m benchmarks.gate engine_throughput`` enforces.
GATE = {
    "title": "Engine throughput (seed {seed}, best of {repeats})",
    "key": ("shape",),
    "exact": ("rows.*.determinism_hash",),
    "tolerance": {"rows.*.events_per_s": "fall"},
    "targets": (
        ("rows.*.verified", "==", True),
        ("rows.*.events_dispatched", ">", 0),
        ("profile.coverage", ">=", 0.95),
        ("profile.wall_ratio", ">", 0),
    ),
    "tables": {
        "rows": ("shape", "events_dispatched", "events_per_s"),
        "profile": ("coverage", "samples", "wall_ratio", "pairs"),
        "profile.layers": tuple(LAYERS),
        "profile.top_functions": ("layer", "function", "samples", "share"),
    },
}


def run_shape(kwargs):
    """Best-of-N events/s for one stress shape.

    The engine's ``wall_s`` counts only dispatch-loop time, so the
    events/s figure excludes world construction and result packing.
    Both numbers come from ``obs.host_meta()``, which keeps them after
    the finished world detaches its engine.
    """
    best = None
    for _ in range(REPEATS):
        config = StressConfig(seed=SEED, **kwargs)
        if kwargs.get("services"):
            from repro.serve import run_serve

            result = run_serve(config)
        else:
            result = run_stress(config)
        host = result.obs.host_meta()
        events = host["events_dispatched"]
        wall_s = host["wall_s"]
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
    """Sampled host-time profile of one shape, and what sampling costs.

    Runs :data:`PAIRS` unprofiled/profiled pairs; the samples of every
    profiled run feed one report.  ``wall_ratio`` is the median
    over pairs of profiled over unprofiled engine wall time.
    """
    profiler = EngineProfiler()
    ratios = []
    for pair in range(PAIRS):
        wall = {}
        # Alternate which side runs first, so host drift favours neither.
        for profiling in (pair % 2 == 1, pair % 2 == 0):
            with profiled(profiler) if profiling else nullcontext():
                result = run_stress(StressConfig(seed=SEED, **kwargs))
            wall[profiling] = result.obs.host_meta()["wall_s"]
        ratios.append(wall[True] / wall[False])
    report = profiler.report()
    return {
        "coverage": round(report["coverage"], 4),
        "samples": report["samples"],
        "wall_ratio": round(statistics.median(ratios), 4),
        "pairs": PAIRS,
        "layers": {
            layer: round(share, 4) for layer, share in report["layers"].items()
        },
        "top_functions": [
            {
                "layer": row["layer"],
                "function": row["function"],
                "samples": row["samples"],
                "share": round(row["share"], 4),
            }
            for row in report["functions"][:TOP_FUNCTIONS]
        ],
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


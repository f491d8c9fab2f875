"""Cluster-scale concurrent-migration benchmark (docs/cluster.md).

Sweeps the per-host in-flight cap over the 16-host / 64-process stress
scenario (seed 7) and records, per cap: migration throughput, p50/p99
freeze time, peak and sustained concurrency, and peak queue depth.
The artifact lands in ``BENCH_cluster_scale.json`` at the repo root,
together with the determinism hash of the default-cap run (two
executions of this benchmark must agree byte for byte).

The headline claims its ``GATE`` checks:

* at the default cap the cluster sustains >= 4 concurrent in-flight
  migrations (the tentpole acceptance bar), and
* raising the cap trades queueing delay for concurrency without ever
  violating the per-host limit: no host exceeds its cap, and the peak
  queue depth never grows as the cap rises.

Gate a fresh run against the committed artifact (and rewrite it)::

    PYTHONPATH=src python -m benchmarks.gate cluster_scale
"""

import time

from repro.cluster import StressConfig, run_stress

#: The stress scenario: 16 hosts, 64 processes, one request per process.
HOSTS = 16
PROCS = 64
SEED = 7
#: Per-host caps swept (4 is the default the acceptance bar applies to).
CAPS = (1, 2, 4, 8)
DEFAULT_CAP = 4
#: Sustained-concurrency floor at the default cap.
SUSTAINED_TARGET = 4

#: The rules ``python -m benchmarks.gate cluster_scale`` enforces.
GATE = {
    "title": ("Cluster-scale stress ({scenario[hosts]} hosts x "
              "{scenario[procs]} procs, seed {scenario[seed]})"),
    "key": ("inflight_cap",),
    "exact": ("determinism_hash",),
    "targets": (
        ("rows.*.verified", "==", True),
        (f"rows.{DEFAULT_CAP}.sustained_inflight", ">=", "sustained_target"),
        *((f"rows.{cap}.peak_host_inflight", "<=", cap) for cap in CAPS),
        ("queue_shrinks_as_cap_grows", "==", True),
    ),
    "tables": {"rows": (
        "inflight_cap", "outcomes.completed", "throughput_per_s",
        "freeze_p50_s", "freeze_p99_s", "sustained_inflight",
        "peak_queue_depth",
    )},
}


def run_point(cap):
    """One swept point: the StressResult plus its wall-clock cost."""
    config = StressConfig(hosts=HOSTS, procs=PROCS, inflight_cap=cap,
                          seed=SEED)
    started = time.perf_counter()
    result = run_stress(config)
    return result, time.perf_counter() - started


def measure():
    """The artifact dict: one row per cap, hash of the default run."""
    rows = []
    default_hash = None
    for cap in CAPS:
        result, wall_s = run_point(cap)
        if cap == DEFAULT_CAP:
            default_hash = result.determinism_hash
        rows.append({
            "inflight_cap": cap,
            "outcomes": dict(sorted(result.outcomes.items())),
            "makespan_s": round(result.makespan_s, 6),
            "throughput_per_s": round(result.throughput_per_s, 6),
            "freeze_p50_s": round(result.freeze_percentile(0.50), 6),
            "freeze_p99_s": round(result.freeze_percentile(0.99), 6),
            "peak_inflight": result.peak_inflight,
            "sustained_inflight": result.sustained_inflight,
            "peak_host_inflight": result.peak_host_inflight,
            "peak_queue_depth": result.peak_queue,
            "events_dispatched": result.events_dispatched,
            "verified": result.verified,
            "wall_s": round(wall_s, 3),
        })
    return {
        "scenario": {
            "hosts": HOSTS,
            "procs": PROCS,
            "migrations": PROCS,
            "seed": SEED,
            "arrival": "uniform",
            "rate_per_s": 2.0,
        },
        "rows": rows,
        "default_cap": DEFAULT_CAP,
        "determinism_hash": default_hash,
        "sustained_target": SUSTAINED_TARGET,
        "queue_shrinks_as_cap_grows": all(
            tight["peak_queue_depth"] >= loose["peak_queue_depth"]
            for tight, loose in zip(rows, rows[1:])
        ),
    }


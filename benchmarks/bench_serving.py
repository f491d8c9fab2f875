"""During-migration request-latency benchmark (docs/serving.md).

Runs the standard serving mix (kv + matmul + stream, one process each,
three hosts, three migrations under live traffic, seed 11) once per
transfer arm and records per-arm, per-service during-migration latency
percentiles plus drop/retry counts.  Deadlines are disabled so every
request completes and the percentiles measure brownout depth directly
— no survivorship bias from requests that expired while queued.

The headline claim its ``GATE`` checks: batched/pipelined demand paging
(batch=8/pipeline=4, PR 5's prefetch windows) beats the serial
pure-IOU protocol on during-migration p99 for the scan-heavy matmul
service by >= 1.5x, because a freshly inserted server re-faulting its
weight stripes sequentially is exactly the prefetch-window best case.
The adaptive strategy must beat serial pure-IOU there too, and each
arm must replay bit-stably: its determinism hash equals the committed
one.

The artifact lands in ``BENCH_serving.json`` at the repo root.

Gate a fresh run against the committed artifact (and rewrite it)::

    PYTHONPATH=src python -m benchmarks.gate serving
"""

import time

from repro.cluster.stress import StressConfig
from repro.serve import run_serve

SEED = 11
SERVICES = ("kv", "matmul", "stream")
#: (arm label, strategy, batch, pipeline) — serial pure-IOU first.
ARMS = (
    ("pure-iou-serial", "pure-iou", 1, 1),
    ("pure-iou-batched", "pure-iou", 8, 4),
    ("adaptive-batched", "adaptive", 8, 4),
)
#: The service the headline bar is judged on, and the bar itself.
HEADLINE_SERVICE = "matmul"
HEADLINE_TARGET = 1.5

#: The rules ``python -m benchmarks.gate serving`` enforces.
GATE = {
    "title": ("During-migration serving latency ({scenario[hosts]} hosts, "
              "seed {scenario[seed]})"),
    "key": ("arm",),
    "exact": ("rows.*.determinism_hash",),
    "tolerance": {"rows.*.during_p99_s": "rise"},
    "targets": (
        ("rows.*.verified", "==", True),
        ("during_p99_improvement.pure-iou-batched", ">=", "headline_target"),
        ("during_p99_improvement.adaptive-batched", ">", 1.0),
    ),
    "tables": {"rows": (
        "arm", "during_p50_s", "during_p99_s", "requests.completed",
        "requests.dropped", "completed_migrations",
    )},
}


def arm_config(strategy, batch, pipeline):
    return StressConfig(
        hosts=3, procs=3, seed=SEED, migrations=3,
        arrival="uniform", rate_per_s=1.0, inflight_cap=2,
        strategy=strategy, batch=batch, pipeline=pipeline,
        services=SERVICES, deadline_s=0.0, retry_budget=0,
    )


def run_arm(strategy, batch, pipeline):
    """One arm: the ServingResult plus its wall-clock cost."""
    started = time.perf_counter()
    result = run_serve(arm_config(strategy, batch, pipeline))
    return result, time.perf_counter() - started


def _row(arm, strategy, batch, pipeline, result, wall_s):
    summary = result.latency_summary()
    per_service = {
        kind: {
            "during_count": block["during_migration"]["count"],
            "during_p50_s": block["during_migration"]["p50"],
            "during_p99_s": block["during_migration"]["p99"],
            "overall_p99_s": block["overall"]["p99"],
        }
        for kind, block in summary["per_service"].items()
    }
    return {
        "arm": arm,
        "strategy": strategy,
        "batch": batch,
        "pipeline": pipeline,
        "requests": dict(sorted(result.counts.items())),
        "during_p50_s": summary["during_migration"]["p50"],
        "during_p99_s": summary["during_migration"]["p99"],
        "during_p999_s": summary["during_migration"]["p999"],
        "during_count": summary["during_migration"]["count"],
        "overall_p99_s": summary["overall"]["p99"],
        "per_service": per_service,
        "completed_migrations": result.completed_migrations,
        "bytes_total": result.bytes_total,
        "makespan_s": round(result.makespan_s, 6),
        "verified": result.verified,
        "determinism_hash": result.determinism_hash,
        "wall_s": round(wall_s, 3),
    }


def measure():
    """The artifact dict: one row per arm plus the headline ratio."""
    rows = []
    by_arm = {}
    for arm, strategy, batch, pipeline in ARMS:
        result, wall_s = run_arm(strategy, batch, pipeline)
        row = _row(arm, strategy, batch, pipeline, result, wall_s)
        rows.append(row)
        by_arm[arm] = row

    def headline_p99(row):
        return row["per_service"][HEADLINE_SERVICE]["during_p99_s"]

    serial = headline_p99(by_arm["pure-iou-serial"])
    improvements = {
        arm: round(serial / headline_p99(row), 3)
        for arm, row in by_arm.items()
        if arm != "pure-iou-serial"
    }
    return {
        "scenario": {
            "seed": SEED,
            "services": list(SERVICES),
            "hosts": 3,
            "procs": 3,
            "migrations": 3,
            "deadline_s": 0.0,
            "arms": [list(arm) for arm in ARMS],
            "headline_service": HEADLINE_SERVICE,
        },
        "rows": rows,
        "headline_target": HEADLINE_TARGET,
        "during_p99_improvement": improvements,
    }


"""Batched/pipelined demand-paging benchmark (docs/transfer-plans.md).

Sweeps the ``(batch, pipeline)`` knob pair over the two fault-heavy
pure-IOU workloads (pm-mid and lisp-del, seed 1987) and records, per
point: total imaginary-fault stall time, the fault/request count,
stall p50/p99, end-to-end time, and bytes on the wire.  One adaptive
row per workload rides along for comparison.  The artifact lands in
``BENCH_transfer_pipeline.json`` at the repo root.

The headline claims its ``GATE`` checks:

* ``batch=1, pipeline=1`` reproduces the pre-batching per-page
  protocol **exactly** — the golden transfer/exec timings recorded
  before the plan layer landed must match to the last digit, and
* ``batch=8, pipeline=4`` cuts total stall time by >= 2x on both
  workloads (the tentpole acceptance bar).

Gate a fresh run against the committed artifact (and rewrite it)::

    PYTHONPATH=src python -m benchmarks.gate transfer_pipeline
"""

import time

from repro.testbed import Testbed

SEED = 1987
#: The fault-heavy representatives the acceptance bar applies to.
WORKLOADS = ("pm-mid", "lisp-del")
#: (batch, pipeline) points swept, serial first.
POINTS = ((1, 1), (4, 2), (8, 4), (16, 8))
#: The point the >= 2x stall-reduction bar is judged at.
HEADLINE = (8, 4)
STALL_TARGET = 2.0

#: The rules ``python -m benchmarks.gate transfer_pipeline`` enforces.
GATE = {
    "title": "Batched transfer pipeline (seed {scenario[seed]})",
    "key": ("workload", "strategy", "batch", "pipeline"),
    # Serial rows are the equivalence proof: every field matches exactly.
    "exact": ("rows.*/1/1.*",),
    "tolerance": {"rows.*.stall_s": "rise"},
    "targets": (
        ("rows.*.verified", "==", True),
        ("serial_matches_golden.*", "==", True),
        ("stall_reduction.*", ">=", "stall_target"),
    ),
    "tables": {"rows": (
        "workload", "strategy", "batch", "pipeline", "stall_s",
        "imag_faults", "end_to_end_s",
    )},
}

#: Pre-refactor golden timings at the serial point:
#: workload -> (transfer_s, exec_s, migration_s, bytes_total, pages).
GOLDEN_SERIAL = {
    "pm-mid": (
        0.20215840000000052, 75.55433519999977, 3.735618800000001,
        309451, 449,
    ),
    "lisp-del": (
        0.21001039999999804, 169.81878320000018, 5.4425987999999945,
        485601, 709,
    ),
}


def _stall_stats(result):
    """(total stall seconds, p50, p99) of one trial's imaginary faults."""
    family = result.obs.registry.get("imag_fault_seconds")
    if family is None or not len(family):
        return 0.0, None, None
    ((_key, child),) = family.items()
    return child.sum, child.percentile(0.50), child.percentile(0.99)


def run_point(workload, batch, pipeline, strategy="pure-iou"):
    """One swept point: the MigrationResult plus its wall-clock cost."""
    started = time.perf_counter()
    result = Testbed(seed=SEED).migrate(
        workload, strategy=strategy,
        options={"batch": batch, "pipeline": pipeline},
    )
    return result, time.perf_counter() - started


def _row(workload, strategy, batch, pipeline, result, wall_s):
    """One artifact row."""
    stall_s, p50, p99 = _stall_stats(result)
    return {
        "workload": workload,
        "strategy": strategy,
        "batch": batch,
        "pipeline": pipeline,
        "stall_s": round(stall_s, 6),
        "stall_p50_s": None if p50 is None else round(p50, 6),
        "stall_p99_s": None if p99 is None else round(p99, 6),
        "imag_faults": result.faults.get("imaginary", 0),
        "transfer_s": round(result.transfer_s, 6),
        "exec_s": round(result.exec_s, 6),
        "migration_s": round(result.migration_s, 6),
        "end_to_end_s": round(result.migration_s + result.exec_s, 6),
        "bytes_total": result.bytes_total,
        "pages_transferred": result.pages_transferred,
        "verified": result.verified,
        "wall_s": round(wall_s, 3),
    }


def measure():
    """The artifact dict: the knob sweep plus one adaptive row each."""
    rows = []
    reductions = {}
    serial_matches = {}
    for workload in WORKLOADS:
        serial_stall = None
        for batch, pipeline in POINTS:
            result, wall_s = run_point(workload, batch, pipeline)
            stall_s, _p50, _p99 = _stall_stats(result)
            if (batch, pipeline) == (1, 1):
                serial_stall = stall_s
                observed = (
                    result.transfer_s, result.exec_s, result.migration_s,
                    result.bytes_total, result.pages_transferred,
                )
                serial_matches[workload] = (
                    observed == GOLDEN_SERIAL[workload]
                )
            if (batch, pipeline) == HEADLINE and serial_stall:
                reductions[workload] = round(serial_stall / stall_s, 3)
            rows.append(
                _row(workload, "pure-iou", batch, pipeline, result, wall_s)
            )
        batch, pipeline = HEADLINE
        result, wall_s = run_point(
            workload, batch, pipeline, strategy="adaptive"
        )
        rows.append(
            _row(workload, "adaptive", batch, pipeline, result, wall_s)
        )
    return {
        "scenario": {
            "seed": SEED,
            "workloads": list(WORKLOADS),
            "points": [list(point) for point in POINTS],
            "headline_point": list(HEADLINE),
        },
        "rows": rows,
        "stall_target": STALL_TARGET,
        "stall_reduction": reductions,
        "serial_matches_golden": serial_matches,
    }


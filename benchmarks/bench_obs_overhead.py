"""Overhead of the instrumentation layer (docs/observability.md).

Times the same deterministic trial three ways — instrumentation off
(the default), ``--trace`` alone, and ``--trace`` plus continuous
telemetry sampling at the default period — and records the ratios in
``BENCH_obs_overhead.json`` at the repo root:

* ``trace_overhead_fraction`` — spans, phase attribution, and engine
  event counting, measured against the plain run (the registry is
  always on).
* ``sampling_overhead_fraction`` — what the sim-time sampler adds on
  top of tracing: the tick process, gauge snapshots, windowed-merge
  and percentile-ribbon maintenance.  **This is the guarded number**:
  continuous telemetry must cost <5% (``target``).
* ``total_overhead_fraction`` — both layers against plain, for
  context.

CPU time (``time.process_time``) is the meter: the simulation is
single-threaded, so CPU time prices the instrumentation itself rather
than whatever else the machine happens to be running.

Note the denominator this trial implies: ~167 *simulated* seconds
replay in ~0.25 s of CPU, a sim:wall ratio near 700x that no real
deployment approaches, so every per-tick cost is priced ~700x harsher
here than in real time.  Keeping the guard green at that ratio is the
point — sampling must stay cheap per tick, not just per wall second.

Gate a fresh run against the committed artifact (and rewrite it)::

    PYTHONPATH=src python -m benchmarks.gate obs_overhead

or through pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py
"""

import gc
import statistics
import time

from repro.obs.telemetry import DEFAULT_SAMPLE_PERIOD
from repro.testbed import Testbed

#: The timed unit of work: a full verified migration with remote
#: execution and fault prefetch — every instrumented code path fires.
WORKLOAD = "lisp-del"

#: The rule ``python -m benchmarks.gate obs_overhead`` enforces.
GATE = {
    "title": "Instrumentation overhead ({workload}, {repeats} repeats)",
    "targets": (("sampling_overhead_fraction", "<", 0.05),),
}


def run_trial(instrument, sample_period=0.0):
    """One full migration trial; returns its MigrationResult."""
    bed = Testbed(
        seed=1987, instrument=instrument, sample_period=sample_period,
    )
    return bed.migrate(WORKLOAD, strategy="pure-iou", options={"prefetch": 1})


#: (artifact key, instrument, sample period) per timed arm.
ARMS = (
    ("plain_s", False, 0.0),
    ("traced_s", True, 0.0),
    ("sampled_s", True, DEFAULT_SAMPLE_PERIOD),
)


def measure(repeats=25):
    """The artifact dict: per-arm timings plus the overhead ratios.

    Each repeat times the three arms back to back, and every ratio is
    taken *within* a repeat before the median is taken across repeats:
    machine-load drift on minute timescales then cancels out of the
    ratios instead of landing on whichever arm drew the noisy slot —
    the failure mode of summarising each arm by its own minimum.
    """
    for _, instrument, period in ARMS:
        run_trial(instrument, period)
    rows = []
    for _ in range(repeats):
        row = {}
        for key, instrument, period in ARMS:
            # The instrumented trials allocate much more (spans,
            # telemetry rows); collect up front so deferred GC pauses
            # don't land in whichever trial runs next.
            gc.collect()
            started = time.process_time()
            run_trial(instrument, period)
            row[key] = time.process_time() - started
        rows.append(row)

    def med(key):
        return statistics.median(row[key] for row in rows)

    def ratio(numerator, denominator):
        return statistics.median(
            row[numerator] / row[denominator] - 1.0 for row in rows
        )

    return {
        "workload": WORKLOAD,
        "strategy": "pure-iou",
        "prefetch": 1,
        "sample_period_s": DEFAULT_SAMPLE_PERIOD,
        "repeats": repeats,
        "timer": ("time.process_time; median of per-repeat ratios "
                  "(arms alternate within each repeat)"),
        "plain_s": round(med("plain_s"), 6),
        "traced_s": round(med("traced_s"), 6),
        "sampled_s": round(med("sampled_s"), 6),
        "trace_overhead_fraction": round(ratio("traced_s", "plain_s"), 6),
        "sampling_overhead_fraction": round(ratio("sampled_s", "traced_s"), 6),
        "total_overhead_fraction": round(ratio("sampled_s", "plain_s"), 6),
        "target": "sampling_overhead_fraction < 0.05",
    }


def test_instrumentation_is_simulation_neutral():
    """Tracing must never change what the simulation computes."""
    plain = run_trial(False)
    traced = run_trial(True, DEFAULT_SAMPLE_PERIOD)
    assert traced.transfer_s == plain.transfer_s
    assert traced.exec_s == plain.exec_s
    assert traced.bytes_total == plain.bytes_total
    assert traced.faults == plain.faults


def test_obs_overhead(benchmark):
    """CPU cost of one fully instrumented, continuously sampled trial."""
    result = benchmark(lambda: run_trial(True, DEFAULT_SAMPLE_PERIOD))
    assert result.verified

"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

    python -m benchmarks.suite [--workload NAME ...] [--seed N]
                               [--seconds S] [--trace {0,1}] [--json OUT]

Every repeat of a workload runs in a fresh child interpreter
(:mod:`benchmarks.suite.child`), one child at a time; with several
workloads the repeats go round-robin.  Repeats continue until each
workload has had ``--seconds`` of them and at least ``MIN_REPEATS``.

``--trace 0`` measures the end-to-end metrics on untraced repeats.
``--trace 1`` alternates untraced and traced (stack-sampled) repeats and
reports the per-layer metrics, including the sampler's own overhead.
Without ``--trace`` repeats alternate as with ``--trace 1`` and both
sets of metrics are reported, the end-to-end ones from the untraced
repeats.

Every repeat is checked: the program verified its pages, no operation
was lost, every repeat of a seed produced the same simulated result and,
at the default seed, that result matches ``expected.json``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when a
check fails and 2 when the program cannot be found.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

from benchmarks.suite.layers import LAYERS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PACKAGE = os.path.join(ROOT, "src", "repro")
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

DEFAULT_SEED = 1987
DEFAULT_SECONDS = 20
MIN_REPEATS = 2
#: Seconds per workload the runner may take: it starts no round of
#: repeats that the last round's length says would end later, so a
#: one-workload invocation ends within three minutes.
RUN_LIMIT_S = 160
WORKLOAD_NAMES = (
    "paper-matrix", "cluster-iou", "cluster-batched-store", "serve-mix",
)

#: End-to-end metrics: name -> (unit, time base, better).  Host metrics
#: are medians over untraced repeats; simulated ones repeat exactly.
END_TO_END = {
    "wall_s": ("s", "host", "lower"),
    "setup_s": ("s", "host", "lower"),
    "peak_rss_mb": ("MB", "host", "lower"),
    "freeze_p50_s": ("s", "simulated", "lower"),
    "freeze_p90_s": ("s", "simulated", "lower"),
    "makespan_s": ("s", "simulated", "lower"),
    "bytes_on_wire": ("B", "simulated", "lower"),
}

#: Per-layer metrics: name -> (unit, time base, better).  "count" marks
#: exact results of the simulation, read after the run.
PER_LAYER = {
    **{f"{layer}.host_share": ("ratio", "host", "lower") for layer in LAYERS},
    "sim.events": ("count", "count", "lower"),
    "sim.events_per_s": ("1/s", "host", "higher"),
    "vm.faults_disk": ("count", "count", "lower"),
    "vm.faults_fill_zero": ("count", "count", "lower"),
    "pager.imag_faults": ("count", "count", "lower"),
    "pager.fault_stall_s": ("s", "simulated", "lower"),
    "pager.prefetch_hit_ratio": ("ratio", "count", "higher"),
    "pager.residual_kills": ("count", "count", "lower"),
    "store.local_hits": ("count", "count", "higher"),
    "store.peer_hits": ("count", "count", "higher"),
    "store.hit_ratio": ("ratio", "count", "higher"),
    "store.dedup_pages": ("count", "count", "higher"),
    "store.dedup_bytes_saved": ("B", "count", "higher"),
    "store.server_misses": ("count", "count", "lower"),
    "net.fragments": ("count", "count", "lower"),
    "net.fault_bytes": ("B", "count", "lower"),
    "net.bulk_bytes": ("B", "count", "lower"),
    "net.nms_busy_s": ("s", "simulated", "lower"),
    "net.nms_messages": ("count", "count", "lower"),
    "migration.excise_s": ("s", "simulated", "lower"),
    "migration.transfer_s": ("s", "simulated", "lower"),
    "migration.insert_s": ("s", "simulated", "lower"),
    "migration.aborts": ("count", "count", "lower"),
    "cluster.refused": ("count", "count", "lower"),
    "cluster.queued": ("count", "count", "lower"),
    "cluster.sustained_inflight": ("count", "count", "higher"),
    "serve.redirected": ("count", "count", "lower"),
    "serve.buffered": ("count", "count", "lower"),
    "phase.import_s": ("s", "host", "lower"),
    "phase.setup_world_s": ("s", "host", "lower"),
    "phase.setup_build_s": ("s", "host", "lower"),
    "phase.run_s": ("s", "host", "lower"),
    "phase.report_s": ("s", "host", "lower"),
    "sim.timeouts_1k_us": ("us", "host", "lower"),
    "sim.ping_pong_us": ("us", "host", "lower"),
    "vm.amap_build_ms": ("ms", "host", "lower"),
    "vm.interval_churn_us": ("us", "host", "lower"),
    "vm.page_cow_us": ("us", "host", "lower"),
    "bench.sampler_overhead": ("ratio", "host", "lower"),
    "bench.samples": ("count", "host", "higher"),
}

#: Every repeat hashes strings alike, so dict and set layouts, and the
#: time they cost, do not differ between repeats.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}

#: Fields every repeat of one seed must reproduce exactly.
DETERMINISTIC = ("digest", "sim", "counts", "info", "attempted", "failed")


class RunFailed(Exception):
    """A child exited badly or printed no result."""


def run_child(workload, seed, traced, timeout):
    """One repeat in a fresh interpreter; returns its JSON record."""
    command = [
        sys.executable, "-m", "benchmarks.suite.child",
        "--workload", workload, "--seed", str(seed),
    ]
    if traced:
        command.append("--trace")
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, timeout), env=CHILD_ENV,
        )
    except subprocess.TimeoutExpired as error:
        raise RunFailed(f"{workload}: repeat exceeded {error.timeout:.0f} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = "\n".join(done.stderr.strip().splitlines()[-15:])
        raise RunFailed(f"{workload}: repeat exited {done.returncode}\n{tail}")
    return json.loads(lines[-1])


def collect(workloads, seed, seconds, traced, started):
    """Repeats per workload, round-robin: ``{name: (untraced, traced)}``.

    With ``traced`` every round runs one untraced and one traced repeat
    per workload, alternating which goes first.
    """
    records = {name: ([], []) for name in workloads}
    budget = seconds * len(workloads)
    deadline = started + RUN_LIMIT_S * len(workloads)
    begin = time.perf_counter()
    rounds = 0
    round_s = 0.0
    while rounds < MIN_REPEATS or time.perf_counter() - begin < budget:
        round_start = time.perf_counter()
        if rounds and round_start + round_s > deadline:
            break
        for name in workloads:
            order = (False, True) if rounds % 2 == 0 else (True, False)
            for with_sampler in order if traced else (False,):
                remaining = deadline - time.perf_counter()
                record = run_child(name, seed, with_sampler, remaining)
                records[name][with_sampler].append(record)
        round_s = time.perf_counter() - round_start
        rounds += 1
    return records


def _check_repeats(records, seed, expected):
    """Correctness checks over every repeat of one workload."""
    checks = {}
    first = records[0]
    for name in first["checks"]:
        checks[name] = all(record["checks"][name] for record in records)
    checks["repeats_identical"] = all(
        record[field] == first[field]
        for record in records
        for field in DETERMINISTIC
    )
    if seed == DEFAULT_SEED:
        checks["expected_digest"] = first["digest"] == expected.get(first["workload"])
    return checks


def end_to_end(untraced):
    first = untraced[0]
    return {
        "wall_s": median(r["wall_s"] for r in untraced),
        "setup_s": median(r["setup_s"] for r in untraced),
        "peak_rss_mb": median(r["rss_mb"] for r in untraced),
        **first["sim"],
    }


def host_shares(sample_counts):
    """Each layer's share of the pooled ``{layer: samples}`` dicts."""
    pooled = dict.fromkeys(LAYERS, 0)
    for counts in sample_counts:
        for layer, count in counts.items():
            pooled[layer] += count
    attributed = sum(pooled.values())
    return {layer: count / attributed for layer, count in pooled.items()}


def per_layer(untraced, traced, micro):
    run_s = median(r["run_s"] for r in untraced)
    metrics = {
        f"{layer}.host_share": share
        for layer, share in host_shares(r["samples"] for r in traced).items()
    }
    metrics.update(untraced[0]["counts"])
    metrics["sim.events_per_s"] = untraced[0]["counts"]["sim.events"] / run_s
    for phase in ("import", "setup_world", "setup_build", "run", "report"):
        metrics[f"phase.{phase}_s"] = median(r[f"{phase}_s"] for r in untraced)
    metrics.update(micro)
    metrics["bench.sampler_overhead"] = (
        median(r["wall_s"] for r in traced) / median(r["wall_s"] for r in untraced)
    )
    metrics["bench.samples"] = sum(sum(r["samples"].values()) for r in traced)
    return metrics


def summarise(seed, untraced, traced, micro, expected, with_end_to_end):
    """The result for one workload: metrics, info, checks and totals."""
    repeats = untraced + traced
    metrics = end_to_end(untraced) if with_end_to_end else {}
    if traced:
        metrics.update(per_layer(untraced, traced, micro))
    return {
        "metrics": metrics,
        "info": repeats[0]["info"],
        "checks": _check_repeats(repeats, seed, expected),
        "attempted": sum(r["attempted"] for r in repeats),
        "failed": sum(r["failed"] for r in repeats),
        "repeats": {"untraced": len(untraced), "traced": len(traced)},
    }


def _catalogue(name):
    return END_TO_END.get(name) or PER_LAYER[name]


def _print_report(name, seed, summary):
    repeats = summary["repeats"]
    print(f"== {name}  seed {seed}  repeats {repeats['untraced']} untraced"
          f" + {repeats['traced']} traced")
    for metric, value in summary["metrics"].items():
        unit, base, better = _catalogue(metric)
        print(f"  {metric:28s} {value:>16.6g} {unit:6s} {base:9s} {better}")
    for key, value in summary["info"].items():
        print(f"  info {key:23s} {value:>16.6g}")
    for check, ok in summary["checks"].items():
        print(f"  check {check:22s} {'ok' if ok else 'FAILED'}")


def _result_line(summaries):
    """The final JSON object (metric names prefixed when several workloads)."""
    prefix = len(summaries) > 1
    metrics = {}
    for name, summary in summaries.items():
        for metric, value in summary["metrics"].items():
            key = f"{name}/{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": _catalogue(metric)[0]}
    return {
        "correct": all(all(s["checks"].values()) for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite",
        description="Run the repository benchmark.",
    )
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="seconds of repeats per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only, 1: per-layer only")
    parser.add_argument("--json", metavar="OUT",
                        help="also write every repeat's record to OUT")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: the program is not at {PACKAGE}", file=sys.stderr)
        return 2
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)["digests"]
    workloads = tuple(dict.fromkeys(args.workload or WORKLOAD_NAMES))

    sys.path.insert(0, os.path.dirname(PACKAGE))
    traced = args.trace != 0
    try:
        collected = collect(workloads, args.seed, args.seconds, traced, started)
    except RunFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    micro = {}
    if traced:
        from benchmarks.suite.micro import measure_all
        from benchmarks.suite.probes import pin_to_one_core

        pin_to_one_core()
        micro = measure_all()
    summaries = {
        name: summarise(args.seed, untraced, sampled, micro, expected,
                        with_end_to_end=args.trace != 1)
        for name, (untraced, sampled) in collected.items()
    }

    for name, summary in summaries.items():
        _print_report(name, args.seed, summary)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "summaries": summaries,
                       "records": collected}, handle, indent=1)
    result = _result_line(summaries)
    print(json.dumps(result))
    return 0 if result["correct"] else 1

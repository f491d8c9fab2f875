"""Command-line interface.

    python -m repro migrate lisp-del --strategy pure-iou --prefetch 1
    python -m repro migrate pm-mid --strategy adaptive --batch 8 --pipeline 4
    python -m repro sweep pm-start
    python -m repro chain pm-start --path alpha beta gamma --run 0.4
    python -m repro precopy pm-mid
    python -m repro balance chess chess pm-mid --hosts 3
    python -m repro stress --hosts 16 --procs 64 --seed 7
    python -m repro serve --services kv matmul stream --strategy adaptive
    python -m repro report EXPERIMENTS.md
    python -m repro analyze trace.json
    python -m repro health trace.json --html health.html
    python -m repro profile stress --hosts 8 --procs 16
    python -m repro diff before.json after.json
    python -m repro workloads
"""

import argparse
import sys

from repro.cluster.stress import ARRIVALS
from repro.serve.workloads import SERVING
from repro.faults import FaultPlan, FaultPlanError
from repro.migration.plan import TransferOptions
from repro.migration.strategy import PURE_COPY, PURE_IOU, RESIDENT_SET, Strategy
from repro.testbed import Testbed
from repro.workloads.registry import WORKLOADS


def _add_common(parser, trace=False, faults=False):
    parser.add_argument("--seed", type=int, default=1987)
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run under the sampling engine profiler and print the "
            "per-layer and per-function host-time tables afterwards "
            "(simulated results are byte-identical either way — see "
            "`repro profile` for export options)"
        ),
    )
    if trace:
        parser.add_argument(
            "--trace",
            metavar="FILE",
            default=None,
            help=(
                "record spans + metrics and write a Chrome trace-event "
                "JSON file (open in Perfetto or chrome://tracing; "
                "render with `repro inspect FILE`)"
            ),
        )
    if faults:
        parser.add_argument(
            "--faults",
            metavar="PLAN.json",
            default=None,
            help=(
                "inject failures from a fault-plan JSON file (loss, "
                "partitions, crashes, flusher; see docs/fault-injection.md)"
            ),
        )


def _add_transfer(parser, prefetch=True):
    """Register the uniform transfer knobs on one subcommand.

    Every migration-running command accepts the same
    ``--prefetch/--batch/--pipeline`` trio (``sweep`` omits
    ``--prefetch`` because it sweeps that axis itself) plus the
    content-store pair ``--store/--dedup``; the values feed one
    :class:`~repro.migration.plan.TransferOptions` record.
    """
    if prefetch:
        parser.add_argument(
            "--prefetch", type=int, default=0, metavar="N",
            help="extra contiguous pages the backer returns per request",
        )
    parser.add_argument(
        "--batch", type=int, default=1, metavar="N",
        help=(
            "pages targeted per batched Imaginary Read Request "
            "(1 = classic per-page faults)"
        ),
    )
    parser.add_argument(
        "--pipeline", type=int, default=1, metavar="D",
        help=(
            "reply/shipment pipeline depth "
            "(1 = serial whole-message transfers)"
        ),
    )
    parser.add_argument(
        "--store", action="store_true",
        help=(
            "enable the cluster content-addressed page store "
            "(multi-source imaginary-fault service; "
            "see docs/content-store.md)"
        ),
    )
    parser.add_argument(
        "--dedup", action="store_true",
        help=(
            "also dedup shipped pages on the wire against the "
            "destination's content store (implies --store)"
        ),
    )


def _add_telemetry(parser):
    """Register the continuous-telemetry knobs on one subcommand."""
    parser.add_argument(
        "--sample-period", type=float, default=0.0, metavar="S",
        help=(
            "sample fleet gauges every S simulated seconds into the "
            "trace (0 = off; view with `repro health`)"
        ),
    )
    parser.add_argument(
        "--slo", metavar="FILE", default=None,
        help=(
            "evaluate SLO objectives from a JSON spec online "
            "(burn-rate engine; see docs/observability.md)"
        ),
    )


def _load_slo(args, out):
    """(raw spec, parsed SLOs, exit code) for ``--slo FILE``.

    A missing or malformed spec reports cleanly (exit 2) instead of a
    traceback.  The raw document feeds :class:`StressConfig` (which
    serialises it into the determinism-hash input); the parsed tuple
    feeds the testbed entry points directly.
    """
    import json as json_module

    from repro.obs.slo import SLOError, parse_slos

    path = getattr(args, "slo", None)
    if path is None:
        return None, (), 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json_module.load(handle)
    except OSError as error:
        out(f"cannot read SLO spec {path!r}: {error}")
        return None, (), 2
    except json_module.JSONDecodeError as error:
        out(f"bad SLO spec {path!r}: not valid JSON ({error})")
        return None, (), 2
    try:
        slos = parse_slos(raw)
    except SLOError as error:
        out(f"bad SLO spec {path!r}: {error}")
        return None, (), 2
    return raw, tuple(slos), 0


def _load_transfer(args, out):
    """(knobs dict, exit code): the validated transfer flags.

    Out-of-range values report cleanly (exit 2) instead of a
    traceback.  The dict feeds ``options=`` on the testbed entry
    points; each command's ``--strategy`` overrides its strategy.
    """
    knobs = {
        "prefetch": getattr(args, "prefetch", 0),
        "batch": args.batch,
        "pipeline": args.pipeline,
        "store": getattr(args, "store", False),
        "dedup": getattr(args, "dedup", False),
    }
    try:
        TransferOptions(**knobs)
    except ValueError as error:
        out(f"bad transfer options: {error}")
        return None, 2
    return knobs, 0


def _load_faults(args, out):
    """(plan, exit_code): the plan named by ``--faults``, or None.

    A bad plan file reports cleanly (exit 2) instead of a traceback.
    """
    path = getattr(args, "faults", None)
    if path is None:
        return None, 0
    try:
        return FaultPlan.from_json(path), 0
    except OSError as error:
        out(f"cannot read fault plan {path!r}: {error}")
        return None, 2
    except FaultPlanError as error:
        out(f"bad fault plan {path!r}: {error}")
        return None, 2


def _print_fault_stats(result, out):
    """Report what the injected faults did to one trial."""
    out(f"outcome           {result.outcome}")
    if result.failure:
        out(f"failure           {result.failure}")
    out(f"fragments dropped {result.link_drops}  "
        f"(retransmits {result.retransmits}, duplicates {result.duplicates})")
    if result.flushed_pages:
        out(f"pages flushed     {result.flushed_pages}")


def _write_trace(path, runs, out):
    """Export instrumented runs to ``path`` and tell the user.

    Returns an exit code: the trial itself succeeded by the time this
    runs, so a bad path reports cleanly instead of dumping a
    traceback over the results.
    """
    from repro.obs import write_chrome

    try:
        write_chrome(path, runs)
    except OSError as error:
        out(f"cannot write trace {path!r}: {error}")
        return 1
    out(f"trace written to {path} ({len(runs)} run(s); "
        f"view with `repro inspect {path}` or in Perfetto)")
    return 0


def _host_meta(obs_list):
    """Summed ``{events_dispatched, wall_s}`` across runs' obs objects,
    or None when none of them drove an engine."""
    metas = []
    for obs in obs_list:
        getter = getattr(obs, "host_meta", None)
        meta = getter() if getter is not None else None
        if meta is not None:
            metas.append(meta)
    if not metas:
        return None
    return {
        "events_dispatched": sum(m["events_dispatched"] for m in metas),
        "wall_s": sum(m["wall_s"] for m in metas),
    }


def _report_run_meta(out, obs_list, fallback_events=None):
    """Print the unified run-metadata block every trial command shares:
    events dispatched plus host wall-clock (and events/s).  Returns the
    metadata dict so ``--json`` payloads can embed it.

    The ``wall clock`` line is host-volatile by nature; determinism
    checks compare command output with that line filtered out.
    """
    meta = _host_meta(obs_list)
    if meta is None:
        if fallback_events is not None:
            out(f"events dispatched {fallback_events:,}")
        return None
    out(f"events dispatched {meta['events_dispatched']:,}")
    rate = (
        meta["events_dispatched"] / meta["wall_s"]
        if meta["wall_s"] > 0 else 0.0
    )
    out(f"wall clock        {meta['wall_s']:.3f}s host  "
        f"({rate:,.0f} events/s)")
    return meta


def _write_json(path, payload, out):
    """Dump one command's ``--json`` payload; clean error on a bad path."""
    import json as json_module

    try:
        with open(path, "w", encoding="utf-8") as handle:
            json_module.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as error:
        out(f"cannot write {path!r}: {error}")
        return 1
    out(f"wrote {path}")
    return 0


def _require_schema(runs, path, out):
    """Reject pre-schema traces for commands that need the stamp."""
    from repro.obs import TRACE_SCHEMA

    if runs and runs[0].trace_schema is None:
        out(f"{path} has no trace_schema stamp (exported before schema "
            f"{TRACE_SCHEMA}) — re-export it with this build")
        return 2
    return 0


def build_parser():
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Attacking the Process Migration Bottleneck' "
            "(Zayas, SOSP 1987) on a simulated Accent testbed."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def _add_json(parser):
        parser.add_argument(
            "--json", metavar="FILE", default=None,
            help=(
                "also write the trial report (with the unified "
                "events_dispatched/wall_s host block) as JSON"
            ),
        )

    migrate = commands.add_parser("migrate", help="run one migration trial")
    migrate.add_argument("workload", choices=sorted(WORKLOADS))
    migrate.add_argument(
        "--strategy", choices=Strategy.names(), default=PURE_IOU
    )
    _add_json(migrate)
    _add_transfer(migrate)
    _add_telemetry(migrate)
    _add_common(migrate, trace=True, faults=True)

    sweep = commands.add_parser(
        "sweep", help="strategy × prefetch sweep for one workload"
    )
    sweep.add_argument("workload", choices=sorted(WORKLOADS))
    _add_json(sweep)
    _add_transfer(sweep, prefetch=False)
    _add_common(sweep, trace=True, faults=True)

    chain = commands.add_parser("chain", help="multi-hop migration")
    chain.add_argument("workload", choices=sorted(WORKLOADS))
    chain.add_argument("--path", nargs="+", default=["alpha", "beta", "gamma"])
    chain.add_argument(
        "--run",
        type=float,
        nargs="*",
        default=None,
        help="trace fraction to execute at each intermediate host",
    )
    chain.add_argument("--strategy", choices=Strategy.names(), default=PURE_IOU)
    _add_json(chain)
    _add_transfer(chain)
    _add_common(chain, trace=True, faults=True)

    precopy = commands.add_parser(
        "precopy", help="iterative pre-copy baseline (V system)"
    )
    precopy.add_argument("workload", choices=sorted(WORKLOADS))
    precopy.add_argument("--dirty-rate", type=float, default=None)
    _add_json(precopy)
    _add_transfer(precopy)
    _add_common(precopy, trace=True, faults=True)

    balance = commands.add_parser(
        "balance", help="automatic-migration scenario"
    )
    balance.add_argument("workloads", nargs="+")
    balance.add_argument("--hosts", type=int, default=3)
    balance.add_argument(
        "--policy",
        choices=("none", "eager-copy", "breakeven"),
        default="breakeven",
    )
    balance.add_argument(
        "--inflight", type=int, default=None, metavar="K",
        help=(
            "allow up to K concurrent migrations per host via the "
            "cluster scheduler (default: serialize moves)"
        ),
    )
    _add_json(balance)
    _add_transfer(balance)
    _add_telemetry(balance)
    _add_common(balance, trace=True, faults=True)

    stress = commands.add_parser(
        "stress",
        help="deterministic cluster-scale concurrent-migration stress run",
    )
    stress.add_argument("--hosts", type=int, default=4)
    stress.add_argument("--procs", type=int, default=8)
    stress.add_argument(
        "--migrations", type=int, default=None,
        help="migration requests to issue (default: one per process)",
    )
    stress.add_argument(
        "--inflight", type=int, default=4, metavar="K",
        help="per-host in-flight migration cap",
    )
    stress.add_argument(
        "--queue-limit", type=int, default=None,
        help="reject submissions beyond this queue depth (default: unbounded)",
    )
    stress.add_argument(
        "--arrival", choices=ARRIVALS, default="uniform",
        help="inter-arrival pattern for migration requests",
    )
    stress.add_argument(
        "--rate", type=float, default=2.0,
        help="long-run migration request rate (per simulated second)",
    )
    stress.add_argument(
        "--burst-size", type=int, default=4,
        help="requests per burst when --arrival burst",
    )
    stress.add_argument(
        "--workloads", nargs="+", default=["minprog"],
        choices=sorted(WORKLOADS), metavar="NAME",
        help="workload mix, assigned round-robin across processes",
    )
    stress.add_argument("--strategy", choices=Strategy.names(), default=PURE_IOU)
    stress.add_argument(
        "--job-seconds", type=float, default=20.0,
        help="target compute seconds per job (paces the trace)",
    )
    stress.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the canonical result (hash input) as JSON",
    )
    _add_transfer(stress)
    _add_telemetry(stress)
    _add_common(stress, trace=True, faults=True)

    serve = commands.add_parser(
        "serve",
        help=(
            "live request-serving run: seeded traffic through a flow "
            "router while migrations land (during-migration latency)"
        ),
    )
    serve.add_argument(
        "--services", nargs="+", default=["kv", "matmul", "stream"],
        choices=sorted(SERVING), metavar="NAME",
        help="serving workload mix, assigned round-robin across processes",
    )
    serve.add_argument("--hosts", type=int, default=3)
    serve.add_argument(
        "--procs", type=int, default=None,
        help="serving processes (default: one per listed service)",
    )
    serve.add_argument(
        "--clients", type=int, default=2, metavar="N",
        help="client generators per serving process",
    )
    serve.add_argument(
        "--requests", type=int, default=60, metavar="N",
        help="requests each client issues",
    )
    serve.add_argument(
        "--request-arrival", choices=ARRIVALS, default="poisson",
        help="inter-arrival pattern for client requests",
    )
    serve.add_argument(
        "--request-rate", type=float, default=16.0,
        help=(
            "per-client request rate (per simulated second), scaled by "
            "each serving workload's rate_scale"
        ),
    )
    serve.add_argument(
        "--request-burst", type=int, default=8,
        help="requests per burst when --request-arrival burst",
    )
    serve.add_argument(
        "--deadline", type=float, default=5.0, metavar="S",
        help="per-attempt request deadline in simulated seconds (0 = none)",
    )
    serve.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="retry budget per request after an expired attempt",
    )
    serve.add_argument(
        "--migrations", type=int, default=None,
        help="migration requests to issue (default: one per process)",
    )
    serve.add_argument(
        "--arrival", choices=ARRIVALS, default="uniform",
        help="inter-arrival pattern for migration requests",
    )
    serve.add_argument(
        "--rate", type=float, default=1.0,
        help="migration request rate (per simulated second)",
    )
    serve.add_argument(
        "--inflight", type=int, default=2, metavar="K",
        help="per-host in-flight migration cap",
    )
    serve.add_argument(
        "--strategy", choices=Strategy.names(), default=PURE_IOU
    )
    serve.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the canonical result (hash input) as JSON",
    )
    _add_transfer(serve)
    _add_telemetry(serve)
    _add_common(serve, trace=True, faults=True)

    faults = commands.add_parser(
        "faults",
        help="fault-injection trial: loss sweep + crash/flusher outcomes",
    )
    faults.add_argument(
        "workload", nargs="?", default="chess", choices=sorted(WORKLOADS)
    )
    faults.add_argument(
        "--strategy", choices=Strategy.names(), default=PURE_IOU
    )
    faults.add_argument(
        "--loss", type=float, nargs="*", default=[0.05],
        help="fragment loss rates to sweep",
    )
    faults.add_argument(
        "--crash", type=float, nargs="*", default=[30.0],
        help="source-crash times to try, with and without the flusher",
    )
    faults.add_argument("--flush-batch", type=int, default=64)
    faults.add_argument("--flush-interval", type=float, default=0.005)
    faults.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the trial table as deterministic JSON",
    )
    _add_common(faults, trace=True)

    report = commands.add_parser(
        "report", help="regenerate EXPERIMENTS.md (77-trial sweep)"
    )
    report.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    _add_common(report)

    export = commands.add_parser(
        "export", help="write every table/figure dataset as CSV"
    )
    export.add_argument("directory", nargs="?", default="results")
    _add_common(export)

    figures = commands.add_parser(
        "figures", help="render every figure as SVG"
    )
    figures.add_argument("directory", nargs="?", default="figures")
    _add_common(figures)

    inspect = commands.add_parser(
        "inspect", help="render the span tree of a saved --trace file"
    )
    inspect.add_argument("tracefile")
    inspect.add_argument(
        "--top", type=int, default=5,
        help="histograms to show, by observation count",
    )

    analyze = commands.add_parser(
        "analyze",
        help=(
            "critical-path + fault-lifecycle analysis of a saved "
            "--trace file"
        ),
    )
    analyze.add_argument("tracefile")
    analyze.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the per-run analysis as JSON",
    )

    health = commands.add_parser(
        "health",
        help=(
            "fleet-health dashboard from a --sample-period trace "
            "(timelines, percentile ribbons, SLO violation bands)"
        ),
    )
    health.add_argument("tracefile")
    health.add_argument(
        "--html", metavar="FILE", default=None,
        help="write the self-contained HTML dashboard here",
    )
    health.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the machine-readable health view as JSON",
    )

    profile = commands.add_parser(
        "profile",
        help=(
            "run any repro subcommand under the sampling engine "
            "profiler: host-time shares per declared layer and per "
            "function, engine events and wall time"
        ),
    )
    profile.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="functions to show in the text table",
    )
    profile.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the full profile report as JSON",
    )
    profile.add_argument(
        "--flamegraph", metavar="FILE", default=None,
        help=(
            "write a speedscope-format flamegraph (open at "
            "https://www.speedscope.app)"
        ),
    )
    profile.add_argument(
        "subcommand", nargs=argparse.REMAINDER, metavar="COMMAND ...",
        help="the repro command line to run under the profiler",
    )

    diff = commands.add_parser(
        "diff",
        help=(
            "compare two exported traces: migrations aligned by trace "
            "id / signature, per-phase sim-time deltas (summing exactly "
            "to the root delta), bytes/fault/events-per-second deltas"
        ),
    )
    diff.add_argument("trace_a", help="baseline trace (A)")
    diff.add_argument("trace_b", help="candidate trace (B)")
    diff.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the diff report as JSON",
    )

    commands.add_parser("workloads", help="list the seven representatives")
    return parser


def cmd_migrate(args, out):
    """Run one migration trial and print its report."""
    plan, code = _load_faults(args, out)
    if code:
        return code
    knobs, code = _load_transfer(args, out)
    if code:
        return code
    _, slos, code = _load_slo(args, out)
    if code:
        return code
    bed = Testbed(
        seed=args.seed, instrument=bool(args.trace), faults=plan,
        sample_period=args.sample_period, slos=slos,
    )
    result = bed.migrate(
        args.workload, strategy=args.strategy, options=knobs
    )
    out(f"workload          {result.spec.name}")
    knob_report = f"prefetch {result.prefetch}"
    if result.options.batched:
        knob_report += f", batch {result.batch}, pipeline {result.pipeline}"
    if result.options.store_enabled:
        knob_report += ", dedup" if result.options.dedup else ", store"
    out(f"strategy          {result.strategy} ({knob_report})")
    if result.outcome == "completed":
        out(f"excise            {result.excise_s:.2f}s  "
            f"(AMap {result.excise_amap_s:.2f}s, "
            f"RIMAS {result.excise_rimas_s:.2f}s)")
        out(f"core message      {result.core_transfer_s:.2f}s")
        out(f"space transfer    {result.transfer_s:.2f}s")
        out(f"insert            {result.insert_s:.3f}s")
        out(f"migration total   {result.migration_s:.2f}s")
        out(f"remote execution  {result.exec_s:.2f}s")
    out(f"bytes on wire     {result.bytes_total:,}")
    out(f"message handling  {result.message_handling_s:.2f}s")
    out(f"pages moved       {result.pages_transferred} "
        f"({100 * result.fraction_of_real_transferred:.1f}% of RealMem)")
    if result.prefetch_hit_ratio is not None:
        out(f"prefetch hits     {result.prefetch_hit_ratio:.0%}")
    if plan is not None:
        _print_fault_stats(result, out)
    meta = _report_run_meta(out, [result.obs])
    out(f"verified          {result.verified}")
    if args.json:
        payload = {
            "command": "migrate",
            "workload": result.spec.name,
            "strategy": result.strategy,
            "options": {
                "prefetch": result.prefetch,
                "batch": result.batch,
                "pipeline": result.pipeline,
                "store": result.options.store,
                "dedup": result.options.dedup,
            },
            "outcome": result.outcome,
            "bytes_total": result.bytes_total,
            "pages_transferred": result.pages_transferred,
            "verified": result.verified,
        }
        if result.outcome == "completed":
            payload.update({
                "excise_s": result.excise_s,
                "core_transfer_s": result.core_transfer_s,
                "transfer_s": result.transfer_s,
                "insert_s": result.insert_s,
                "migration_s": result.migration_s,
                "exec_s": result.exec_s,
            })
        if meta is not None:
            payload["host"] = meta
        if _write_json(args.json, payload, out):
            return 1
    if args.trace:
        if _write_trace(
            args.trace,
            [(f"migrate-{result.spec.name}-{result.strategy}", result.obs)],
            out,
        ):
            return 1
    return 0 if result.verified else 1


def cmd_sweep(args, out):
    """Print the strategy x prefetch sweep for one workload."""
    plan, code = _load_faults(args, out)
    if code:
        return code
    knobs, code = _load_transfer(args, out)
    if code:
        return code
    bed = Testbed(seed=args.seed, instrument=bool(args.trace), faults=plan)
    traced = []
    copy = bed.migrate(args.workload, strategy=PURE_COPY, options=knobs)
    traced.append((f"{args.workload}-copy", copy.obs))
    if copy.outcome != "completed":
        out(f"{args.workload}: pure-copy baseline {copy.outcome} "
            f"({copy.failure})")
        return 1
    base = copy.transfer_plus_exec_s
    out(f"{args.workload}: pure-copy transfer+exec = {base:.1f}s")
    out(f"{'trial':>10}  {'transfer':>8}  {'exec':>8}  {'speedup':>8}")
    trials = []
    for strategy in (PURE_IOU, RESIDENT_SET):
        for prefetch in (0, 1, 3, 7, 15):
            result = bed.migrate(
                args.workload, strategy=strategy,
                options={**knobs, "prefetch": prefetch},
            )
            tag = "iou" if strategy == PURE_IOU else "rs"
            traced.append((f"{args.workload}-{tag}-pf{prefetch}", result.obs))
            if result.outcome != "completed":
                out(f"{tag + '-pf' + str(prefetch):>10}  {result.outcome:>8}")
                trials.append({
                    "trial": f"{tag}-pf{prefetch}",
                    "outcome": result.outcome,
                })
                continue
            speedup = 100 * (base - result.transfer_plus_exec_s) / base
            out(
                f"{tag + '-pf' + str(prefetch):>10}  {result.transfer_s:>7.2f}s"
                f"  {result.exec_s:>7.2f}s  {speedup:>7.1f}%"
            )
            trials.append({
                "trial": f"{tag}-pf{prefetch}",
                "outcome": result.outcome,
                "transfer_s": result.transfer_s,
                "exec_s": result.exec_s,
                "speedup_pct": speedup,
            })
    meta = _report_run_meta(out, [obs for _, obs in traced])
    if args.json:
        payload = {
            "command": "sweep",
            "workload": args.workload,
            "baseline_transfer_plus_exec_s": base,
            "trials": trials,
        }
        if meta is not None:
            payload["host"] = meta
        if _write_json(args.json, payload, out):
            return 1
    if args.trace:
        if _write_trace(args.trace, traced, out):
            return 1
    return 0


def cmd_chain(args, out):
    """Run a multi-hop migration chain."""
    plan, code = _load_faults(args, out)
    if code:
        return code
    knobs, code = _load_transfer(args, out)
    if code:
        return code
    bed = Testbed(seed=args.seed, instrument=bool(args.trace), faults=plan)
    result = bed.migrate_chain(
        args.workload,
        path=tuple(args.path),
        strategy=args.strategy,
        run_fractions=args.run,
        options=knobs,
    )
    out(f"chain {' -> '.join(result.path)} under {result.strategy}")
    for hop, seconds in enumerate(result.hop_times_s, 1):
        out(f"  hop {hop}: {seconds:.2f}s")
    out(f"end-to-end        {result.end_to_end_s:.2f}s")
    out(f"bytes on wire     {result.bytes_total:,}")
    served = ", ".join(f"{h}={n}" for h, n in result.pages_served.items())
    out(f"pages served by   {served}")
    if plan is not None:
        _print_fault_stats(result, out)
    meta = _report_run_meta(out, [result.obs])
    out(f"verified          {result.verified}")
    if args.json:
        payload = {
            "command": "chain",
            "workload": result.spec.name,
            "strategy": result.strategy,
            "outcome": result.outcome,
            "path": list(result.path),
            "hop_times_s": list(result.hop_times_s),
            "end_to_end_s": result.end_to_end_s,
            "bytes_total": result.bytes_total,
            "pages_served": dict(result.pages_served),
            "verified": result.verified,
        }
        if meta is not None:
            payload["host"] = meta
        if _write_json(args.json, payload, out):
            return 1
    if args.trace:
        if _write_trace(
            args.trace,
            [(f"chain-{result.spec.name}-{'-'.join(result.path)}", result.obs)],
            out,
        ):
            return 1
    return 0 if result.outcome == "completed" and result.verified else 1


def cmd_precopy(args, out):
    """Run the iterative pre-copy baseline."""
    plan, code = _load_faults(args, out)
    if code:
        return code
    knobs, code = _load_transfer(args, out)
    if code:
        return code
    bed = Testbed(seed=args.seed, instrument=bool(args.trace), faults=plan)
    result = bed.migrate_precopy(
        args.workload, dirty_rate_pps=args.dirty_rate, options=knobs
    )
    out(f"pre-copy of {result.spec.name}: {len(result.rounds)} rounds")
    for index, round_ in enumerate(result.rounds, 1):
        out(f"  round {index}: {round_.pages} pages in {round_.seconds:.2f}s")
    if result.downtime_s is not None:
        out(f"downtime          {result.downtime_s:.2f}s")
    out(f"bytes on wire     {result.bytes_total:,}")
    out(f"pages shipped     {result.pages_shipped} "
        f"(address space holds {result.spec.real_pages})")
    if plan is not None:
        _print_fault_stats(result, out)
    meta = _report_run_meta(out, [result.obs])
    out(f"verified          {result.verified}")
    if args.json:
        payload = {
            "command": "precopy",
            "workload": result.spec.name,
            "outcome": result.outcome,
            "rounds": [
                {"pages": round_.pages, "seconds": round_.seconds}
                for round_ in result.rounds
            ],
            "downtime_s": result.downtime_s,
            "bytes_total": result.bytes_total,
            "pages_shipped": result.pages_shipped,
            "verified": result.verified,
        }
        if meta is not None:
            payload["host"] = meta
        if _write_json(args.json, payload, out):
            return 1
    if args.trace:
        if _write_trace(
            args.trace, [(f"precopy-{result.spec.name}", result.obs)], out
        ):
            return 1
    return 0 if result.outcome == "completed" and result.verified else 1


def cmd_balance(args, out):
    """Run an automatic-migration scenario."""
    from repro.loadbalance import (
        BreakevenPolicy,
        EagerCopyPolicy,
        NoMigrationPolicy,
        Scenario,
    )

    for name in args.workloads:
        if name not in WORKLOADS:
            out(f"unknown workload {name!r}")
            return 2
    policy = {
        "none": NoMigrationPolicy,
        "eager-copy": EagerCopyPolicy,
        "breakeven": BreakevenPolicy,
    }[args.policy]()
    plan, code = _load_faults(args, out)
    if code:
        return code
    knobs, code = _load_transfer(args, out)
    if code:
        return code
    # Only a non-default trio pins the knobs scenario-wide; otherwise
    # the legacy behaviour stands (each policy decision carries its own
    # prefetch).
    _, slos, code = _load_slo(args, out)
    if code:
        return code
    options = knobs if any(
        (knobs["prefetch"], knobs["batch"] > 1, knobs["pipeline"] > 1,
         knobs["store"], knobs["dedup"])
    ) else None
    scenario = Scenario(
        args.workloads, hosts=args.hosts, seed=args.seed,
        instrument=bool(args.trace), faults=plan, options=options,
        sample_period=args.sample_period, slos=slos,
    )
    result = scenario.run(policy, inflight_cap=args.inflight)
    out(f"policy {result.policy_name}: makespan {result.makespan_s:.1f}s, "
        f"{len(result.migrations)} migrations, verified {result.verified}")
    for decision in result.migrations:
        out(f"  {decision}")
    scheduler = result.scheduler
    counts = ", ".join(
        f"{outcome}={count}"
        for outcome, count in sorted(scheduler.outcome_counts().items())
    )
    out(f"scheduler: cap {scheduler.inflight_cap}/host, "
        f"peak in-flight {scheduler.peak_inflight}, "
        f"peak queue {scheduler.peak_queue}  [{counts}]")
    if result.killed:
        out(f"killed: {', '.join(result.killed)}")
    meta = _report_run_meta(out, [result.obs])
    if args.json:
        payload = {
            "command": "balance",
            "policy": result.policy_name,
            "makespan_s": result.makespan_s,
            "migrations": [str(decision) for decision in result.migrations],
            "verified": result.verified,
            "scheduler": {
                "inflight_cap": scheduler.inflight_cap,
                "peak_inflight": scheduler.peak_inflight,
                "peak_queue": scheduler.peak_queue,
                "outcomes": dict(scheduler.outcome_counts()),
            },
        }
        if result.killed:
            payload["killed"] = result.killed
        if meta is not None:
            payload["host"] = meta
        if _write_json(args.json, payload, out):
            return 1
    if args.trace:
        if _write_trace(
            args.trace, [(f"balance-{result.policy_name}", result.obs)], out
        ):
            return 1
    return 0 if result.verified else 1


def cmd_stress(args, out):
    """Run the deterministic cluster stress harness and print its report."""
    from repro.cluster import StressConfig, run_stress

    plan, code = _load_faults(args, out)
    if code:
        return code
    slo_raw, _, code = _load_slo(args, out)
    if code:
        return code
    try:
        config = StressConfig(
            hosts=args.hosts,
            procs=args.procs,
            migrations=args.migrations,
            inflight_cap=args.inflight,
            queue_limit=args.queue_limit,
            arrival=args.arrival,
            rate_per_s=args.rate,
            burst_size=args.burst_size,
            workloads=args.workloads,
            strategy=args.strategy,
            job_seconds=args.job_seconds,
            seed=args.seed,
            prefetch=args.prefetch,
            batch=args.batch,
            pipeline=args.pipeline,
            store=args.store,
            dedup=args.dedup,
            sample_period=args.sample_period,
            slo=slo_raw,
        )
    except ValueError as error:
        out(f"bad stress configuration: {error}")
        return 2
    result = run_stress(config, instrument=bool(args.trace), faults=plan)
    counts = ", ".join(
        f"{outcome}={count}"
        for outcome, count in sorted(result.outcomes.items())
    ) or "none"
    out(f"stress {config.hosts} hosts x {config.procs} procs, "
        f"{config.migrations} requests ({config.arrival} arrivals at "
        f"{config.rate_per_s:g}/s), cap {config.inflight_cap}/host, "
        f"seed {config.seed}")
    out(f"outcomes          {counts}")
    out(f"makespan          {result.makespan_s:.1f}s  "
        f"(throughput {result.throughput_per_s:.3f} migrations/s)")
    p50 = result.freeze_percentile(0.50)
    p99 = result.freeze_percentile(0.99)
    if p50 is not None:
        out(f"freeze            p50 {p50:.2f}s  p99 {p99:.2f}s")
    out(f"concurrency       peak {result.peak_inflight} in flight "
        f"(sustained {result.sustained_inflight}, "
        f"host peak {result.peak_host_inflight}), "
        f"queue peak {result.peak_queue}")
    out(f"bytes on wire     {result.bytes_total:,}")
    if result.killed:
        out(f"killed            {', '.join(result.killed)}")
    meta = _report_run_meta(
        out, [result.obs], fallback_events=result.events_dispatched
    )
    out(f"verified          {result.verified}")
    out(f"determinism hash  {result.determinism_hash}")
    if args.json:
        # The canonical result dict is the determinism-hash input and
        # must stay host-independent; the volatile host block rides
        # alongside it (determinism checks drop the "host" key).
        payload = result.to_dict()
        if meta is not None:
            payload["host"] = meta
        if _write_json(args.json, payload, out):
            return 1
    if args.trace:
        label = (
            f"stress-{config.hosts}x{config.procs}-"
            f"{config.arrival}-seed{config.seed}"
        )
        if _write_trace(args.trace, [(label, result.obs)], out):
            return 1
    return 0 if result.verified else 1


def cmd_serve(args, out):
    """Run the live request-serving harness and print its report."""
    from repro.cluster import StressConfig
    from repro.serve import ServeError, run_serve

    plan, code = _load_faults(args, out)
    if code:
        return code
    slo_raw, _, code = _load_slo(args, out)
    if code:
        return code
    procs = args.procs if args.procs is not None else len(args.services)
    try:
        config = StressConfig(
            hosts=args.hosts,
            procs=procs,
            migrations=args.migrations,
            inflight_cap=args.inflight,
            arrival=args.arrival,
            rate_per_s=args.rate,
            strategy=args.strategy,
            seed=args.seed,
            prefetch=args.prefetch,
            batch=args.batch,
            pipeline=args.pipeline,
            store=args.store,
            dedup=args.dedup,
            sample_period=args.sample_period,
            slo=slo_raw,
            services=args.services,
            clients_per_service=args.clients,
            requests_per_client=args.requests,
            request_arrival=args.request_arrival,
            request_rate_per_s=args.request_rate,
            request_burst=args.request_burst,
            deadline_s=args.deadline,
            retry_budget=args.retries,
        )
        result = run_serve(config, instrument=bool(args.trace), faults=plan)
    except (ServeError, ValueError) as error:
        out(f"bad serve configuration: {error}")
        return 2
    counts = result.counts
    migrations = ", ".join(
        f"{outcome}={count}"
        for outcome, count in sorted(result.outcomes.items())
    ) or "none"
    out(f"serve {len(config.services)} service kind(s) x "
        f"{config.procs} procs on {config.hosts} hosts, "
        f"{config.clients_per_service} client(s)/proc x "
        f"{config.requests_per_client} requests "
        f"({config.request_arrival} at {config.request_rate_per_s:g}/s), "
        f"seed {config.seed}")
    out(f"requests          issued {counts['issued']}  "
        f"completed {counts['completed']}  dropped {counts['dropped']}  "
        f"retried {counts['retried']}  redirected {counts['redirected']}")

    def latency_line(label, during):
        values = result.latencies(during=during)
        if not values:
            out(f"{label} no completed requests")
            return
        p50 = result.latency_percentile(0.50, during=during)
        p99 = result.latency_percentile(0.99, during=during)
        p999 = result.latency_percentile(0.999, during=during)
        out(f"{label} p50 {p50:.3f}s  p99 {p99:.3f}s  "
            f"p999 {p999:.3f}s  ({len(values)} requests)")

    latency_line("latency (all)    ", None)
    latency_line("during migration ", True)
    for kind in sorted({job.serving.name for job in result.jobs}):
        overall = result.latency_percentile(0.99, kind=kind)
        during = result.latency_percentile(0.99, kind=kind, during=True)
        overall_txt = "-" if overall is None else f"{overall:.3f}s"
        during_txt = "-" if during is None else f"{during:.3f}s"
        out(f"  {kind:<10} p99 {overall_txt}  during-migration p99 "
            f"{during_txt}")
    out(f"migrations        {migrations}  "
        f"(makespan {result.makespan_s:.1f}s)")
    out(f"bytes on wire     {result.bytes_total:,}")
    if result.killed:
        out(f"killed            {', '.join(result.killed)}")
    meta = _report_run_meta(
        out, [result.obs], fallback_events=result.events_dispatched
    )
    out(f"verified          {result.verified}")
    out(f"determinism hash  {result.determinism_hash}")
    if args.json:
        payload = result.to_dict()
        if meta is not None:
            payload["host"] = meta
        if _write_json(args.json, payload, out):
            return 1
    if args.trace:
        label = (
            f"serve-{'-'.join(config.services)}-"
            f"{config.strategy}-seed{config.seed}"
        )
        if _write_trace(args.trace, [(label, result.obs)], out):
            return 1
    return 0 if result.verified else 1


def cmd_faults(args, out):
    """Fault-injection survey: loss sweep plus crash/flusher outcomes.

    One row per trial.  Loss rows show the reliable transport absorbing
    fragment loss; crash rows pair each source-crash time with and
    without the residual-dependency flusher, demonstrating the
    kill-vs-survive contrast of the copy-on-reference caveat.
    """
    from repro.faults import Crash, FaultPlan, FlushConfig, LossRule

    flush = FlushConfig(
        enabled=True,
        batch_pages=args.flush_batch,
        interval_s=args.flush_interval,
    )
    trials = []
    traced = []

    def run(label, plan):
        bed = Testbed(
            seed=args.seed, instrument=bool(args.trace), faults=plan
        )
        result = bed.migrate(args.workload, strategy=args.strategy)
        traced.append((label, result.obs))
        trials.append({
            "trial": label,
            "outcome": result.outcome,
            "drops": result.link_drops,
            "retransmits": result.retransmits,
            "duplicates": result.duplicates,
            "aborts": result.aborts,
            "kills": result.residual_kills,
            "flushed": result.flushed_pages,
            "verified": result.verified,
        })
        return result

    run("baseline", FaultPlan())
    for rate in args.loss:
        run(f"loss={rate:g}", FaultPlan(loss=[LossRule(rate=rate)]))
    source = "alpha"  # first host of the two-machine testbed
    for at in args.crash:
        crash = Crash(host=source, at=at)
        run(f"crash@{at:g}", FaultPlan(crashes=[crash]))
        run(f"crash@{at:g}+flush", FaultPlan(crashes=[crash], flush=flush))

    out(f"{args.workload} under {args.strategy}, seed {args.seed}")
    header = (
        f"{'trial':>18}  {'outcome':>9}  {'drops':>6}  {'retx':>5}  "
        f"{'dup':>4}  {'flushed':>7}  {'verified':>8}"
    )
    out(header)
    for row in trials:
        out(
            f"{row['trial']:>18}  {row['outcome']:>9}  {row['drops']:>6}  "
            f"{row['retransmits']:>5}  {row['duplicates']:>4}  "
            f"{row['flushed']:>7}  {str(row['verified']):>8}"
        )
    if args.json:
        payload = {
            "workload": args.workload,
            "strategy": args.strategy,
            "seed": args.seed,
            "trials": trials,
        }
        if _write_json(args.json, payload, out):
            return 1
    if args.trace:
        if _write_trace(args.trace, traced, out):
            return 1
    # Survival with the flusher (and a clean baseline) is the point;
    # fail loudly if the demonstration did not hold.
    ok = trials[0]["outcome"] == "completed" and all(
        row["outcome"] == "completed"
        for row in trials
        if row["trial"].endswith("+flush")
    )
    return 0 if ok else 1


def cmd_report(args, out):
    """Regenerate the EXPERIMENTS.md report."""
    from repro.experiments.runner import generate_report

    text, matrix = generate_report(seed=args.seed)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    out(f"wrote {args.output} ({matrix.run_all()} trials)")
    return 0


def cmd_export(args, out):
    """Export every table/figure dataset as CSV."""
    from repro.experiments.export import export_all
    from repro.experiments.matrix import TrialMatrix

    matrix = TrialMatrix(seed=args.seed)
    written = export_all(matrix, args.directory)
    for name in sorted(written):
        out(f"wrote {written[name]}")
    return 0


def cmd_figures(args, out):
    """Render every figure as SVG."""
    from repro.experiments.figures_svg import render_all
    from repro.experiments.matrix import TrialMatrix

    matrix = TrialMatrix(seed=args.seed)
    written = render_all(matrix, args.directory)
    for name in sorted(written):
        out(f"wrote {written[name]}")
    return 0


def cmd_inspect(args, out):
    """Render the span tree + metric summary of a saved trace file."""
    from repro.obs import load_chrome, render_summary

    try:
        runs = load_chrome(args.tracefile)
    except (OSError, ValueError) as error:
        out(f"cannot read trace {args.tracefile!r}: {error}")
        return 2
    if not runs:
        out(f"{args.tracefile} holds no spans or metrics")
        return 1
    out(render_summary(runs, top=args.top))
    return 0


def cmd_analyze(args, out):
    """Critical-path + fault-lifecycle analysis of a saved trace file.

    Prints one phase breakdown per migration per run (the breakdown
    partitions the root ``migrate`` span, so phases sum to its
    duration), plus post-insertion compute/fault attribution and
    fault-lifecycle percentiles when the trace carries them.  Exit 2 on
    an unreadable or unstamped file, 1 if no run holds a migration.
    """
    from repro.obs import analyze_run, load_chrome, render_analysis

    try:
        runs = load_chrome(args.tracefile)
    except (OSError, ValueError) as error:
        out(f"cannot read trace {args.tracefile!r}: {error}")
        return 2
    code = _require_schema(runs, args.tracefile, out)
    if code:
        return code
    reports = [analyze_run(run) for run in runs]
    for report in reports:
        out(render_analysis(report))
        out("")
    if args.json:
        if _write_json(args.json, {"runs": reports}, out):
            return 1
    if not any(report["migrations"] for report in reports):
        out(f"{args.tracefile} holds no migrate spans to analyze")
        return 1
    return 0


def cmd_health(args, out):
    """Fleet-health dashboard from a sampled trace.

    ``--html`` writes the self-contained dashboard; ``--json`` the
    machine-readable view; with neither, a short text summary prints.
    Exit 2 on an unreadable or unstamped file, 1 when no run carries
    telemetry.
    """
    from repro.obs import load_chrome
    from repro.obs.health import health_json, summarize, write_health

    try:
        runs = load_chrome(args.tracefile)
    except (OSError, ValueError) as error:
        out(f"cannot read trace {args.tracefile!r}: {error}")
        return 2
    code = _require_schema(runs, args.tracefile, out)
    if code:
        return code
    sampled = [
        run for run in runs
        if run.telemetry and run.telemetry.get("times")
    ]
    if not sampled:
        out(f"{args.tracefile} holds no telemetry samples "
            "(record with --sample-period)")
        return 1
    if args.html:
        try:
            write_health(args.html, sampled)
        except OSError as error:
            out(f"cannot write {args.html!r}: {error}")
            return 1
        out(f"health dashboard written to {args.html} "
            f"({len(sampled)} run(s))")
    if args.json:
        payload = {"runs": [health_json(run) for run in sampled]}
        if _write_json(args.json, payload, out):
            return 1
    if not args.html and not args.json:
        for run in sampled:
            summary = summarize(run.telemetry)
            out(f"run {run.pid}: {run.label}")
            out(f"  samples      {summary['ticks']} every "
                f"{summary['period_s']:g}s over {summary['duration_s']:g}s "
                f"({len(summary['hosts'])} hosts)")
            peaks = summary["peaks"]
            if peaks:
                depth = ", ".join(
                    f"{key.split('.')[-1]} {value}"
                    for key, value in sorted(peaks.items())
                )
                out(f"  peak depth   {depth}")
            serving = summary.get("serving")
            if serving is not None:
                out(f"  serving      issued {serving['issued']}, "
                    f"completed {serving['completed']}, "
                    f"dropped {serving['dropped']}, "
                    f"retried {serving['retried']}, "
                    f"redirected {serving['redirected']}")
            for key, value in sorted(summary["final_percentiles"].items()):
                out(f"  {key:<22} {value:g}s (final window)")
            slo = summary.get("slo")
            if slo is not None:
                burned = ", ".join(
                    f"{name}={seconds:g}s"
                    for name, seconds in slo["violation_seconds"].items()
                ) or "none"
                out(f"  SLO          {slo['violations']} violation(s); "
                    f"time in violation: {burned}")
    return 0


def cmd_profile(args, out):
    """Run any repro subcommand under the sampling engine profiler.

    The wrapped command runs unchanged (its simulated outputs are
    byte-identical to an unprofiled run), then the profile prints:
    engine events and wall time, sample coverage, each declared
    layer's share of the sampled host time, and the most sampled
    functions.  Exits with the wrapped command's code (2 on usage
    errors here).
    """
    from time import perf_counter

    from repro.obs import (
        EngineProfiler,
        profiled,
        render_profile,
        write_speedscope,
    )

    argv = list(args.subcommand)
    if argv and argv[0] == "--":
        argv = argv[1:]
    if not argv:
        out("usage: repro profile [--top N] [--json FILE] "
            "[--flamegraph FILE] COMMAND [ARG ...]")
        return 2
    if argv[0] == "profile":
        out("cannot nest `repro profile` inside itself")
        return 2
    profiler = EngineProfiler()
    started = perf_counter()
    with profiled(profiler):
        code = main(argv, out=out)
    command_wall_s = perf_counter() - started
    report = profiler.report(
        command=argv, command_wall_s=command_wall_s, exit_code=code
    )
    out("")
    out(f"profile of `repro {' '.join(argv)}` "
        f"(command wall {command_wall_s:.3f}s, exit {code})")
    out(render_profile(report, top=args.top))
    if args.flamegraph:
        try:
            write_speedscope(
                args.flamegraph, report,
                name=f"repro {' '.join(argv)}",
            )
        except OSError as error:
            out(f"cannot write {args.flamegraph!r}: {error}")
            return 1
        out(f"flamegraph written to {args.flamegraph} "
            "(open at https://www.speedscope.app)")
    if args.json:
        if _write_json(args.json, report, out):
            return 1
    return code


def cmd_diff(args, out):
    """Compare two exported traces (regression forensics).

    Aligns migrations by trace id / signature / route, then reports
    per-phase sim-time deltas (each summing exactly to its migration's
    root delta), bytes-on-wire and fault-count deltas, and host
    events-per-second deltas.  Exit codes follow POSIX diff: 0 when no
    simulated differences, 1 when the traces differ, 2 when they
    cannot be diffed.
    """
    from repro.obs import TraceDiffError, diff_traces, render_diff

    try:
        report = diff_traces(args.trace_a, args.trace_b)
    except TraceDiffError as error:
        out(f"cannot diff: {error}")
        return 2
    out(render_diff(report))
    if args.json:
        if _write_json(args.json, report, out):
            return 2
    return 0 if report["zero"] else 1


def cmd_workloads(args, out):
    """List the seven representative workloads."""
    out(f"{'name':>10}  {'real':>12}  {'total':>14}  {'RS':>9}  description")
    for spec in WORKLOADS.values():
        out(
            f"{spec.name:>10}  {spec.real_bytes:>12,}  "
            f"{spec.total_bytes:>14,}  {spec.resident_bytes:>9,}  "
            f"{spec.description[:58]}"
        )
    return 0


_COMMANDS = {
    "migrate": cmd_migrate,
    "sweep": cmd_sweep,
    "chain": cmd_chain,
    "precopy": cmd_precopy,
    "balance": cmd_balance,
    "stress": cmd_stress,
    "serve": cmd_serve,
    "faults": cmd_faults,
    "report": cmd_report,
    "export": cmd_export,
    "figures": cmd_figures,
    "inspect": cmd_inspect,
    "analyze": cmd_analyze,
    "health": cmd_health,
    "profile": cmd_profile,
    "diff": cmd_diff,
    "workloads": cmd_workloads,
}


def main(argv=None, out=print):
    """CLI entry point; returns a process exit code.

    ``--profile`` on any trial command wraps just that command's
    execution in the engine profiler and prints the profile
    afterwards; the command's own output and exit code are unchanged
    (``repro profile`` adds export options on top of this).
    """
    args = build_parser().parse_args(argv)
    if getattr(args, "profile", False):
        from repro.obs import EngineProfiler, profiled, render_profile

        profiler = EngineProfiler()
        with profiled(profiler):
            code = _COMMANDS[args.command](args, out)
        out("")
        out(render_profile(profiler.report()))
        return code
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":
    sys.exit(main())

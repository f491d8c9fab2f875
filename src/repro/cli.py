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

Commands parse flags, run one experiment and pass its result to
:func:`_emit`; results render themselves (``report_rows``,
``to_dict``, ``ok``).  Only :func:`main` turns a :class:`UsageError`
or :class:`CommandFailed` into a message and an exit code.
"""

import argparse
import inspect
import json
from contextlib import contextmanager

from repro.cluster.stress import ARRIVALS
from repro.serve.workloads import SERVING
from repro.faults import FaultPlan, FaultPlanError
from repro.loadbalance import POLICIES
from repro.migration.plan import TransferOptions
from repro.migration.strategy import PURE_COPY, PURE_IOU, RESIDENT_SET, Strategy
from repro.obs import RUN_META
from repro.testbed import SweepResult, Testbed, chain_fractions, check_dirty_rate
from repro.workloads.registry import WORKLOADS


class CommandFailed(Exception):
    """Stops a command: :func:`main` prints the message and exits 1."""
    code = 1


class UsageError(CommandFailed):
    """Bad command-line input (exit 2)."""
    code = 2


def _add_common(parser, trace=False, faults=False):
    parser.add_argument("--seed", type=int, default=1987)
    parser.add_argument(
        "--profile", action="store_true",
        help=(
            "run under the sampling engine profiler and print the "
            "per-layer and per-function host-time tables afterwards "
            "(simulated results are byte-identical either way — see "
            "`repro profile` for export options)"
        ),
    )
    if trace:
        parser.add_argument(
            "--trace", metavar="FILE", default=None,
            help=(
                "record spans + metrics and write a Chrome trace-event "
                "JSON file (open in Perfetto or chrome://tracing; "
                "render with `repro inspect FILE`)"
            ),
        )
    if faults:
        parser.add_argument(
            "--faults", metavar="PLAN.json", default=None,
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


def _add_json(parser, help=(
        "also write the trial report (with the unified "
        "events_dispatched/wall_s host block) as JSON")):
    parser.add_argument("--json", metavar="FILE", default=None, help=help)


def _add_strategy(parser):
    parser.add_argument("--strategy", choices=Strategy.names(), default=PURE_IOU)


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


@contextmanager
def _bad(what):
    """Report a library's rejection of outside input as a usage error.
    Wrap validation only: a ValueError from a run is a program fault."""
    try:
        yield
    except (ValueError, FaultPlanError) as error:
        raise UsageError(f"bad {what}: {error}") from None


def _fault_plan(args):
    """The plan named by ``--faults``, or None."""
    path = getattr(args, "faults", None)
    if path is None:
        return None
    try:
        return FaultPlan.from_json(path)
    except OSError as error:
        raise UsageError(f"cannot read fault plan {path!r}: {error}") from None
    except FaultPlanError as error:
        raise UsageError(f"bad fault plan {path!r}: {error}") from None


def _transfer(args):
    """The validated transfer flags, as the ``options=`` dict of the
    testbed entry points (each command's ``--strategy`` overrides)."""
    knobs = {  # sweep has no --prefetch: it sweeps that axis itself
        name: getattr(args, name, 0)
        for name in ("prefetch", "batch", "pipeline", "store", "dedup")
    }
    with _bad("transfer options"):
        TransferOptions(**knobs)
    return knobs


def _slos(args):
    """``(raw spec, parsed SLOs)`` for ``--slo FILE``, or ``(None, ())``."""
    from repro.obs.slo import SLOError, load_slos

    path = getattr(args, "slo", None)
    if path is None:
        return None, ()
    try:
        return load_slos(path)
    except OSError as error:
        raise UsageError(f"cannot read SLO spec {path!r}: {error}") from None
    except SLOError as error:
        raise UsageError(f"bad SLO spec {path!r}: {error}") from None


def _trial_testbed(args):
    """``(Testbed, transfer knobs)`` for a two-host trial command."""
    plan = _fault_plan(args)
    knobs = _transfer(args)
    _, slos = _slos(args)
    with _bad(f"{args.command} configuration"):
        bed = Testbed(
            seed=args.seed, instrument=bool(args.trace), faults=plan,
            sample_period=getattr(args, "sample_period", 0.0), slos=slos,
        )
    return bed, knobs


def _stress_config(args, **fields):
    """``(fault plan, StressConfig)`` for ``stress`` and ``serve``, whose
    flags' ``dest`` names are the config's fields."""
    from repro.cluster import StressConfig

    plan = _fault_plan(args)
    slo, _ = _slos(args)
    names = inspect.signature(StressConfig).parameters
    values = {k: v for k, v in vars(args).items() if k in names}
    values.update(fields, slo=slo)
    with _bad(f"{args.command} configuration"):
        return plan, StressConfig(**values)


def _load_trace(path, stamped=True):
    """The runs of a saved trace; ``stamped`` rejects traces exported
    before the ``trace_schema`` stamp."""
    from repro.obs import TRACE_SCHEMA, load_chrome

    try:
        runs = load_chrome(path)
    except (OSError, ValueError) as error:
        raise UsageError(f"cannot read trace {path!r}: {error}") from None
    if stamped and runs and runs[0].trace_schema is None:
        raise UsageError(
            f"{path} has no trace_schema stamp (exported before schema "
            f"{TRACE_SCHEMA}) — re-export it with this build"
        )
    return runs


# -- output -------------------------------------------------------------------
@contextmanager
def _writing(path, what=""):
    """Report an OSError while writing ``path`` as ``cannot write``."""
    try:
        yield
    except OSError as error:
        raise CommandFailed(f"cannot write {what}{path!r}: {error}") from None


def _write_json(path, payload, out):
    with _writing(path), open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    out(f"wrote {path}")


def _report_run_meta(out, obs_list):
    """Print events dispatched and host wall clock, summed over the
    runs; returns them as the ``--json`` ``host`` block (None without an
    engine).  The ``wall clock`` line is host-volatile by nature."""
    metas = [meta for meta in (obs.host_meta() for obs in obs_list) if meta]
    if not metas:
        return None
    meta = {
        "events_dispatched": sum(m["events_dispatched"] for m in metas),
        "wall_s": sum(m["wall_s"] for m in metas),
    }
    rate = (
        meta["events_dispatched"] / meta["wall_s"]
        if meta["wall_s"] > 0 else 0.0
    )
    out(f"events dispatched {meta['events_dispatched']:,}")
    out(f"wall clock        {meta['wall_s']:.3f}s host  "
        f"({rate:,.0f} events/s)")
    return meta


def _emit(args, out, result, runs):
    """Print ``result``'s report rows, write ``--json`` and ``--trace``,
    and return the exit code.  ``runs`` are the ``(label, obs)`` pairs
    behind the result: the run-metadata block and ``--trace`` read them.
    """
    meta = None
    for row in result.report_rows():
        if row is RUN_META:
            meta = _report_run_meta(out, [obs for _, obs in runs])
        else:
            out(row)
    if args.json:
        payload = result.to_dict()
        if meta is not None:
            payload["host"] = meta
        _write_json(args.json, payload, out)
    if args.trace:
        from repro.obs import write_chrome

        with _writing(args.trace, "trace "):
            write_chrome(args.trace, runs)
        out(f"trace written to {args.trace} ({len(runs)} run(s); "
            f"view with `repro inspect {args.trace}` or in Perfetto)")
    return 0 if result.ok else 1


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

    migrate = commands.add_parser("migrate", help="run one migration trial")
    migrate.add_argument("workload", choices=sorted(WORKLOADS))
    _add_strategy(migrate)
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
        "--run", type=float, nargs="*", default=None,
        help="trace fraction to execute at each intermediate host",
    )
    _add_strategy(chain)
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
        "--policy", choices=tuple(POLICIES), default="breakeven"
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
        "--inflight", dest="inflight_cap", type=int, default=4, metavar="K",
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
        "--rate", dest="rate_per_s", type=float, default=2.0, metavar="RATE",
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
    _add_strategy(stress)
    stress.add_argument(
        "--job-seconds", type=float, default=20.0,
        help="target compute seconds per job (paces the trace)",
    )
    _add_json(stress, "also write the canonical result (hash input) as JSON")
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
        "--clients", dest="clients_per_service", type=int, default=2,
        metavar="N",
        help="client generators per serving process",
    )
    serve.add_argument(
        "--requests", dest="requests_per_client", type=int, default=60,
        metavar="N",
        help="requests each client issues",
    )
    serve.add_argument(
        "--request-arrival", choices=ARRIVALS, default="poisson",
        help="inter-arrival pattern for client requests",
    )
    serve.add_argument(
        "--request-rate", dest="request_rate_per_s", type=float,
        default=16.0, metavar="REQUEST_RATE",
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
        "--deadline", dest="deadline_s", type=float, default=5.0,
        metavar="S",
        help="per-attempt request deadline in simulated seconds (0 = none)",
    )
    serve.add_argument(
        "--retries", dest="retry_budget", type=int, default=1, metavar="N",
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
        "--rate", dest="rate_per_s", type=float, default=1.0, metavar="RATE",
        help="migration request rate (per simulated second)",
    )
    serve.add_argument(
        "--inflight", dest="inflight_cap", type=int, default=2, metavar="K",
        help="per-host in-flight migration cap",
    )
    _add_strategy(serve)
    _add_json(serve, "also write the canonical result (hash input) as JSON")
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
    _add_strategy(faults)
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
    _add_json(faults, "also write the trial table as deterministic JSON")
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
    _add_json(analyze, "also write the per-run analysis as JSON")

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
    _add_json(health, "also write the machine-readable health view as JSON")

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
    _add_json(profile, "also write the full profile report as JSON")
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
    _add_json(diff, "also write the diff report as JSON")

    commands.add_parser("workloads", help="list the seven representatives")
    return parser


def cmd_migrate(args, out):
    """Run one migration trial and print its report."""
    bed, knobs = _trial_testbed(args)
    result = bed.migrate(args.workload, strategy=args.strategy, options=knobs)
    label = f"migrate-{result.spec.name}-{result.strategy}"
    return _emit(args, out, result, [(label, result.obs)])


def cmd_sweep(args, out):
    """Print the strategy x prefetch sweep for one workload."""
    bed, knobs = _trial_testbed(args)
    baseline = bed.migrate(args.workload, strategy=PURE_COPY, options=knobs)
    if baseline.outcome != "completed":
        out(f"{args.workload}: pure-copy baseline {baseline.outcome} "
            f"({baseline.failure})")
        return 1
    trials = [
        (f"{tag}-pf{prefetch}", bed.migrate(
            args.workload, strategy=strategy,
            options={**knobs, "prefetch": prefetch},
        ))
        for strategy, tag in ((PURE_IOU, "iou"), (RESIDENT_SET, "rs"))
        for prefetch in (0, 1, 3, 7, 15)
    ]
    runs = [(f"{args.workload}-copy", baseline.obs)] + [
        (f"{args.workload}-{tag}", trial.obs) for tag, trial in trials
    ]
    return _emit(args, out, SweepResult(args.workload, baseline, trials), runs)


def cmd_chain(args, out):
    """Run a multi-hop migration chain."""
    bed, knobs = _trial_testbed(args)
    with _bad("chain configuration"):
        chain_fractions(args.path, args.run)
    result = bed.migrate_chain(
        args.workload, path=tuple(args.path), strategy=args.strategy,
        run_fractions=args.run, options=knobs,
    )
    label = f"chain-{result.spec.name}-{'-'.join(result.path)}"
    return _emit(args, out, result, [(label, result.obs)])


def cmd_precopy(args, out):
    """Run the iterative pre-copy baseline."""
    bed, knobs = _trial_testbed(args)
    with _bad("precopy configuration"):
        check_dirty_rate(args.dirty_rate)
    result = bed.migrate_precopy(
        args.workload, dirty_rate_pps=args.dirty_rate, options=knobs
    )
    label = f"precopy-{result.spec.name}"
    return _emit(args, out, result, [(label, result.obs)])


def cmd_balance(args, out):
    """Run an automatic-migration scenario."""
    from repro.cluster.scheduler import check_inflight_cap
    from repro.loadbalance import Scenario

    for name in args.workloads:
        if name not in WORKLOADS:
            raise UsageError(f"unknown workload {name!r}")
    plan = _fault_plan(args)
    knobs = _transfer(args)
    _, slos = _slos(args)
    # Only non-default knobs apply scenario-wide; otherwise each policy
    # decision carries its own prefetch.
    default = TransferOptions(**knobs) == TransferOptions()
    options = None if default else knobs
    with _bad("balance configuration"):
        scenario = Scenario(
            args.workloads, hosts=args.hosts, seed=args.seed,
            instrument=bool(args.trace), faults=plan, options=options,
            sample_period=args.sample_period, slos=slos,
        )
        if args.inflight is not None:
            check_inflight_cap(args.inflight)
    result = scenario.run(POLICIES[args.policy](), inflight_cap=args.inflight)
    return _emit(
        args, out, result, [(f"balance-{result.policy_name}", result.obs)]
    )


def cmd_stress(args, out):
    """Run the deterministic cluster stress harness and print its report."""
    from repro.cluster import run_stress

    plan, config = _stress_config(args)
    result = run_stress(config, instrument=bool(args.trace), faults=plan)
    label = (
        f"stress-{config.hosts}x{config.procs}-"
        f"{config.arrival}-seed{config.seed}"
    )
    return _emit(args, out, result, [(label, result.obs)])


def cmd_serve(args, out):
    """Run the live request-serving harness and print its report."""
    from repro.serve import run_serve

    procs = args.procs if args.procs is not None else len(args.services)
    plan, config = _stress_config(args, procs=procs)
    result = run_serve(config, instrument=bool(args.trace), faults=plan)
    label = (
        f"serve-{'-'.join(config.services)}-"
        f"{config.strategy}-seed{config.seed}"
    )
    return _emit(args, out, result, [(label, result.obs)])


def cmd_faults(args, out):
    """Fault-injection survey: loss sweep plus crash/flusher outcomes
    (see :mod:`repro.faults.survey`).  Exits 1 unless the baseline is
    clean and every flushed crash trial survived."""
    from repro.faults.survey import FaultSurvey

    with _bad("fault plan"):
        survey = FaultSurvey(
            args.workload, args.strategy, args.seed, loss_rates=args.loss,
            crash_times=args.crash, flush_batch=args.flush_batch,
            flush_interval=args.flush_interval,
        )
    survey.run(instrument=bool(args.trace))
    return _emit(args, out, survey, survey.runs)


def cmd_report(args, out):
    """Regenerate the EXPERIMENTS.md report."""
    from repro.experiments.runner import generate_report

    text, matrix = generate_report(seed=args.seed)
    with _writing(args.output), \
            open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    out(f"wrote {args.output} ({matrix.run_all()} trials)")
    return 0


def cmd_export(args, out):
    """Write every table/figure dataset as CSV (``export``) or render
    every figure as SVG (``figures``)."""
    from repro.experiments.export import export_all
    from repro.experiments.figures_svg import render_all
    from repro.experiments.matrix import TrialMatrix

    write_all = export_all if args.command == "export" else render_all
    matrix = TrialMatrix(seed=args.seed)
    with _writing(args.directory):
        written = write_all(matrix, args.directory)
    for name in sorted(written):
        out(f"wrote {written[name]}")
    return 0


def cmd_inspect(args, out):
    """Render the span tree + metric summary of a saved trace file."""
    from repro.obs import render_summary

    runs = _load_trace(args.tracefile, stamped=False)
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
    from repro.obs import analyze_run, render_analysis

    reports = [analyze_run(run) for run in _load_trace(args.tracefile)]
    for report in reports:
        out(render_analysis(report))
        out("")
    if args.json:
        _write_json(args.json, {"runs": reports}, out)
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
    from repro.obs.health import health_json, summary_rows, write_health

    sampled = [
        run for run in _load_trace(args.tracefile)
        if run.telemetry and run.telemetry.get("times")
    ]
    if not sampled:
        out(f"{args.tracefile} holds no telemetry samples "
            "(record with --sample-period)")
        return 1
    if args.html:
        with _writing(args.html):
            write_health(args.html, sampled)
        out(f"health dashboard written to {args.html} "
            f"({len(sampled)} run(s))")
    if args.json:
        payload = {"runs": [health_json(run) for run in sampled]}
        _write_json(args.json, payload, out)
    if not args.html and not args.json:
        for run in sampled:
            for row in summary_rows(run):
                out(row)
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
        raise UsageError("usage: repro profile [--top N] [--json FILE] "
                         "[--flamegraph FILE] COMMAND [ARG ...]")
    if argv[0] == "profile":
        raise UsageError("cannot nest `repro profile` inside itself")
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
        with _writing(args.flamegraph):
            write_speedscope(
                args.flamegraph, report, name=f"repro {' '.join(argv)}",
            )
        out(f"flamegraph written to {args.flamegraph} "
            "(open at https://www.speedscope.app)")
    if args.json:
        _write_json(args.json, report, out)
    return code


def cmd_diff(args, out):
    """Compare two exported traces (regression forensics).

    Aligns migrations by trace id / signature / route, then reports
    per-phase sim-time deltas (each summing exactly to its migration's
    root delta), bytes-on-wire and fault-count deltas, and host
    events-per-second deltas.  Exit codes follow POSIX diff: 0 when no
    simulated differences, 1 when the traces differ, 2 when they
    cannot be diffed or the report cannot be written.
    """
    from repro.obs import TraceDiffError, diff_traces, render_diff

    try:
        report = diff_traces(args.trace_a, args.trace_b)
    except TraceDiffError as error:
        raise UsageError(f"cannot diff: {error}") from None
    out(render_diff(report))
    if args.json:
        try:
            _write_json(args.json, report, out)
        except CommandFailed as error:
            raise UsageError(str(error)) from None
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
    "figures": cmd_export,
    "inspect": cmd_inspect,
    "analyze": cmd_analyze,
    "health": cmd_health,
    "profile": cmd_profile,
    "diff": cmd_diff,
    "workloads": cmd_workloads,
}


def _run(args, out):
    """Dispatch one parsed command line; the one place a stopped
    command becomes its message and exit code."""
    try:
        return _COMMANDS[args.command](args, out)
    except CommandFailed as error:
        out(str(error))
        return error.code


def main(argv=None, out=print):
    """CLI entry point; returns a process exit code.

    ``--profile`` on any trial command wraps just that command's
    execution in the engine profiler and prints the profile
    afterwards; the command's own output and exit code are unchanged
    (``repro profile`` adds export options on top of this).
    """
    args = build_parser().parse_args(argv)
    if not getattr(args, "profile", False):
        return _run(args, out)
    from repro.obs import EngineProfiler, profiled, render_profile

    profiler = EngineProfiler()
    with profiled(profiler):
        code = _run(args, out)
    out("")
    out(render_profile(profiler.report()))
    return code


"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(lines)


def test_workloads_lists_all_seven():
    code, text = run_cli(["workloads"])
    assert code == 0
    for name in ("minprog", "lisp-t", "lisp-del", "pm-start", "chess"):
        assert name in text


def test_migrate_pure_iou():
    code, text = run_cli(["migrate", "minprog", "--strategy", "pure-iou"])
    assert code == 0
    assert "verified          True" in text
    assert "space transfer" in text
    assert "8.6% of RealMem" in text


def test_migrate_with_prefetch_reports_hits():
    code, text = run_cli(
        ["migrate", "pm-start", "--strategy", "pure-iou", "--prefetch", "3"]
    )
    assert code == 0
    assert "prefetch hits" in text


def test_migrate_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        run_cli(["migrate", "tetris"])


def test_migrate_rejects_unknown_strategy():
    with pytest.raises(SystemExit):
        run_cli(["migrate", "minprog", "--strategy", "teleport"])


def test_sweep_prints_all_trials():
    code, text = run_cli(["sweep", "minprog"])
    assert code == 0
    for tag in ("iou-pf0", "iou-pf15", "rs-pf0", "rs-pf15"):
        assert tag in text


def test_chain_command():
    code, text = run_cli(
        ["chain", "minprog", "--path", "a", "b", "c", "--run", "0.3"]
    )
    assert code == 0
    assert "hop 1" in text and "hop 2" in text
    assert "verified          True" in text


def test_precopy_command():
    code, text = run_cli(["precopy", "minprog"])
    assert code == 0
    assert "rounds" in text
    assert "downtime" in text
    assert "verified          True" in text


@pytest.mark.parametrize("command, crash, outcome", [
    (["chain", "minprog"], {"host": "beta", "at": 1.0}, "aborted"),
    (["chain", "chess"], {"host": "alpha", "at": 30.0}, "killed"),
    (["precopy", "minprog"], {"host": "beta", "at": 1.0}, "aborted"),
])
def test_faulted_trial_reports_outcome(tmp_path, command, crash, outcome):
    import json

    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"crashes": [crash]}), encoding="utf-8")
    report = tmp_path / "report.json"
    code, text = run_cli(
        [*command, "--seed", "7", "--faults", str(plan), "--json", str(report)]
    )
    assert code == 1
    assert f"outcome           {outcome}" in text
    assert "fragments dropped" in text
    assert json.loads(report.read_text(encoding="utf-8"))["outcome"] == outcome


def test_balance_command():
    code, text = run_cli(
        ["balance", "minprog", "minprog", "pm-end", "--hosts", "2",
         "--policy", "breakeven"]
    )
    assert code == 0
    assert "makespan" in text


@pytest.mark.parametrize("inflight", [[], ["--inflight", "2"]])
def test_balance_under_a_source_crash_ends_cleanly(tmp_path, inflight):
    import json

    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"crashes": [
        {"host": "node0", "at": 12.0, "recover_at": 20.0},
    ]}), encoding="utf-8")
    report = tmp_path / "report.json"
    code, text = run_cli(
        ["balance", "chess", "chess", "pm-mid", "minprog", "--hosts", "3",
         "--faults", str(plan), "--json", str(report), *inflight]
    )
    assert code == 0
    assert "aborted=" in text
    cap = 2 if inflight else 1
    assert f"scheduler: cap {cap}/host" in text
    payload = json.loads(report.read_text(encoding="utf-8"))
    outcomes = payload["scheduler"]["outcomes"]
    assert outcomes["aborted"] >= 1
    assert outcomes["completed"] == len(payload["migrations"])
    assert payload["verified"]


def test_balance_rejects_unknown_workload():
    code, text = run_cli(["balance", "tetris"])
    assert code == 2
    assert "unknown workload" in text


def test_report_command(tmp_path):
    output = tmp_path / "EXP.md"
    code, text = run_cli(["report", str(output)])
    assert code == 0
    content = output.read_text()
    assert "Table 4-5" in content
    assert "Figure 4-2" in content


def test_export_command(tmp_path):
    code, text = run_cli(["export", str(tmp_path / "results")])
    assert code == 0
    assert "table_4_5.csv" in text
    assert (tmp_path / "results" / "claims.csv").exists()


def test_figures_command(tmp_path):
    code, text = run_cli(["figures", str(tmp_path / "figs")])
    assert code == 0
    assert "figure_4_2.svg" in text
    assert (tmp_path / "figs" / "figure_4_5_pure_copy.svg").exists()


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_migrate_trace_writes_a_loadable_chrome_trace(tmp_path):
    import json

    trace = tmp_path / "migrate.json"
    code, text = run_cli(["migrate", "minprog", "--trace", str(trace)])
    assert code == 0
    assert "migration total" in text
    assert f"trace written to {trace}" in text
    data = json.loads(trace.read_text(encoding="utf-8"))
    names = {event["name"] for event in data["traceEvents"]}
    assert {"migrate", "excise", "transfer", "insert", "exec"} <= names
    assert data["repro"]["runs"][0]["label"] == "migrate-minprog-pure-iou"


def test_inspect_renders_the_span_tree(tmp_path):
    trace = tmp_path / "migrate.json"
    run_cli(["migrate", "minprog", "--trace", str(trace)])
    code, text = run_cli(["inspect", str(trace)])
    assert code == 0
    assert "migrate [" in text
    assert "excise" in text and "transfer" in text and "insert" in text
    assert "bytes.migrate.core" in text
    assert "imag_fault_seconds" in text and "p99=" in text


def test_sweep_trace_collects_every_trial(tmp_path):
    import json

    trace = tmp_path / "sweep.json"
    code, _ = run_cli(["sweep", "minprog", "--trace", str(trace)])
    assert code == 0
    data = json.loads(trace.read_text(encoding="utf-8"))
    labels = [run["label"] for run in data["repro"]["runs"]]
    assert "minprog-copy" in labels
    assert "minprog-iou-pf0" in labels and "minprog-rs-pf15" in labels


def test_inspect_missing_file_fails_cleanly(tmp_path):
    code, text = run_cli(["inspect", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot read trace" in text


def test_inspect_empty_trace_reports_nothing_to_show(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text('{"traceEvents": []}', encoding="utf-8")
    code, text = run_cli(["inspect", str(empty)])
    assert code == 1
    assert "no spans" in text


def test_faults_trace_collects_every_trial(tmp_path):
    import json

    trace = tmp_path / "faults.json"
    code, text = run_cli(
        ["faults", "minprog", "--loss", "0.05", "--crash", "30",
         "--trace", str(trace)]
    )
    assert code == 0
    assert f"trace written to {trace}" in text
    data = json.loads(trace.read_text(encoding="utf-8"))
    labels = [run["label"] for run in data["repro"]["runs"]]
    assert labels == ["baseline", "loss=0.05", "crash@30", "crash@30+flush"]
    # Every trial is fully instrumented: spans and fault records.
    names = {event["name"] for event in data["traceEvents"]}
    assert {"migrate", "excise", "transfer", "insert"} <= names
    assert any("faults" in run for run in data["repro"]["runs"])
    # Retransmit spans from the lossy trial rode along (satellite:
    # reliable-transport span coverage reaches the export).
    assert "retransmit" in names
    assert "flush-batch" in names


def test_faults_without_trace_still_works(tmp_path):
    code, text = run_cli(["faults", "minprog", "--loss", "0.05",
                          "--crash", "30"])
    assert code == 0
    assert "crash@30+flush" in text


def test_analyze_prints_phase_breakdown_that_sums(tmp_path):
    trace = tmp_path / "migrate.json"
    run_cli(["migrate", "minprog", "--trace", str(trace)])
    code, text = run_cli(["analyze", str(trace)])
    assert code == 0
    assert "migration of minprog (pure-iou)  trace=t1" in text
    for phase in ("excise", "core-ship", "rimas-ship", "insert"):
        assert phase in text
    assert "= attributed" in text
    assert "fault lifecycle:" in text
    # The attributed total equals the root-span total (same 3-decimal
    # rendering on both sides of the "of").
    import re

    match = re.search(
        r"= attributed\s+(\d+\.\d+)s\s+of (\d+\.\d+)s root span", text
    )
    assert match is not None
    assert abs(float(match.group(1)) - float(match.group(2))) <= 0.001


def test_analyze_from_a_faults_trace(tmp_path):
    trace = tmp_path / "faults.json"
    run_cli(["faults", "minprog", "--loss", "0.05", "--crash", "30",
             "--trace", str(trace)])
    code, text = run_cli(["analyze", str(trace)])
    assert code == 0
    assert "run: baseline" in text and "run: loss=0.05" in text
    assert text.count("= attributed") >= 4


def test_analyze_writes_json_report(tmp_path):
    import json

    trace = tmp_path / "migrate.json"
    report = tmp_path / "analysis.json"
    run_cli(["migrate", "minprog", "--trace", str(trace)])
    code, text = run_cli(["analyze", str(trace), "--json", str(report)])
    assert code == 0
    payload = json.loads(report.read_text(encoding="utf-8"))
    (run,) = payload["runs"]
    (migration,) = run["migrations"]
    attributed = sum(migration["phases"].values())
    assert abs(attributed - migration["duration_s"]) <= 1e-6
    assert run["fault_lifecycle"]["stages"]["request"]["p50"] > 0


def test_analyze_missing_file_fails_cleanly(tmp_path):
    code, text = run_cli(["analyze", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot read trace" in text


def test_analyze_without_migrations_reports_it(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text('{"traceEvents": []}', encoding="utf-8")
    code, text = run_cli(["analyze", str(empty)])
    assert code == 1
    assert "no migrate spans" in text


def test_inspect_malformed_trace_fails_cleanly(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]", encoding="utf-8")
    code, text = run_cli(["inspect", str(bad)])
    assert code == 2
    assert "cannot read trace" in text


def test_analyze_malformed_trace_fails_cleanly(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]", encoding="utf-8")
    code, text = run_cli(["analyze", str(bad)])
    assert code == 2
    assert "cannot read trace" in text


def test_migrate_rejects_bad_slo_spec(tmp_path):
    spec = tmp_path / "slo.json"
    spec.write_text('{"slos": [{"name": "x"}]}', encoding="utf-8")
    code, text = run_cli(["migrate", "minprog", "--slo", str(spec)])
    assert code == 2
    assert "bad SLO spec" in text


def test_migrate_rejects_unreadable_slo_spec(tmp_path):
    code, text = run_cli(
        ["migrate", "minprog", "--slo", str(tmp_path / "nope.json")]
    )
    assert code == 2
    assert "cannot read SLO spec" in text


def test_health_missing_file_fails_cleanly(tmp_path):
    code, text = run_cli(["health", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot read trace" in text


def test_health_without_samples_points_at_sample_period(tmp_path):
    trace = tmp_path / "migrate.json"
    run_cli(["migrate", "minprog", "--trace", str(trace)])
    code, text = run_cli(["health", str(trace)])
    assert code == 1
    assert "no telemetry samples" in text
    assert "--sample-period" in text


def test_health_renders_dashboard_and_json(tmp_path):
    import json

    trace = tmp_path / "stress.json"
    spec = tmp_path / "slo.json"
    spec.write_text(json.dumps({"slos": [
        {"name": "freeze-p99", "metric": "migration.freeze",
         "objective": "p99", "threshold": 2.0, "window_s": 10.0},
    ]}), encoding="utf-8")
    code, text = run_cli(
        ["stress", "--hosts", "4", "--procs", "8", "--seed", "7",
         "--sample-period", "0.5", "--slo", str(spec),
         "--trace", str(trace)]
    )
    assert code == 0

    html = tmp_path / "health.html"
    code, text = run_cli(["health", str(trace), "--html", str(html)])
    assert code == 0
    assert "health dashboard written to" in text
    page = html.read_text(encoding="utf-8")
    assert page.startswith("<!DOCTYPE html>")
    assert "<svg" in page and "Freeze time" in page

    report = tmp_path / "health.json"
    code, text = run_cli(["health", str(trace), "--json", str(report)])
    assert code == 0
    payload = json.loads(report.read_text(encoding="utf-8"))
    (run,) = payload["runs"]
    assert run["summary"]["ticks"] == len(run["telemetry"]["times"])
    assert run["summary"]["hosts"]

    # No flags: a text summary.
    code, text = run_cli(["health", str(trace)])
    assert code == 0
    assert "samples" in text


def test_stress_sampled_summary_mentions_telemetry(tmp_path):
    code, text = run_cli(
        ["stress", "--hosts", "3", "--procs", "4", "--seed", "5",
         "--sample-period", "0.5"]
    )
    assert code == 0


def test_stress_text_reports_the_determinism_hash():
    code, text = run_cli(["stress", "--hosts", "3", "--procs", "4",
                          "--seed", "5"])
    assert code == 0
    assert "determinism hash" in text
    assert "verified          True" in text


def test_stress_reports_jobs_a_source_crash_killed(tmp_path):
    import json

    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(
        {"crashes": [{"host": "node00", "at": 8.0}]}
    ), encoding="utf-8")
    report = tmp_path / "report.json"
    code, text = run_cli(
        ["stress", "--hosts", "4", "--procs", "8", "--seed", "7",
         "--faults", str(plan), "--json", str(report)]
    )
    assert code == 0
    killed = json.loads(report.read_text(encoding="utf-8"))["killed"]
    assert killed
    assert f"killed            {', '.join(killed)}" in text


def test_serve_command_reports_during_migration_latency():
    code, text = run_cli(
        ["serve", "--services", "kv", "--procs", "1", "--hosts", "2",
         "--clients", "1", "--requests", "30", "--migrations", "1",
         "--seed", "3"]
    )
    assert code == 0
    assert "during migration" in text
    assert "requests" in text and "dropped" in text
    assert "determinism hash" in text
    assert "verified          True" in text


def test_serve_rejects_unknown_service():
    with pytest.raises(SystemExit):
        run_cli(["serve", "--services", "ftp"])


def test_serve_json_writes_the_canonical_result(tmp_path):
    import json

    artifact = tmp_path / "serve.json"
    code, text = run_cli(
        ["serve", "--services", "kv", "--procs", "1", "--hosts", "2",
         "--clients", "1", "--requests", "30", "--migrations", "1",
         "--seed", "3", "--json", str(artifact)]
    )
    assert code == 0
    payload = json.loads(artifact.read_text(encoding="utf-8"))
    assert payload["verified"] is True
    assert payload["requests"]["issued"] == 30
    assert "during_migration" in payload["latency"]


@pytest.mark.parametrize("shape", [[], ["--batch", "8", "--pipeline", "4"]],
                         ids=["serial", "batched"])
def test_stress_dedup_reaches_the_json_config(tmp_path, shape):
    import json

    artifact = tmp_path / "stress.json"
    code, _text = run_cli(
        ["stress", "--hosts", "6", "--procs", "12", "--seed", "7", "--dedup",
         *shape, "--json", str(artifact)]
    )
    assert code == 0
    config = json.loads(artifact.read_text(encoding="utf-8"))["config"]
    assert config["dedup"] is True
    # Serial runs leave the batching knobs out of the config.
    assert [config.get("batch"), config.get("pipeline")] == (
        [8, 4] if shape else [None, None]
    )


def test_health_reports_serving_counts_from_a_serve_trace(tmp_path):
    trace = tmp_path / "serve.json"
    code, _text = run_cli(
        ["serve", "--services", "kv", "--procs", "1", "--hosts", "2",
         "--clients", "1", "--requests", "30", "--migrations", "1",
         "--seed", "3", "--sample-period", "0.5", "--trace", str(trace)]
    )
    assert code == 0
    code, text = run_cli(["health", str(trace)])
    assert code == 0
    assert "serving" in text
    assert "request.latency" in text

    html = tmp_path / "health.html"
    code, text = run_cli(["health", str(trace), "--html", str(html)])
    assert code == 0
    page = html.read_text(encoding="utf-8")
    assert "Serving outcomes" in page
    assert "Request latency" in page


def test_health_stays_clean_when_a_trace_has_no_serving_data(tmp_path):
    trace = tmp_path / "stress.json"
    code, _text = run_cli(
        ["stress", "--hosts", "3", "--procs", "4", "--seed", "5",
         "--sample-period", "0.5", "--trace", str(trace)]
    )
    assert code == 0
    code, text = run_cli(["health", str(trace)])
    assert code == 0
    assert "serving" not in text
    assert "request.latency" not in text

    html = tmp_path / "health.html"
    code, _text = run_cli(["health", str(trace), "--html", str(html)])
    assert code == 0
    page = html.read_text(encoding="utf-8")
    assert "Serving outcomes" not in page
    assert "Request latency" not in page


def test_trial_commands_print_unified_run_metadata():
    for argv in (
        ["migrate", "minprog"],
        ["sweep", "minprog"],
        ["chain", "minprog", "--path", "a", "b", "c", "--run", "0.3"],
        ["precopy", "minprog"],
        ["balance", "minprog", "minprog", "--hosts", "3"],
        ["stress", "--hosts", "3", "--procs", "4", "--seed", "5"],
    ):
        code, text = run_cli(argv)
        assert code == 0, argv
        assert "events dispatched" in text, argv
        assert "wall clock" in text and "events/s" in text, argv


def test_migrate_json_carries_host_block(tmp_path):
    import json

    artifact = tmp_path / "migrate.json"
    code, _text = run_cli(["migrate", "minprog", "--json", str(artifact)])
    assert code == 0
    payload = json.loads(artifact.read_text(encoding="utf-8"))
    assert payload["command"] == "migrate"
    assert payload["outcome"] == "completed"
    assert payload["verified"] is True
    assert payload["host"]["events_dispatched"] > 0
    assert payload["host"]["wall_s"] > 0


def test_sweep_json_lists_all_trials(tmp_path):
    import json

    artifact = tmp_path / "sweep.json"
    code, _text = run_cli(["sweep", "minprog", "--json", str(artifact)])
    assert code == 0
    payload = json.loads(artifact.read_text(encoding="utf-8"))
    tags = {row["trial"] for row in payload["trials"]}
    assert {"iou-pf0", "iou-pf15", "rs-pf0", "rs-pf15"} <= tags
    assert payload["host"]["events_dispatched"] > 0


def test_profile_flag_does_not_change_simulated_output():
    code_off, text_off = run_cli(["migrate", "minprog"])
    code_on, text_on = run_cli(["migrate", "minprog", "--profile"])
    assert code_off == code_on == 0

    def simulated(text):
        return [
            line for line in text.splitlines()
            if not line.startswith("wall clock")
            and "profile of" not in line
            and "more function(s)" not in line
        ]

    # Every simulated-output line of the plain run appears verbatim in
    # the profiled run (which then appends the profiler tables).
    plain = simulated(text_off)
    assert plain == simulated(text_on)[: len(plain)]
    assert "per-layer host share" in text_on


def test_profile_command_wraps_stress(tmp_path):
    import json

    flame = tmp_path / "stress.speedscope.json"
    report = tmp_path / "profile.json"
    code, text = run_cli(
        ["profile", "--flamegraph", str(flame), "--json", str(report),
         "stress", "--hosts", "3", "--procs", "4", "--seed", "5"]
    )
    assert code == 0
    assert "profile of `repro stress" in text
    assert "events dispatched" in text
    data = json.loads(report.read_text(encoding="utf-8"))
    assert data["coverage"] >= 0.95
    assert data["functions"]
    scope = json.loads(flame.read_text(encoding="utf-8"))
    assert scope["profiles"][0]["type"] == "sampled"


def test_profile_without_a_command_is_a_usage_error():
    code, text = run_cli(["profile"])
    assert code == 2
    assert "usage: repro profile" in text


def test_profile_refuses_to_nest():
    code, text = run_cli(["profile", "profile", "migrate", "minprog"])
    assert code == 2
    assert "cannot nest" in text


def test_diff_self_reports_zero(tmp_path):
    trace = tmp_path / "a.json"
    code, _text = run_cli(["migrate", "minprog", "--trace", str(trace)])
    assert code == 0
    code, text = run_cli(["diff", str(trace), str(trace)])
    assert code == 0
    assert "no simulated differences" in text


def test_diff_reports_strategy_change(tmp_path):
    import json

    trace_a = tmp_path / "a.json"
    trace_b = tmp_path / "b.json"
    report = tmp_path / "diff.json"
    code, _ = run_cli(
        ["migrate", "pm-mid", "--strategy", "pure-iou",
         "--trace", str(trace_a)]
    )
    assert code == 0
    code, _ = run_cli(
        ["migrate", "pm-mid", "--strategy", "adaptive", "--batch", "8",
         "--pipeline", "4", "--trace", str(trace_b)]
    )
    assert code == 0
    code, text = run_cli(
        ["diff", str(trace_a), str(trace_b), "--json", str(report)]
    )
    assert code == 1
    assert "traces differ" in text
    assert "pure-iou → adaptive" in text
    payload = json.loads(report.read_text(encoding="utf-8"))
    (row,) = payload["migrations"]
    assert sum(
        p["delta_s"] for p in row["phases"].values()
    ) == row["duration_delta_s"]


def test_diff_lists_unmatched_migrations(tmp_path):
    """A chain's second hop has no partner in a two-host trial."""
    import json

    chain = tmp_path / "chain.json"
    single = tmp_path / "migrate.json"
    report = tmp_path / "diff.json"
    assert run_cli(["chain", "minprog", "--trace", str(chain)])[0] == 0
    assert run_cli(["migrate", "minprog", "--trace", str(single)])[0] == 0
    hop = "minprog beta→gamma (pure-iou) trace=t2"
    code, text = run_cli(
        ["diff", str(chain), str(single), "--json", str(report)]
    )
    assert code == 1
    assert f"  only in A:\n    {hop}\n" in text
    assert "only in B" not in text
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["unmatched_a"] == [hop]
    assert payload["unmatched_b"] == []
    assert not payload["zero"]
    code, text = run_cli(["diff", str(single), str(chain)])
    assert code == 1
    assert f"  only in B:\n    {hop}\n" in text


def test_diff_incompatible_traces_fail_cleanly(tmp_path):
    code, text = run_cli(
        ["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    )
    assert code == 2
    assert text.startswith("cannot diff:")
    assert len([line for line in text.splitlines() if line.strip()]) == 1


def test_analyze_rejects_unstamped_trace(tmp_path):
    import json

    trace = tmp_path / "stamped.json"
    code, _ = run_cli(["migrate", "minprog", "--trace", str(trace)])
    assert code == 0
    data = json.loads(trace.read_text(encoding="utf-8"))
    del data["repro"]["trace_schema"]
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(data), encoding="utf-8")

    code, text = run_cli(["analyze", str(legacy)])
    assert code == 2
    assert "trace_schema" in text

    code, text = run_cli(["health", str(legacy)])
    assert code == 2
    assert "trace_schema" in text


def test_analyze_rejects_wrong_schema_version(tmp_path):
    import json

    trace = tmp_path / "stamped.json"
    code, _ = run_cli(["migrate", "minprog", "--trace", str(trace)])
    assert code == 0
    data = json.loads(trace.read_text(encoding="utf-8"))
    data["repro"]["trace_schema"] = 99
    future = tmp_path / "future.json"
    future.write_text(json.dumps(data), encoding="utf-8")
    code, text = run_cli(["analyze", str(future)])
    assert code == 2
    assert "trace_schema" in text


@pytest.mark.parametrize("argv, code, prefix", [
    (["balance", "chess", "--hosts", "1"], 2, "bad balance configuration: "),
    (["balance", "chess", "--inflight", "0"], 2, "bad balance configuration: "),
    (["stress", "--inflight", "0"], 2, "bad stress configuration: "),
    (["chain", "minprog", "--path", "alpha"], 2, "bad chain configuration: "),
    (["chain", "minprog", "--path", "alpha", "beta", "--run", "0.1", "0.2",
      "0.3"], 2, "bad chain configuration: "),
    (["precopy", "minprog", "--dirty-rate", "-5"], 2,
     "bad precopy configuration: "),
    (["faults", "minprog", "--loss", "2.0"], 2, "bad fault plan: "),
    (["migrate", "minprog", "--sample-period", "-1"], 2,
     "bad migrate configuration: "),
    (["balance", "chess", "--sample-period", "-1"], 2,
     "bad balance configuration: "),
    (["report", "/dev/null/x"], 1, "cannot write '/dev/null/x': "),
    (["export", "/dev/null/x"], 1, "cannot write '/dev/null/x': "),
    (["figures", "/dev/null/x"], 1, "cannot write '/dev/null/x': "),
])
def test_bad_input_and_unwritable_output_end_in_one_line(
    monkeypatch, argv, code, prefix
):
    class Matrix:
        def run_all(self):
            return 0

    # The report's 77 trials are beside the point: only its write fails.
    monkeypatch.setattr(
        "repro.experiments.runner.generate_report",
        lambda seed: ("report", Matrix()),
    )
    got, text = run_cli(argv)
    assert got == code
    assert len(text.splitlines()) == 1 and text.startswith(prefix), text


TRIAL_COMMANDS = [
    ["migrate", "minprog"],
    ["sweep", "minprog"],
    ["chain", "minprog"],
    ["precopy", "minprog"],
    ["balance", "minprog", "minprog", "--hosts", "2"],
    ["stress", "--hosts", "2", "--procs", "2"],
    ["serve", "--requests", "5"],
    ["faults", "minprog"],
]


@pytest.mark.parametrize("flag", ["--json", "--trace"])
@pytest.mark.parametrize("command", TRIAL_COMMANDS, ids=lambda argv: argv[0])
def test_trial_command_reports_an_unwritable_output(command, flag):
    code, text = run_cli([*command, flag, "/dev/null/x"])
    assert code == 1
    what = "trace " if flag == "--trace" else ""
    assert text.splitlines()[-1].startswith(
        f"cannot write {what}'/dev/null/x': "
    ), text


@pytest.mark.parametrize("command, flags, fields", [
    ("stress", ["--hosts", "1"], {"hosts": 1}),
    ("stress", ["--procs", "0"], {"procs": 0}),
    ("stress", ["--inflight", "0"], {"inflight_cap": 0}),
    ("stress", ["--rate", "0"], {"rate_per_s": 0}),
    ("stress", ["--burst-size", "0"], {"burst_size": 0}),
    ("stress", ["--batch", "0"], {"batch": 0}),
    ("stress", ["--pipeline", "0"], {"pipeline": 0}),
    ("stress", ["--prefetch", "-1"], {"prefetch": -1}),
    ("stress", ["--sample-period", "-1"], {"sample_period": -1}),
    ("serve", ["--hosts", "1"], {"hosts": 1}),
    ("serve", ["--procs", "0"], {"procs": 0}),
    ("serve", ["--inflight", "-1"], {"inflight_cap": -1}),
    ("serve", ["--rate", "0"], {"rate_per_s": 0}),
    ("serve", ["--request-rate", "0"], {"request_rate_per_s": 0}),
    ("serve", ["--request-burst", "0"], {"request_burst": 0}),
    ("serve", ["--retries", "-1"], {"retry_budget": -1}),
    ("serve", ["--dedup", "--batch", "0"], {"batch": 0}),
])
def test_stress_config_errors_reach_the_cli(command, flags, fields):
    """Every StressConfig rejection a flag can reach exits 2 with its
    message.  (Bad arrival patterns never get that far: argparse's
    ``choices`` reject them.)"""
    from repro.cluster import StressConfig

    with pytest.raises(ValueError) as rejected:
        StressConfig(**fields)
    code, text = run_cli([command, *flags])
    assert code == 2
    assert text == f"bad {command} configuration: {rejected.value}"

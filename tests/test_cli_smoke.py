"""End-to-end CLI smoke tests: the dashboard, analyzer, profiler and
differ, each driven by the same command lines a user would type."""

import json
import os

from repro.cli import main

SLO_SPEC = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "examples",
    "slo-freeze.json",
)


def run_cli(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(lines)


def test_fleet_health_dashboard(tmp_path):
    trace, html_path = tmp_path / "h.json", tmp_path / "h.html"
    report_path = tmp_path / "h-report.json"
    code, _ = run_cli(
        ["stress", "--hosts", "4", "--procs", "12", "--seed", "7",
         "--sample-period", "0.5", "--slo", SLO_SPEC, "--trace", str(trace)]
    )
    assert code == 0
    code, _ = run_cli(
        ["health", str(trace), "--html", str(html_path),
         "--json", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    (run,) = report["runs"]
    summary, telemetry = run["summary"], run["telemetry"]
    assert summary["ticks"] > 0, summary
    assert any(name.startswith("host.")
               for name in telemetry["series"]), (
        sorted(telemetry["series"]))
    assert summary["slo"]["specs"], summary["slo"]
    html = html_path.read_text(encoding="utf-8")
    assert "<svg" in html and "telemetry" in html.lower(), len(html)


def test_critical_path_analyzer(tmp_path):
    trace, report_path = tmp_path / "a.json", tmp_path / "a-report.json"
    assert run_cli(["migrate", "minprog", "--trace", str(trace)])[0] == 0
    code, _ = run_cli(["analyze", str(trace), "--json", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    (run,) = report["runs"]
    (migration,) = run["migrations"]
    attributed = sum(migration["phases"].values())
    assert abs(attributed - migration["duration_s"]) <= 0.01 * migration["duration_s"], (
        attributed, migration["duration_s"])
    assert run["fault_lifecycle"]["stages"]["request"]["p50"] > 0


def test_engine_profiler_flamegraph(tmp_path):
    # The reference stress shape: about 0.4 s of engine time, so about
    # 100 samples.  A 6-host/18-process run gave a starved sampler about
    # 8, too few for the coverage bound to hold.
    flame, report_path = tmp_path / "p.speedscope.json", tmp_path / "p-report.json"
    code, text = run_cli(
        ["profile", "--flamegraph", str(flame), "--json", str(report_path),
         "stress", "--hosts", "16", "--procs", "64", "--seed", "7"]
    )
    assert code == 0
    assert "per-layer host share" in text
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["coverage"] >= 0.95, report["coverage"]
    scope = json.loads(flame.read_text(encoding="utf-8"))
    profile = scope["profiles"][0]
    assert profile["type"] == "sampled"
    assert profile["samples"] and len(profile["samples"]) == len(profile["weights"])


def test_trace_diff(tmp_path):
    a, b = str(tmp_path / "d-a.json"), str(tmp_path / "d-b.json")
    report_path = tmp_path / "d.json"
    assert run_cli(
        ["migrate", "pm-mid", "--strategy", "pure-iou", "--trace", a]
    )[0] == 0
    assert run_cli(
        ["migrate", "pm-mid", "--strategy", "adaptive", "--batch", "8",
         "--pipeline", "4", "--trace", b]
    )[0] == 0
    code, text = run_cli(["diff", a, a])
    assert code == 0
    assert "no simulated differences" in text
    # A cross-options diff exits 1 (traces differ) with per-phase deltas.
    code, text = run_cli(["diff", a, b, "--json", str(report_path)])
    assert code == 1
    assert "traces differ" in text
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert not report["zero"]
    for row in report["migrations"]:
        total = sum(p["delta_s"] for p in row["phases"].values())
        assert total == row["duration_delta_s"], (total, row["duration_delta_s"])

"""The declared benchmark gates (``benchmarks/gate.py``).

Each committed ``BENCH_*.json`` must pass its own bench's ``GATE``, and
each rule must fail on a regression injected into a copy of it, with a
line naming the bench, the row and the rule.  No bench runs here.
"""

import ast
import copy
import importlib
import json
from pathlib import Path

import pytest

from benchmarks import gate

BENCHES = (
    "cluster_scale", "transfer_pipeline", "content_store", "serving",
    "engine_throughput", "obs_overhead",
)


def committed(name):
    """(GATE, committed artifact) of one bench."""
    module = importlib.import_module(f"benchmarks.bench_{name}")
    return module.GATE, gate.load(gate.artifact_path(name))


def row(artifact, **match):
    """The artifact row whose fields equal ``match``."""
    return next(
        candidate for candidate in artifact["rows"]
        if all(candidate[field] == value for field, value in match.items())
    )


def drop(artifact, **match):
    artifact["rows"].remove(row(artifact, **match))


def flipped(text):
    return text[:-1] + ("1" if text[-1] == "0" else "0")


def scale(record, field, factor):
    record[field] *= factor


SERIAL_PM = dict(workload="pm-mid", strategy="pure-iou", batch=1, pipeline=1)
BATCHED_PM = dict(workload="pm-mid", strategy="pure-iou", batch=8, pipeline=4)

#: (bench, injected regression, failing path, rule named in the line).
REGRESSIONS = [
    ("cluster_scale",
     lambda a: a.update(determinism_hash=flipped(a["determinism_hash"])),
     "determinism_hash", "exact"),
    ("cluster_scale",
     lambda a: row(a, inflight_cap=4).update(
         sustained_inflight=a["sustained_target"] - 1),
     "rows.4.sustained_inflight", "target >= sustained_target"),
    ("cluster_scale", lambda a: row(a, inflight_cap=2).update(verified=False),
     "rows.2.verified", "target == True"),
    ("cluster_scale", lambda a: drop(a, inflight_cap=8),
     "rows.8", "row missing from the fresh run"),
    ("cluster_scale",
     lambda a: row(a, inflight_cap=2).update(peak_host_inflight=3),
     "rows.2.peak_host_inflight", "target <= 2"),
    ("cluster_scale", lambda a: a.update(queue_shrinks_as_cap_grows=False),
     "queue_shrinks_as_cap_grows", "target == True"),
    ("transfer_pipeline",
     lambda a: row(a, workload="lisp-del", strategy="adaptive").update(
         verified=False),
     "rows.lisp-del/adaptive/8/4.verified", "target == True"),
    ("transfer_pipeline", lambda a: scale(row(a, **SERIAL_PM), "exec_s", 1.01),
     "rows.pm-mid/pure-iou/1/1.exec_s", "exact"),
    ("transfer_pipeline",
     lambda a: scale(row(a, workload="lisp-del", batch=1), "imag_faults", 2),
     "rows.lisp-del/pure-iou/1/1.imag_faults", "exact"),
    ("transfer_pipeline", lambda a: scale(row(a, **BATCHED_PM), "stall_s", 1.2),
     "rows.pm-mid/pure-iou/8/4.stall_s", "rise > 10%"),
    ("transfer_pipeline",
     lambda a: a["serial_matches_golden"].update({"lisp-del": False}),
     "serial_matches_golden.lisp-del", "target == True"),
    ("transfer_pipeline",
     lambda a: a["stall_reduction"].update({"pm-mid": 1.9}),
     "stall_reduction.pm-mid", "target >= stall_target"),
    ("transfer_pipeline",
     lambda a: drop(a, workload="pm-mid", batch=16),
     "rows.pm-mid/pure-iou/16/8", "row missing from the fresh run"),
    ("transfer_pipeline",
     lambda a: a["rows"].append(dict(row(a, **BATCHED_PM), batch=32)),
     "rows.pm-mid/pure-iou/32/4", "row missing from the committed artifact"),
    ("content_store", lambda a: row(a, arm="dedup-copy").update(verified=False),
     "rows.dedup-copy.verified", "target == True"),
    ("content_store", lambda a: scale(row(a, arm="store"), "bytes_total", 1.2),
     "rows.store.bytes_total", "rise > 10%"),
    ("content_store", lambda a: scale(row(a, arm="off"), "stall_s", 1.2),
     "rows.off.stall_s", "rise > 10%"),
    ("content_store", lambda a: a.update(off_matches_golden=False),
     "off_matches_golden", "target == True"),
    ("content_store", lambda a: a.update(bytes_reduction=1.4),
     "bytes_reduction", "target >= bytes_target"),
    ("content_store", lambda a: a.update(stall_reduction=1.0),
     "stall_reduction", "target > 1.0"),
    ("content_store", lambda a: drop(a, arm="dedup"),
     "rows.dedup", "row missing from the fresh run"),
    ("content_store", lambda a: row(a, arm="store").update(local_hits=0),
     "rows.store.local_hits", "target > 0"),
    ("content_store",
     lambda a: row(a, arm="dedup-copy").update(dedup_pages=0),
     "rows.dedup-copy.dedup_pages", "target > 0"),
    ("content_store", lambda a: a.update(dedup_copy_saves_half=False),
     "dedup_copy_saves_half", "target == True"),
    ("serving", lambda a: row(a, arm="adaptive-batched").update(verified=False),
     "rows.adaptive-batched.verified", "target == True"),
    ("serving",
     lambda a: scale(row(a, arm="pure-iou-batched"), "during_p99_s", 1.2),
     "rows.pure-iou-batched.during_p99_s", "rise > 10%"),
    ("serving",
     lambda a: a["during_p99_improvement"].update({"pure-iou-batched": 1.4}),
     "during_p99_improvement.pure-iou-batched", "target >= headline_target"),
    ("serving",
     lambda a: a["during_p99_improvement"].update({"adaptive-batched": 1.0}),
     "during_p99_improvement.adaptive-batched", "target > 1.0"),
    ("serving", lambda a: drop(a, arm="pure-iou-serial"),
     "rows.pure-iou-serial", "row missing from the fresh run"),
    ("serving",
     lambda a: row(a, arm="pure-iou-batched").update(
         determinism_hash=flipped(
             row(a, arm="pure-iou-batched")["determinism_hash"])),
     "rows.pure-iou-batched.determinism_hash", "exact"),
    ("engine_throughput", lambda a: row(a, shape="wide").update(verified=False),
     "rows.wide.verified", "target == True"),
    ("engine_throughput",
     lambda a: row(a, shape="reference").update(
         determinism_hash=flipped(row(a, shape="reference")["determinism_hash"])),
     "rows.reference.determinism_hash", "exact"),
    ("engine_throughput",
     lambda a: scale(row(a, shape="batched"), "events_per_s", 0.85),
     "rows.batched.events_per_s", "fall > 10%"),
    ("engine_throughput", lambda a: drop(a, shape="serving"),
     "rows.serving", "row missing from the fresh run"),
    ("engine_throughput",
     lambda a: row(a, shape="small").update(events_dispatched=0),
     "rows.small.events_dispatched", "target > 0"),
    ("engine_throughput", lambda a: a["profile"].update(coverage=0.94),
     "profile.coverage", "target >= 0.95"),
    ("engine_throughput", lambda a: a["profile"].update(wall_ratio=0.0),
     "profile.wall_ratio", "target > 0"),
    ("obs_overhead", lambda a: a.update(sampling_overhead_fraction=0.06),
     "sampling_overhead_fraction", "target < 0.05"),
]


def test_every_bench_module_is_a_gate_and_holds_no_tests():
    """A ``benchmarks/bench_*.py`` declares ``measure`` and ``GATE`` and
    nothing pytest collects: its checks are ``GATE`` rules, or tier-1
    tests when they are no property of the artifact."""
    paths = sorted(Path(gate.REPO_ROOT, "benchmarks").glob("bench_*.py"))
    assert sorted(path.stem[len("bench_"):] for path in paths) == sorted(
        BENCHES)
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        defined = {node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef)}
        defined |= {target.id for node in tree.body
                    if isinstance(node, ast.Assign) for target in node.targets
                    if isinstance(target, ast.Name)}
        assert {"measure", "GATE"} <= defined, path.name
        tests = [node.name for node in nodes
                 if isinstance(node, ast.FunctionDef)
                 and node.name.startswith("test")]
        imported = [alias.name for node in nodes
                    if isinstance(node, ast.Import) for alias in node.names]
        imported += [node.module or "" for node in nodes
                     if isinstance(node, ast.ImportFrom)]
        assert tests == [], path.name
        assert "pytest" not in {name.split(".")[0] for name in imported}, (
            path.name)


@pytest.mark.parametrize("name", BENCHES)
def test_committed_artifact_passes_its_own_gate(name):
    spec, artifact = committed(name)
    assert gate.check(name, spec, copy.deepcopy(artifact), artifact) == []
    assert gate.summary(spec, artifact, artifact).startswith("### ")


@pytest.mark.parametrize(
    "name, inject, path, rule", REGRESSIONS,
    ids=[f"{name}:{path}" for name, _, path, _ in REGRESSIONS],
)
def test_injected_regression_fails_naming_bench_row_and_rule(
        name, inject, path, rule):
    spec, artifact = committed(name)
    fresh = copy.deepcopy(artifact)
    inject(fresh)
    failures = gate.check(name, spec, fresh, artifact)
    assert any(
        line.startswith(f"{name}: {path}: ") and rule in line
        for line in failures
    ), failures


@pytest.mark.parametrize("name, inject", [
    ("transfer_pipeline",
     lambda a: scale(row(a, **BATCHED_PM), "stall_s", 1.05)),
    ("transfer_pipeline", lambda a: scale(row(a, **SERIAL_PM), "wall_s", 3)),
    ("content_store", lambda a: scale(row(a, arm="store"), "bytes_total", 0.5)),
    ("engine_throughput",
     lambda a: scale(row(a, shape="batched"), "events_per_s", 0.95)),
    ("engine_throughput",
     lambda a: scale(row(a, shape="batched"), "events_per_s", 2.0)),
], ids=["stall+5%", "serial-wall_s", "bytes-halved", "events-5%",
        "events-doubled"])
def test_moves_within_tolerance_or_in_host_time_pass(name, inject):
    spec, artifact = committed(name)
    fresh = copy.deepcopy(artifact)
    inject(fresh)
    assert gate.check(name, spec, fresh, artifact) == []


def test_a_dict_table_renders_as_one_row():
    spec = {"title": "demo", "tables": {"profile": ("coverage", "lanes.far")}}
    artifact = {"profile": {"coverage": 0.99, "lanes": {"far": 38}}}
    assert gate.summary(spec, artifact, artifact).splitlines()[-1] == (
        "| 0.990 | 38 |")


def test_a_rule_matching_nothing_fails():
    spec = {"targets": (("missing.*", ">", 1.0),)}
    (line,) = gate.check("demo", spec, {}, {})
    assert line == "demo: missing.*: target > 1.0: no value at this path"


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_same_ignores_only_the_host_block(tmp_path):
    run = {"config": {"seed": 7}, "verified": True, "events_dispatched": 10}
    a = _write(tmp_path, "a.json", dict(run, host={"wall_s": 0.1}))
    b = _write(tmp_path, "b.json", dict(run, host={"wall_s": 0.9}))
    c = _write(tmp_path, "c.json", run)
    assert gate.same(a, b) == gate.same(a, c) == []
    assert gate.main(["same", a, b]) == 0

    d = _write(tmp_path, "d.json",
               dict(run, config={"seed": 8}, host={"wall_s": 0.1}))
    assert gate.same(a, d) == [f"{a} and {d} differ in 'config'"]
    assert gate.main(["same", a, d]) == 1


def test_suite_table_prints_host_metrics_per_workload(tmp_path, capsys):
    metrics = {"wall_s": 9.25, "setup_s": 0.8, "peak_rss_mb": 61.4765625,
               "makespan_s": 303.4}
    out = _write(tmp_path, "suite.json", {"seed": 1987, "summaries": {
        "cluster-iou": {"metrics": metrics},
        "serve-mix": {"metrics": dict(metrics, wall_s=12.0)},
    }})
    assert gate.main(["suite", out]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "### Benchmark suite, end to end",
        "",
        "| workload | wall_s | setup_s | peak_rss_mb |",
        "| --- | --- | --- | --- |",
        "| cluster-iou | 9.250 | 0.800 | 61.477 |",
        "| serve-mix | 12.000 | 0.800 | 61.477 |",
    ]


def test_cli_rejects_bad_usage_without_running_a_bench(capsys):
    assert gate.main([]) == 2
    assert gate.main(["same", "only-one.json"]) == 2
    assert gate.main(["suite"]) == 2
    assert gate.main(["no_such_bench"]) == 1
    assert "no_such_bench" in capsys.readouterr().err

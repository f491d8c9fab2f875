"""Checks on the benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/suite
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.suite import layers, run, workloads
from benchmarks.suite.probes import Probes, StackSampler
from repro.cluster.stress import StressConfig, run_stress
from repro.testbed import Testbed

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_names_are_well_formed():
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert len(run.END_TO_END) <= 16
    assert len(run.PER_LAYER) <= 128


def test_benchmark_json_matches_the_runner():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    for section, catalogue in (("end_to_end", run.END_TO_END),
                               ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert declared == {
            name: (unit, better) for name, (unit, _, better) in catalogue.items()
        }
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_source_file_maps_to_exactly_one_layer():
    package = os.path.join(ROOT, "src", "repro")
    seen = 0
    for directory, _, files in os.walk(package):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            relpath = os.path.relpath(os.path.join(directory, filename), package)
            matches = layers.layers_of(relpath.replace(os.sep, "/"))
            assert len(matches) == 1, (relpath, matches)
            seen += 1
    assert seen > 50


def test_sampled_shares_cover_declared_layers_and_sum_to_one():
    sampler = StackSampler(layers.LayerMap(os.path.join(ROOT, "src", "repro")))
    sampler.start()
    try:
        result = Testbed(seed=1987).migrate("minprog", strategy="pure-iou")
    finally:
        sampler.stop()
    assert result.verified
    assert sum(sampler.counts.values()) > 0
    assert set(sampler.counts) <= set(layers.LAYERS)
    shares = run.host_shares([sampler.counts])
    assert list(shares) == list(layers.LAYERS)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_mark_probe_matches_the_trial_phases():
    with Probes() as probes:
        results = [
            Testbed(seed=1987).migrate(name, strategy=strategy)
            for name, strategy in (("minprog", "pure-iou"), ("chess", "pure-copy"))
        ]
    assert probes.events > 0
    assert probes.phase_s["excise"] == pytest.approx(sum(r.excise_s for r in results))
    assert probes.phase_s["insert"] == pytest.approx(sum(r.insert_s for r in results))


def test_pinned_schedule_fixes_only_the_migration_schedule():
    def moves(seed):
        with workloads.pinned_schedule():
            result = run_stress(StressConfig(hosts=4, procs=8, seed=seed))
        return result, [(t.process_name, t.dest) for t in result.tickets]

    pinned_default, default_moves = moves(1987)
    assert (pinned_default.determinism_hash
            == run_stress(StressConfig(hosts=4, procs=8, seed=1987)).determinism_hash)
    other, other_moves = moves(5)
    assert other_moves == default_moves
    assert other.determinism_hash != pinned_default.determinism_hash


def test_serve_mix_repeats_exactly_in_process():
    serve_mix = workloads.WORKLOADS["serve-mix"]
    measured = []
    for _ in range(2):
        with Probes() as probes:
            result = serve_mix.run(workloads.DEFAULT_SEED)
        measured.append(serve_mix.measure(result, probes))
    first, second = measured
    assert first["sim"] == second["sim"]
    assert first["counts"] == second["counts"]
    assert first["digest"] == second["digest"]
    with open(run.EXPECTED, encoding="utf-8") as handle:
        assert first["digest"] == json.load(handle)["digests"]["serve-mix"]
    assert all(first["checks"].values())
    assert first["failed"] == 0


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, *_benchmark_json()["command"][1:],
         "--workload", "serve-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode not in (0, None)
    assert done.stdout.strip() == ""

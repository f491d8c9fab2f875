"""The sampling engine profiler: attribution without perturbation."""

import json
import sys

import pytest

from repro.cluster.stress import StressConfig, run_stress
from repro.obs import jsonl_lines
from repro.obs.layers import LAYERS
from repro.obs.prof import (
    INTERVAL_S,
    EngineProfiler,
    build_speedscope,
    profiled,
    render_profile,
    write_speedscope,
)
from repro.sim.engine import Engine
from repro.sim.errors import SimulationError
from repro.testbed import Testbed

CONFIG = StressConfig(hosts=3, procs=6, seed=7)


def _jsonl_blob(result):
    return "\n".join(jsonl_lines([("stress", result.obs)])).encode()


class TestNonPerturbation:
    """--profile runs replay byte-identical to profiler-off runs."""

    def test_stress_trace_and_hash_are_byte_identical(self):
        plain = run_stress(CONFIG, instrument=True)
        profiler = EngineProfiler()
        with profiled(profiler):
            traced = run_stress(CONFIG, instrument=True)
        assert profiler.report()["events"] > 0  # the engine was recorded
        assert _jsonl_blob(plain) == _jsonl_blob(traced)
        assert plain.determinism_hash == traced.determinism_hash

    def test_migration_timings_are_identical(self):
        plain = Testbed().migrate("minprog")
        with profiled(EngineProfiler()):
            traced = Testbed().migrate("minprog")
        assert traced.migration_s == plain.migration_s
        assert traced.exec_s == plain.exec_s
        assert traced.bytes_total == plain.bytes_total

    def test_hook_restored_after_context(self):
        from repro.sim import engine as engine_module

        switch = sys.getswitchinterval()
        assert engine_module.PROFILED is None
        profiler = EngineProfiler()
        with profiled(profiler):
            assert engine_module.PROFILED is profiler.engines
            assert sys.getswitchinterval() == INTERVAL_S
        assert engine_module.PROFILED is None
        assert sys.getswitchinterval() == switch
        Engine()
        assert profiler.engines == []

    def test_engines_built_outside_context_stay_unhooked(self):
        before = Engine()
        with profiled(EngineProfiler()) as profiler:
            inside = Engine()
        assert profiler.engines == [inside]
        assert before not in profiler.engines


class TestDispatchModes:
    """All three Engine.run modes behave the same with the profiler's
    hooks attached."""

    @staticmethod
    def _ticker(eng, marks):
        def proc(eng):
            for _ in range(5):
                yield eng.timeout(1.0)
                marks.append(eng.now)
            return "done"
        return eng.process(proc(eng), name="ticker")

    def test_until_none(self):
        marks = []
        with profiled(EngineProfiler()) as profiler:
            eng = Engine()
            self._ticker(eng, marks)
            assert eng.run() is None
        assert marks == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert profiler.report()["events"] > 0

    def test_until_event_returns_value(self):
        with profiled(EngineProfiler()):
            eng = Engine()
            proc = self._ticker(eng, [])
            assert eng.run(proc) == "done"

    def test_until_horizon_clamps_clock(self):
        marks = []
        with profiled(EngineProfiler()):
            eng = Engine()
            self._ticker(eng, marks)
            eng.run(until=2.5)
            assert eng.now == 2.5
        assert marks == [1.0, 2.0]

    def test_until_event_deadlock_raises(self):
        with profiled(EngineProfiler()):
            eng = Engine()
            orphan = eng.event()  # never triggered
            with pytest.raises(SimulationError):
                eng.run(orphan)

    def test_past_horizon_raises(self):
        with profiled(EngineProfiler()):
            eng = Engine(initial_time=10.0)
            with pytest.raises(SimulationError):
                eng.run(until=5.0)


class TestEngineAttachment:
    def test_every_sequential_engine_is_attached(self):
        """A sweep builds, runs and drops one engine per trial; each is
        recorded, and the report sums their dispatch counters."""
        n = 50
        profiler = EngineProfiler()
        with profiled(profiler):
            for _ in range(n):
                eng = Engine()
                eng.timeout(1.0)
                eng.run()
                del eng
        report = profiler.report()
        assert report["engines"] == len(profiler.engines) == n
        assert report["events"] == n
        assert report["engine_wall_s"] == pytest.approx(
            sum(engine.wall_s for engine in profiler.engines))

    def test_cancelled_entry_is_counted_as_skipped(self):
        """A cancelled entry is skipped: neither the engine nor the
        profile counts it as an event."""
        profiler = EngineProfiler()
        with profiled(profiler):
            eng = Engine()
            victim = eng.timeout(2.0)
            eng.timeout(1.0).callbacks.append(lambda event: victim.cancel())
            eng.run()
        assert profiler.report()["events"] == eng.dispatched == 1


@pytest.fixture(scope="module")
def stress_profiler():
    """One profiled run of the reference stress shape: about 0.4 s of
    engine time, so about 100 samples, where the sim layer's share
    (a quarter to a third) leaves no real chance of it going unsampled.
    An 8-host/24-process run gave about 35 samples and could miss the
    sim layer."""
    profiler = EngineProfiler()
    with profiled(profiler):
        run_stress(StressConfig(hosts=16, procs=64, seed=7))
    return profiler


@pytest.fixture
def report(stress_profiler):
    return stress_profiler.report()


class TestAttribution:
    def test_coverage_is_at_least_95_percent(self, report):
        assert report["coverage"] >= 0.95
        assert report["samples"] > 0
        assert report["engine_wall_s"] > 0

    def test_layer_shares_sum_to_one(self, report):
        assert sum(report["layers"].values()) == pytest.approx(1.0)
        assert sum(row["share"] for row in report["functions"]) == (
            pytest.approx(1.0))

    def test_every_reported_layer_is_declared(self, report):
        assert list(report["layers"]) == list(LAYERS)
        assert {row["layer"] for row in report["functions"]} <= set(LAYERS)
        for row in report["stacks"]:
            assert {layer for layer, _ in row["stack"]} <= set(LAYERS)

    def test_event_counts_match_engine(self, stress_profiler, report):
        (engine,) = stress_profiler.engines
        assert report["events"] == engine.dispatched > 0
        assert report["engine_wall_s"] == engine.wall_s

    def test_functions_are_innermost_frames(self, report):
        """Each sample lands in the bucket of its innermost frame, so
        the buckets count every sample that found a ``repro`` frame."""
        assert sum(row["samples"] for row in report["functions"]) == sum(
            row["samples"] for row in report["stacks"])
        innermost = {tuple(row["stack"][-1]) for row in report["stacks"]}
        assert {(row["layer"], row["function"])
                for row in report["functions"]} == innermost
        assert all(":" in row["function"] for row in report["functions"])
        for layer, share in report["layers"].items():
            assert share == pytest.approx(sum(
                row["share"] for row in report["functions"]
                if row["layer"] == layer))

    def test_layers_cover_the_scenario(self, report):
        sampled = {layer for layer, share in report["layers"].items()
                   if share}
        # The engine itself runs under every stress command.
        assert "sim" in sampled

    def test_render_profile_mentions_top_center(self, report):
        text = render_profile(report, top=5)
        assert report["functions"][0]["function"] in text
        assert "events dispatched" in text
        assert "per-layer host share" in text


class TestSpeedscope:
    def test_speedscope_file_is_loadable_and_consistent(self, report, tmp_path):
        path = tmp_path / "profile.speedscope.json"
        write_speedscope(str(path), report, name="test profile")
        data = json.loads(path.read_text())
        assert data["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        profile = data["profiles"][0]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"])
        assert len(profile["samples"]) == len(report["stacks"])
        frames = data["shared"]["frames"]
        for stack in profile["samples"]:
            assert stack
            assert all(0 <= fid < len(frames) for fid in stack)
        # Weights are milliseconds: samples times the sampling period.
        in_program = sum(row["samples"] for row in report["stacks"])
        total_ms = sum(profile["weights"])
        assert total_ms == pytest.approx(
            in_program * report["interval_s"] * 1e3)
        assert profile["endValue"] == pytest.approx(total_ms)

    def test_stacks_run_outermost_first(self, report):
        """The sampled stacks start at the command's outer frames and
        end in the frame that was running."""
        data = build_speedscope(report)
        frames = [f["name"] for f in data["shared"]["frames"]]
        profile = data["profiles"][0]
        for stack, row in zip(profile["samples"], report["stacks"]):
            layer, function = row["stack"][-1]
            assert frames[stack[-1]] == f"{function} [{layer}]"
        roots = {frames[stack[0]] for stack in profile["samples"]}
        assert any("run_stress" in root for root in roots)

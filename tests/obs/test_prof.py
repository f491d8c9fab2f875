"""The host-time engine profiler: attribution without perturbation."""

import json

import pytest

from repro.cluster.stress import StressConfig, run_stress
from repro.obs import jsonl_lines
from repro.obs.prof import (
    EngineProfiler,
    build_speedscope,
    classify_handler,
    normalize,
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
        assert profiler.events > 0  # the hook actually engaged
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

        assert engine_module.PROFILER is None
        with profiled(EngineProfiler()):
            assert engine_module.PROFILER is not None
        assert engine_module.PROFILER is None
        assert Engine().profiler is None

    def test_engines_built_outside_context_stay_unhooked(self):
        before = Engine()
        with profiled(EngineProfiler()):
            inside = Engine()
        assert before.profiler is None
        assert inside.profiler is not None


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
        assert profiler.events > 0

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
        adopted, even where CPython reuses a collected engine's id."""
        n = 50
        profiler = EngineProfiler()
        with profiled(profiler):
            for _ in range(n):
                eng = Engine()
                eng.timeout(1.0)
                eng.run()
                del eng
        far = profiler.report()["queue"]["far"]
        assert profiler.engines == n
        assert far["pushes"] == n
        assert far["pops"] == far["pushes"]
        assert far["rolls"] == n

    def test_cancelled_entry_is_counted_as_skipped(self):
        profiler = EngineProfiler()
        with profiled(profiler):
            eng = Engine()
            victim = eng.timeout(2.0)
            eng.timeout(1.0).callbacks.append(lambda event: victim.cancel())
            eng.run()
        queue = profiler.report()["queue"]
        assert profiler.events == eng.dispatched == 1
        assert queue["skipped"] == 1
        assert queue["near"]["pops"] == 2
        assert queue["far"]["pops"] == queue["far"]["pushes"] == 2


class TestAttribution:
    def _profiled_stress(self):
        profiler = EngineProfiler()
        with profiled(profiler):
            run_stress(CONFIG)
        return profiler

    def test_coverage_is_at_least_95_percent(self):
        profiler = self._profiled_stress()
        report = profiler.report()
        assert report["coverage"] >= 0.95
        assert report["engine_wall_s"] > 0

    def test_cost_center_time_tiles_engine_wall_time(self):
        profiler = self._profiled_stress()
        report = profiler.report()
        total = sum(row["self_s"] for row in report["cost_centers"])
        assert total == pytest.approx(report["engine_wall_s"], rel=0.05)

    def test_event_counts_match_engine(self):
        profiler = self._profiled_stress()
        report = profiler.report()
        counted = sum(
            row["count"] for row in report["cost_centers"]
            if row["subsystem"] not in ("profiler", "queue")
        )
        assert counted == report["events"] == profiler.events
        # Every dispatched event is one near-lane pop (no cancels here).
        assert report["queue"]["near"]["pops"] == report["events"]

    def test_queue_costs_and_peak_depth_recorded(self):
        profiler = self._profiled_stress()
        report = profiler.report()
        queue = report["queue"]
        assert queue["pushes"] > 0
        assert queue["push_s"] > 0
        assert queue["pop_s"] > 0
        assert queue["peak_depth"] > 1

    def test_per_lane_queue_stats_are_consistent(self):
        """The whole-queue totals are exactly the per-lane sums, every
        far-lane push eventually rolls back out through the near lane,
        and nothing was skipped in a cancel-free run."""
        profiler = self._profiled_stress()
        report = profiler.report()
        queue = report["queue"]
        near, far = queue["near"], queue["far"]
        assert queue["pushes"] == near["pushes"] + far["pushes"]
        assert queue["pops"] == near["pops"] + far["pops"]
        assert queue["push_s"] == pytest.approx(
            near["push_s"] + far["push_s"])
        assert queue["pop_s"] == pytest.approx(near["pop_s"] + far["pop_s"])
        assert queue["skipped"] == 0
        # A stress run schedules real (strictly-future) timeouts: both
        # lanes see traffic, and every far push is eventually rolled.
        assert near["pushes"] > 0 and far["pushes"] > 0
        assert far["pops"] == far["pushes"]
        assert far["rolls"] > 0
        assert near["peak_depth"] > 0 and far["peak_depth"] > 1
        assert queue["peak_depth"] <= near["peak_depth"] + far["peak_depth"]

    def test_subsystems_cover_the_scenario(self):
        profiler = self._profiled_stress()
        subsystems = set(profiler.subsystems())
        # A stress run exercises at least these engine subsystems.
        assert {"workload", "net", "scheduler", "migration"} <= subsystems

    def test_allocations_counted(self):
        profiler = self._profiled_stress()
        report = profiler.report()
        assert sum(r["alloc_blocks"] for r in report["cost_centers"]) > 0

    def test_render_profile_mentions_top_center(self):
        profiler = self._profiled_stress()
        report = profiler.report()
        text = render_profile(report, top=5)
        top = report["cost_centers"][0]
        assert top["handler"] in text
        assert "events dispatched" in text
        assert "per-subsystem rollup" in text


class TestClassification:
    @pytest.mark.parametrize("name,subsystem", [
        ("node3-migmgr", "migration"),
        ("alpha-ship-core", "migration"),
        ("frag-imag.read", "net"),
        ("beta-nms", "net"),
        ("beta-nms-backer", "pager"),
        ("alpha-pager-dispatch", "pager"),
        ("alpha-flusher", "flusher"),
        ("telemetry-sampler", "telemetry"),
        ("stress-arrivals", "scheduler"),
        ("balancer", "scheduler"),
        ("serve-kv-1", "serve"),
        ("client-3", "serve"),
        ("job-p12", "workload"),
        ("fault-crash-alpha", "faults"),
        ("mystery-daemon", "other"),
    ])
    def test_handler_classification(self, name, subsystem):
        assert classify_handler(normalize(name)) == subsystem

    def test_normalize_collapses_instance_ids(self):
        assert normalize("follow-p03") == normalize("follow-p17")


class TestSpeedscope:
    def test_speedscope_file_is_loadable_and_consistent(self, tmp_path):
        profiler = EngineProfiler()
        with profiled(profiler):
            run_stress(CONFIG)
        report = profiler.report()
        path = tmp_path / "profile.speedscope.json"
        write_speedscope(str(path), report, name="test profile")
        data = json.loads(path.read_text())
        assert data["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        profile = data["profiles"][0]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"])
        assert len(profile["samples"]) == len(report["cost_centers"])
        frames = data["shared"]["frames"]
        for stack in profile["samples"]:
            assert all(0 <= fid < len(frames) for fid in stack)
        # Weights are microseconds summing to the attributed time.
        total_us = sum(profile["weights"])
        assert total_us == pytest.approx(report["attributed_s"] * 1e6,
                                         rel=0.01)
        assert profile["endValue"] == pytest.approx(total_us, abs=0.01)

    def test_stacks_roll_up_subsystem_handler_event(self):
        profiler = EngineProfiler()
        with profiled(profiler):
            run_stress(CONFIG)
        data = build_speedscope(profiler.report())
        frames = [f["name"] for f in data["shared"]["frames"]]
        sample = data["profiles"][0]["samples"][0]
        assert len(sample) in (2, 3)
        # Root frame of each stack is a subsystem name.
        subsystems = set(profiler.subsystems())
        assert frames[sample[0]] in subsystems

"""Critical-path analysis: phase attribution that sums exactly."""

import pytest

from repro.obs import analyze_run, build_chrome, load_chrome, render_analysis
from repro.obs.critpath import classify, critical_path, phase_breakdown
from repro.obs.span import Tracer
from repro.testbed import Testbed
from repro.workloads.builder import build_process
from repro.workloads.registry import WORKLOADS
from repro.workloads.runner import RemoteRunResult, remote_body


def make_tracer():
    clock = {"now": 0.0}
    tracer = Tracer(clock=lambda: clock["now"])
    return tracer, clock


# -- unit ------------------------------------------------------------------------
def test_classify_names_phases_and_inherits_ship_ops():
    assert classify("precopy") == "precopy"
    assert classify("excise") == "excise"
    assert classify("core") == "core-ship"
    assert classify("rimas") == "rimas-ship"
    assert classify("insert") == "insert"
    assert classify("exec") == "compute"
    assert classify("fault") == "residual-faults"
    assert classify("imag-serve") == "residual-faults"
    assert classify("flush-batch") == "flusher"
    assert classify("ship imag.read") == "residual-faults"
    assert classify("ship imag.push") == "flusher"
    # Ships of phase-owned messages inherit the enclosing phase.
    assert classify("ship migrate.core") is None
    assert classify("retransmit") is None
    assert classify("iou-cache") is None


def test_critical_path_partitions_the_root_exactly():
    tracer, clock = make_tracer()
    root = tracer.span("migrate", trace_id="t1")
    excise = root.child("excise")
    clock["now"] = 1.0
    excise.finish()
    transfer = root.child("transfer")
    core = transfer.child("core")
    ship = core.child("ship migrate.core", track="nms/alpha")
    clock["now"] = 2.0
    ship.finish()
    core.finish()
    rimas = transfer.child("rimas")
    clock["now"] = 2.5
    rimas.finish()
    transfer.finish()
    # A gap before insert: uncategorised root self-time.
    clock["now"] = 2.75
    insert = root.child("insert")
    clock["now"] = 3.0
    insert.finish()
    root.finish()

    segments = critical_path(root)
    total = sum(s.end - s.start for s in segments)
    assert total == pytest.approx(root.duration, abs=0.0)
    phases = phase_breakdown(segments)
    assert phases["excise"] == pytest.approx(1.0)
    # The ship inherits core's phase; core-ship owns [1.0, 2.0).
    assert phases["core-ship"] == pytest.approx(1.0)
    assert phases["rimas-ship"] == pytest.approx(0.5)
    assert phases["insert"] == pytest.approx(0.25)
    assert phases["other"] == pytest.approx(0.25)
    assert sum(phases.values()) == pytest.approx(3.0, abs=0.0)


def test_freeze_and_out_of_interval_children_never_claim_time():
    tracer, clock = make_tracer()
    root = tracer.span("migrate")
    freeze = root.child("freeze", track="freeze")
    excise = root.child("excise")
    clock["now"] = 2.0
    excise.finish()
    freeze.finish()
    root.finish()
    # A flush batch parented under the root but running after it ended
    # (the flusher outlives the migration) is clipped away entirely.
    clock["now"] = 5.0
    late = root.child("flush-batch", track="flusher/alpha")
    clock["now"] = 6.0
    late.finish()

    phases = phase_breakdown(critical_path(root))
    assert "flusher" not in phases
    assert sum(phases.values()) == pytest.approx(2.0, abs=0.0)
    assert phases == {"excise": pytest.approx(2.0)}


def test_overlapping_children_are_clipped_in_start_order():
    tracer, clock = make_tracer()
    root = tracer.span("exec")
    fault_a = root.child("fault")
    clock["now"] = 1.0
    fault_b = root.child("fault")  # overlaps a's tail
    clock["now"] = 1.5
    fault_a.finish()
    clock["now"] = 2.0
    fault_b.finish()
    clock["now"] = 3.0
    root.finish()

    segments = critical_path(root, phase="compute")
    total = sum(s.end - s.start for s in segments)
    assert total == pytest.approx(3.0, abs=0.0)
    phases = phase_breakdown(segments)
    assert phases["residual-faults"] == pytest.approx(2.0)
    assert phases["compute"] == pytest.approx(1.0)


# -- integration: a real migration, live and loaded ------------------------------
@pytest.fixture(scope="module")
def result():
    return Testbed(seed=1987, instrument=True).migrate(
        "minprog", strategy="pure-iou"
    )


def test_analyze_run_sums_phases_to_the_root_span(result):
    result.obs.finalize()
    (run,) = load_chrome(build_chrome([("minprog", result.obs)]))
    report = analyze_run(run)
    (migration,) = report["migrations"]
    assert migration["process"] == "minprog"
    assert migration["strategy"] == "pure-iou"
    assert migration["trace_id"] == "t1"
    attributed = sum(migration["phases"].values())
    # The acceptance bound is ±1%; construction gives ~exact (only
    # microsecond rounding in the trace file separates them).
    assert attributed == pytest.approx(migration["duration_s"], rel=1e-6)
    assert migration["duration_s"] == pytest.approx(
        result.migration_s, rel=1e-6
    )
    for phase in ("excise", "core-ship", "rimas-ship", "insert"):
        assert migration["phases"].get(phase, 0) > 0
    # The path itself tiles [start, end) with no overlap.
    cursor = migration["start"]
    for step in migration["path"]:
        assert step["start"] == pytest.approx(cursor, abs=1e-9)
        cursor = step["end"]
    assert cursor == pytest.approx(migration["end"], abs=1e-9)


def test_analyze_run_attributes_post_insertion_time(result):
    result.obs.finalize()
    (run,) = load_chrome(build_chrome([("minprog", result.obs)]))
    report = analyze_run(run)
    post = report["post_insertion"]
    assert post["phases"]["residual-faults"] > 0
    assert post["phases"]["compute"] > 0
    assert sum(post["phases"].values()) == pytest.approx(
        post["duration_s"], rel=1e-6
    )
    lifecycle = report["fault_lifecycle"]
    assert lifecycle["count"] == result.faults["imaginary"]
    for stage in ("request", "service", "reply"):
        assert lifecycle["stages"][stage]["p50"] > 0


def test_render_analysis_prints_the_breakdown(result):
    result.obs.finalize()
    (run,) = load_chrome(build_chrome([("minprog", result.obs)]))
    text = render_analysis(analyze_run(run))
    assert "migration of minprog (pure-iou)  trace=t1" in text
    assert "excise" in text and "core-ship" in text
    assert "= attributed" in text
    assert "post-insertion execution" in text
    assert "fault lifecycle:" in text
    assert "p95=" in text


def test_analyze_charges_precopy_rounds_to_their_own_phase():
    result = Testbed(seed=1987, instrument=True).migrate_precopy("minprog")
    result.obs.finalize()
    (run,) = load_chrome(build_chrome([("minprog", result.obs)]))
    (migration,) = analyze_run(run)["migrations"]
    phases, total = migration["phases"], migration["duration_s"]
    assert sum(phases.values()) == pytest.approx(total, rel=1e-6)
    assert phases["precopy"] > 0.5 * total
    assert phases.get("other", 0.0) < 0.01 * total


# -- overlapping migrations must not cross-attribute ------------------------------
def test_overlapping_roots_keep_fault_time_in_their_own_trace():
    """While one migrated process executes remotely (raising residual
    imaginary faults), a second migration runs on the same link.  The
    faults belong to the *first* process's exec root; the concurrent
    migration's critical path must contain no residual-fault time and
    its transfer span must count only its own core/RIMAS bytes."""
    bed = Testbed(seed=77, instrument=True)
    world = bed.world(host_names=("alpha", "beta", "gamma"))
    runner = build_process(
        world.source, WORKLOADS["minprog"], world.streams, name="runner"
    )
    build_process(
        world.source, WORKLOADS["minprog"], world.streams, name="mover"
    )
    obs = world.obs
    runner_inserted = world.manager("beta").expect_insertion("runner")

    def drive_runner():
        yield from world.manager("alpha").migrate(
            "runner", world.manager("beta"), "pure-iou"
        )
        inserted = yield runner_inserted
        result = RemoteRunResult("runner")
        with obs.phase(obs.tracer.span("exec", process="runner")):
            yield from remote_body(
                world.host("beta"), inserted, runner.trace, result
            )
        return result

    def drive_mover():
        # Start once the runner executes remotely, so the mover's
        # migration overlaps the runner's residual-fault traffic.
        yield runner_inserted
        insertion = world.manager("gamma").expect_insertion("mover")
        yield from world.manager("alpha").migrate(
            "mover", world.manager("gamma"), "pure-iou"
        )
        yield insertion

    pa = world.engine.process(drive_runner(), name="drive-runner")
    pb = world.engine.process(drive_mover(), name="drive-mover")
    run_result = world.engine.run(until=pa)
    world.engine.run(until=pb)
    world.engine.run()
    obs.finalize()
    assert run_result.verified

    roots = obs.tracer.roots
    mover_root = next(
        s for s in roots
        if s.name == "migrate" and s.attrs.get("process") == "mover"
    )
    exec_root = next(s for s in roots if s.name == "exec")
    fault_spans = obs.tracer.find("fault")
    assert fault_spans, "the runner must raise residual faults"

    # The mover's migration overlapped the runner's remote execution —
    # otherwise this test exercises nothing.
    assert mover_root.start < exec_root.end
    assert exec_root.start < mover_root.end

    # Every fault span belongs to the runner's exec subtree, never to
    # the concurrently-open mover migration.
    exec_subtree = {id(s) for s in exec_root.walk()}
    mover_subtree = {id(s) for s in mover_root.walk()}
    for fault in fault_spans:
        assert id(fault) in exec_subtree
        assert id(fault) not in mover_subtree

    # The mover's critical path holds no residual-fault time.
    phases = phase_breakdown(critical_path(mover_root))
    assert "residual-faults" not in phases

    # Shared-link byte attribution: the mover's transfer span counts
    # exactly its own core + RIMAS bytes, no bleed-through from the
    # runner's concurrent fault traffic.
    transfer = next(s for s in mover_root.children if s.name == "transfer")
    assert transfer.counters["bytes"] == (
        transfer.counters.get("bytes.migrate.core", 0)
        + transfer.counters.get("bytes.migrate.rimas", 0)
    )
    # And the runner's fault traffic landed on its exec span.
    assert exec_root.counters.get("faults.imaginary", 0) > 0
    assert exec_root.counters.get("bytes", 0) > 0


def test_analyze_run_without_migrations_reports_none():
    tracer, clock = make_tracer()

    class FakeRun:
        label = "empty"
        roots = []
        faults = []

    report = analyze_run(FakeRun())
    assert report["migrations"] == []
    assert report["post_insertion"] is None
    assert report["fault_lifecycle"] is None
    text = render_analysis(report)
    assert "no migrate span" in text

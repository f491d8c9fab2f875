"""End-to-end fault outcomes: the ISSUE's three acceptance scenarios.

Each trial is fully deterministic given the seed, so these assert on
exact outcomes rather than statistical tendencies.
"""

from functools import partial

import pytest

from repro.accent.process import ProcessStatus
from repro.cluster import StressConfig, run_stress
from repro.migration.manager import MigrationAborted
from repro.migration.precopy import default_dirty_rate
from repro.sim import SeededStreams
from repro.testbed import Testbed
from repro.workloads.builder import build_process
from repro.workloads.registry import WORKLOADS


def test_five_percent_loss_completes_with_identical_memory(make_plan):
    plan = make_plan({"loss": [{"rate": 0.05}]})
    result = Testbed(seed=7, faults=plan).migrate("minprog", strategy="pure-copy")
    assert result.outcome == "completed"
    assert result.retransmits > 0
    assert result.link_drops > 0
    assert result.verified is True


def test_dest_crash_mid_transfer_rolls_back_to_source(make_world, make_plan):
    plan = make_plan({"crashes": [{"host": "beta", "at": 1.0}]})
    world = make_world(plan)
    build_process(world.source, WORKLOADS["minprog"], SeededStreams(5))

    def trial():
        world.dest_manager.expect_insertion("minprog")
        try:
            yield from world.source_manager.migrate(
                "minprog", world.dest_manager, "pure-iou"
            )
        except MigrationAborted:
            return "aborted"
        return "completed"

    proc = world.engine.process(trial())
    status = world.engine.run(until=proc)
    world.engine.run()
    assert status == "aborted"
    # Rollback: the process lives on at the source, runnable again.
    survivor = world.source.kernel.processes["minprog"]
    assert survivor.host is world.source
    assert survivor.status is ProcessStatus.RUNNABLE
    assert "minprog" not in world.dest.kernel.processes
    registry = world.obs.registry
    assert registry.counter(
        "migration_aborts_total", labels=("host",)
    ).value(host="alpha") == 1


@pytest.mark.parametrize(
    "at", [1.0, 17.0], ids=["during-rounds", "after-excise"]
)
def test_precopy_dest_crash_rolls_back_to_source(make_world, make_plan, at):
    plan = make_plan({"crashes": [{"host": "beta", "at": at}]})
    world = make_world(plan)
    spec = WORKLOADS["minprog"]
    build_process(world.source, spec, world.streams)

    def trial():
        world.dest_manager.expect_insertion("minprog")
        try:
            yield from world.source_manager.migrate_precopy(
                "minprog", world.dest_manager, default_dirty_rate(spec),
                world.streams,
            )
        except MigrationAborted:
            return "aborted"
        return "completed"

    proc = world.engine.process(trial())
    status = world.engine.run(until=proc)
    world.engine.run()
    assert status == "aborted"
    assert ("rollback.start" in world.metrics.marks) == (at > 1.0)
    # The whole space is back at the source, not just the final delta.
    survivor = world.source.kernel.processes["minprog"]
    assert survivor.status is ProcessStatus.RUNNABLE
    assert len(survivor.space.real_page_indices()) == spec.real_pages
    assert "minprog" not in world.dest.kernel.processes
    assert "minprog" not in world.dest_manager._precopy_stash


# A chain runs the default alpha -> beta -> gamma path, so a beta crash
# hits its first hop; the other trials default to pure-iou.
@pytest.mark.parametrize("trial", [
    pytest.param(Testbed.migrate, id="migrate"),
    pytest.param(
        partial(Testbed.migrate, options={"pipeline": 2}), id="pipelined"
    ),
    pytest.param(Testbed.migrate_chain, id="chain"),
    pytest.param(Testbed.migrate_precopy, id="precopy"),
])
def test_dest_crash_outcome_via_testbed(make_plan, trial):
    plan = make_plan({"crashes": [{"host": "beta", "at": 1.0}]})
    result = trial(Testbed(seed=7, faults=plan, instrument=True), "minprog")
    assert result.outcome == "aborted"
    assert result.aborts == 1
    assert result.failure is not None
    (root,) = result.obs.tracer.find("migrate")
    assert root.counters == {"aborted": 1}
    assert_aborted_roots_closed(result.obs, 1)


def assert_aborted_roots_closed(obs, aborted):
    """Every span under each aborted migration has finished, and no
    phase is left open in any process."""
    roots = [root for root in obs.tracer.find("migrate")
             if root.counters.get("aborted")]
    assert len(roots) == aborted
    for root in roots:
        assert [span for span in root.walk() if span.end is None] == []
    assert obs._open_phases == {}
    assert obs.current_phase is None


def test_crashed_stress_run_leaves_no_phase_open(make_plan):
    plan = make_plan(
        {"crashes": [{"host": "node00", "at": 3.0, "recover_at": 6.0}]}
    )
    result = run_stress(
        StressConfig(hosts=4, procs=8, seed=7), instrument=True, faults=plan
    )
    aborted = result.outcomes["aborted"]
    assert aborted >= 1
    assert_aborted_roots_closed(result.obs, aborted)


@pytest.mark.parametrize("trial, shape, store", [
    pytest.param(
        trial, shape, store,
        id=f"{prefix}{shape_id}-store-{'on' if store else 'off'}",
    )
    for prefix, trial in (
        ("", Testbed.migrate), ("chain-", Testbed.migrate_chain)
    )
    for shape_id, shape in (
        ("serial", {}), ("batched", {"batch": 8, "pipeline": 4})
    )
    for store in (False, True)
])
def test_source_crash_before_flush_kills_dependent_process(
    make_plan, trial, shape, store
):
    plan = make_plan({"crashes": [{"host": "alpha", "at": 30.0}]})
    result = trial(
        Testbed(seed=7, faults=plan), "chess", strategy="pure-iou",
        options={**shape, "store": store},
    )
    assert result.outcome == "killed"
    assert result.residual_kills == 1
    assert "alpha" in result.failure


def test_flusher_drains_residual_pages_before_crash(make_plan):
    plan = make_plan({
        "crashes": [{"host": "alpha", "at": 30.0}],
        "flush": {"enabled": True, "batch_pages": 64, "interval_s": 0.005},
    })
    result = Testbed(seed=7, faults=plan).migrate("chess", strategy="pure-iou")
    assert result.outcome == "completed"
    assert result.flushed_pages > 0
    assert result.residual_kills == 0
    assert result.verified is True


def test_seeded_trials_replay_bit_identically(make_plan):
    def run():
        plan = make_plan({"loss": [{"rate": 0.05}]})
        result = Testbed(seed=7, faults=plan).migrate(
            "minprog", strategy="pure-copy"
        )
        return (
            result.outcome, result.retransmits, result.link_drops,
            result.duplicates, result.bytes_total, result.marks,
        )

    assert run() == run()
    plan = make_plan({"loss": [{"rate": 0.05}]})
    other = Testbed(seed=8, faults=plan).migrate("minprog", strategy="pure-copy")
    assert (other.retransmits, other.link_drops) != (run()[1], run()[2])

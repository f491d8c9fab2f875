"""End-to-end fault outcomes: the ISSUE's three acceptance scenarios.

Each trial is fully deterministic given the seed, so these assert on
exact outcomes rather than statistical tendencies.
"""

import pytest

from repro.accent.process import ProcessStatus
from repro.migration.manager import MigrationAborted
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


def test_dest_crash_outcome_via_testbed(make_plan):
    plan = make_plan({"crashes": [{"host": "beta", "at": 1.0}]})
    result = Testbed(seed=7, faults=plan).migrate("minprog", strategy="pure-iou")
    assert result.outcome == "aborted"
    assert result.aborts == 1
    assert result.failure is not None


@pytest.mark.parametrize("store", [False, True], ids=["store-off", "store-on"])
@pytest.mark.parametrize(
    "shape", [{}, {"batch": 8, "pipeline": 4}], ids=["serial", "batched"]
)
def test_source_crash_before_flush_kills_dependent_process(
    make_plan, shape, store
):
    plan = make_plan({"crashes": [{"host": "alpha", "at": 30.0}]})
    result = Testbed(seed=7, faults=plan).migrate(
        "chess", strategy="pure-iou", options={**shape, "store": store}
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

"""Unit tests for the declarative transfer-plan layer."""

import pytest

from repro.accent.ipc.message import Message, RegionSection
from repro.accent.vm.page import Page
from repro.migration.plan import (
    IOU,
    PlanContext,
    RegionDecision,
    SHIP,
    TransferOptions,
    TransferPlan,
)
from repro.migration.strategy import Adaptive, Strategy


# -- TransferOptions ---------------------------------------------------------
def test_options_defaults():
    options = TransferOptions()
    assert options.strategy == "pure-iou"
    assert options.prefetch == 0
    assert options.batch == 1
    assert options.pipeline == 1
    assert not options.batched


@pytest.mark.parametrize(
    "kwargs",
    [{"prefetch": -1}, {"batch": 0}, {"pipeline": 0}, {"batch": -3}],
)
def test_options_validation(kwargs):
    with pytest.raises(ValueError):
        TransferOptions(**kwargs)


def test_options_batched_property():
    assert TransferOptions(batch=2).batched
    assert TransferOptions(pipeline=2).batched
    assert not TransferOptions(prefetch=7).batched


def test_coerce_rejects_other_types():
    with pytest.raises(TypeError, match="options must be"):
        TransferOptions.coerce(["batch", 4])


def test_with_strategy_replaces_only_strategy():
    options = TransferOptions(batch=8, pipeline=4)
    swapped = options.with_strategy("resident-set")
    assert swapped.strategy == "resident-set"
    assert swapped.batch == 8 and swapped.pipeline == 4
    assert options.strategy == "pure-iou"  # original untouched


# -- RegionDecision / TransferPlan construction ------------------------------
def test_decision_rejects_unknown_action():
    with pytest.raises(ValueError, match="action must be"):
        RegionDecision("teleport", {1, 2})


def test_decision_rejects_window_on_ship_rows():
    with pytest.raises(ValueError, match="prefetch_window"):
        RegionDecision(SHIP, {1}, prefetch_window=4)


def test_decision_rejects_nonpositive_window():
    with pytest.raises(ValueError, match="prefetch_window"):
        RegionDecision(IOU, {1}, prefetch_window=0)


def test_plan_rejects_two_default_rows():
    with pytest.raises(ValueError, match="default decision"):
        TransferPlan(decisions=[RegionDecision(IOU), RegionDecision(SHIP)])


# -- plan execution ----------------------------------------------------------
def make_rimas(world, resident=(), meta=None):
    pages = {i: Page() for i in range(10)}
    payload = {"process_name": "x", "resident_indices": list(resident)}
    payload.update(meta or {})
    return Message(
        world.dest_manager.port,
        "migrate.rimas",
        sections=[RegionSection(pages, label="rimas")],
        meta=payload,
    )


def run(world, generator):
    proc = world.engine.process(generator)
    return world.engine.run(until=proc)


def test_execute_splices_decisions_in_order(world):
    rimas = make_rimas(world)
    plan = TransferPlan(
        decisions=[
            RegionDecision(SHIP, {0, 1}, label="hot"),
            RegionDecision(IOU, {2, 3, 4}, label="warm", prefetch_window=4),
        ]
    )
    run(world, plan.execute(world.source_manager, rimas))
    shipped, warm, owed = rimas.sections_of(RegionSection)
    assert shipped.force_copy and sorted(shipped.pages) == [0, 1]
    assert not warm.force_copy and sorted(warm.pages) == [2, 3, 4]
    assert warm.label == "warm" and warm.transfer_window == 4
    # Unclaimed pages fall into an implicit default IOU row.
    assert not owed.force_copy and sorted(owed.pages) == list(range(5, 10))
    assert owed.label == "plan-owed" and owed.transfer_window is None


def test_execute_uniform_plan_yields_no_events(world):
    rimas = make_rimas(world)
    before = world.engine.now
    run(world, TransferPlan(no_ious=True).execute(world.source_manager, rimas))
    assert rimas.no_ious is True
    assert world.engine.now == before  # no carve, no timeouts


def test_execute_charges_carve_per_owed_page(world):
    rimas = make_rimas(world)
    plan = TransferPlan(
        decisions=[RegionDecision(SHIP, {0, 1, 2, 3})], carve=True
    )
    before = world.engine.now
    run(world, plan.execute(world.source_manager, rimas))
    assert world.engine.now - before == pytest.approx(
        6 * world.calibration.rs_carve_per_owed_page_s
    )


def test_execute_without_region_is_noop(world):
    rimas = Message(
        world.dest_manager.port, "migrate.rimas", sections=[], meta={}
    )
    plan = TransferPlan(decisions=[RegionDecision(SHIP, {0})], carve=True)
    run(world, plan.execute(world.source_manager, rimas))
    assert rimas.sections == []


# -- PlanContext -------------------------------------------------------------
def test_context_exposes_touch_statistics(world):
    rimas = make_rimas(
        world,
        resident=[0, 1],
        meta={"last_touch": {0: 4.0}, "excised_at": 9.5},
    )
    context = PlanContext(world.source_manager, rimas)
    assert context.resident_indices == {0, 1}
    assert context.page_indices == set(range(10))
    assert context.last_touch == {0: 4.0}
    assert context.excised_at == 9.5
    assert context.calibration is world.source.calibration
    assert context.options == TransferOptions()


# -- strategies must implement plan() ----------------------------------------
def test_prepare_only_subclass_is_not_adapted(world):
    """The PR-5 legacy ``prepare`` shim is gone: a subclass that only
    overrides the old hook gets NotImplementedError from plan()."""

    class LegacyOnly(Strategy):
        """A pre-plan subclass that only overrides ``prepare``."""

        def prepare(self, manager, rimas):
            rimas.no_ious = True
            yield manager.engine.timeout(0.25)

    rimas = make_rimas(world)
    with pytest.raises(NotImplementedError, match="plan"):
        LegacyOnly().plan(PlanContext(world.source_manager, rimas))


def test_base_strategy_requires_plan(world):
    rimas = make_rimas(world)
    with pytest.raises(NotImplementedError, match="plan"):
        Strategy().plan(PlanContext(world.source_manager, rimas))


# -- the adaptive strategy ---------------------------------------------------
def test_adaptive_classifies_hot_warm_cold(world):
    rimas = make_rimas(
        world,
        resident=[0, 1, 2],
        meta={
            "last_touch": {0: 9.9, 1: 5.0, 3: 9.8},
            "excised_at": 10.0,
        },
    )
    plan = Adaptive(window_s=1.0, warm_window=4).plan(
        PlanContext(world.source_manager, rimas)
    )
    rows = {decision.label: decision for decision in plan.decisions}
    # Hot: resident AND touched within the window.
    assert rows["adaptive-hot"].action == SHIP
    assert rows["adaptive-hot"].indices == {0}
    # Warm: touched, but stale or not resident.
    assert rows["adaptive-warm"].action == IOU
    assert rows["adaptive-warm"].indices == {1, 3}
    assert rows["adaptive-warm"].prefetch_window == 4
    # Cold: never touched -> the default row.
    assert rows["adaptive-cold"].indices is None
    assert plan.carve

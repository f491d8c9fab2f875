"""Trace analytics, and their agreement with the simulator."""

import random

import pytest

from repro.testbed import Testbed
from repro.workloads.analysis import (
    expected_prefetch_hit_ratio,
    profile,
    profile_trace,
)
from repro.workloads.builder import build_process
from repro.workloads.layout import make_layout
from repro.workloads.registry import WORKLOADS
from repro.workloads.trace import build_trace


# ------------------------------------------------------------- profile ----
def test_profile_pure_sweep():
    stats = profile(range(100, 150))
    assert stats.references == 50
    assert stats.distinct_pages == 50
    assert stats.mean_run_length == 50
    assert stats.sequential_fraction == 1.0
    assert stats.forward_fraction == 1.0
    assert stats.density == 1.0


def test_profile_alternating_pages():
    stats = profile([0, 10, 0, 10, 0])
    assert stats.mean_run_length == 1.0
    assert stats.sequential_fraction == 0.0
    assert stats.forward_fraction == 0.5
    assert stats.distinct_pages == 2
    assert stats.span_pages == 11


def test_profile_rejects_empty():
    with pytest.raises(ValueError):
        profile([])


def test_profile_single_reference():
    stats = profile([7])
    assert stats.references == 1
    assert stats.span_pages == 1


# -------------------------------------------- locality class validation ----
def trace_for(name, seed=21):
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    plan = make_layout(spec, rng)
    return spec, plan, build_trace(spec, plan, rng)


def test_pasmac_traces_are_mostly_sequential():
    _, _, trace = trace_for("pm-start")
    stats = profile_trace(trace)
    assert stats.forward_fraction > 0.95
    assert stats.mean_run_length > 2.0


def test_lisp_traces_are_scattered():
    _, _, trace = trace_for("lisp-del")
    stats = profile_trace(trace)
    assert stats.sequential_fraction < 0.35
    assert stats.mean_run_length < 2.0


def test_clustered_traces_sit_in_between():
    _, _, trace = trace_for("chess")
    stats = profile_trace(trace)
    assert 0.5 < stats.sequential_fraction < 0.99
    # Clusters are dense but don't span the whole space.
    assert stats.density < 1.0


# -------------------------------- analytic vs simulated hit ratios ----
@pytest.mark.parametrize("workload,prefetch", [("pm-start", 3), ("lisp-del", 1)])
def test_analytic_hit_ratio_matches_simulation(workload, prefetch):
    """The closed-form prefetch replay and the full simulator must
    agree — they implement the same policy at different levels."""
    bed = Testbed(seed=1987)
    world = bed.world()
    built = build_process(world.source, WORKLOADS[workload], world.streams)
    sequence = [step.page_index for step in built.trace.real_steps]
    analytic = expected_prefetch_hit_ratio(
        sequence, prefetch, built.plan.real_indices
    )

    measured = bed.migrate(
        workload, strategy="pure-iou", options={"prefetch": prefetch}
    ).prefetch_hit_ratio
    assert measured == pytest.approx(analytic, abs=0.03)


def test_hit_ratio_none_without_prefetch():
    assert expected_prefetch_hit_ratio([1, 2, 3], 0, [1, 2, 3]) is None

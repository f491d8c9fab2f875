"""Columnar trace steps read back exactly the steps the builder made."""

from dataclasses import replace

import pytest

from repro.loadbalance import ManagedJob
from repro.testbed import Testbed
from repro.workloads import trace as trace_module
from repro.workloads.builder import build_process
from repro.workloads.registry import WORKLOADS
from repro.workloads.synthetic import make_synthetic
from repro.workloads.trace import ReferenceTrace, TraceStep, TraceSteps

REVISITY = replace(
    make_synthetic(real_kb=128, utilisation=0.4, compute_s=2.0, name="revisity"),
    revisit_fraction=1.0,
)
SPECS = [*WORKLOADS.values(), REVISITY]


def _build(spec, monkeypatch):
    """Build ``spec`` on a fresh world; also return the step list
    ``build_trace`` handed to ``ReferenceTrace``."""
    handed = []
    real_trace = trace_module.ReferenceTrace

    def recording(steps, compute_s):
        handed.append(list(steps))
        return real_trace(steps, compute_s)

    monkeypatch.setattr(trace_module, "ReferenceTrace", recording)
    world = Testbed(seed=5).world(host_names=("a", "b"))
    built = build_process(world.host("a"), spec, world.streams)
    monkeypatch.undo()
    (steps,) = handed
    return world, built, steps


@pytest.mark.parametrize("spec", SPECS, ids=[spec.name for spec in SPECS])
def test_columnar_steps_equal_the_built_step_list(spec, monkeypatch):
    world, built, expected = _build(spec, monkeypatch)
    steps = built.trace.steps
    assert isinstance(steps, TraceSteps)
    assert all(type(step) is TraceStep for step in expected)
    assert len(steps) == len(expected) == len(built.trace)
    assert list(steps) == expected
    assert steps[0] == expected[0]
    assert steps[-1] == expected[-1]
    assert steps[len(expected) // 2] == expected[len(expected) // 2]
    for start, end in ((0, 0), (3, 17), (len(expected) // 3, None), (-5, None)):
        part = steps[start:end]
        assert isinstance(part, TraceSteps)
        assert list(part) == expected[start:end]
    assert list(steps[::7]) == expected[::7]
    for start in (0, 5, len(expected)):
        assert list(steps.references(start)) == [
            tuple(step) for step in expected[start:]
        ]
    hop = steps[3:17]
    assert ReferenceTrace(hop, 1.0).steps is hop
    with pytest.raises(IndexError):
        steps[len(expected)]

    job = ManagedJob(world, built)
    assert job.steps is steps
    for position in sorted({0, 1, len(expected) // 2, len(expected)}):
        job.position = position
        assert job.remaining_touched_pages == len(
            {s.page_index for s in expected[position:] if s.kind == "real"}
        )


def test_every_step_kind_and_write_flag_round_trips():
    written = [
        TraceStep(index, write, kind)
        for index, (write, kind) in enumerate(
            (w, k) for k in ("real", "zero", "revisit") for w in (False, True)
        )
    ]
    written.append(TraceStep(2**23 - 1, True, "real"))
    assert list(TraceSteps(written)) == written
    assert list(TraceSteps(written).references()) == [
        tuple(step) for step in written
    ]
    assert list(TraceSteps()) == []


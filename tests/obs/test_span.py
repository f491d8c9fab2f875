"""Spans against a scripted engine: nesting, timing, attribution."""

import pytest

from repro.obs import NULL_SPAN, Instrumentation, Tracer
from repro.sim import Engine


def test_span_timing_from_scripted_engine():
    eng = Engine()
    tracer = Tracer(clock=lambda: eng.now)

    def body():
        with tracer.span("outer") as outer:
            yield eng.timeout(1.0)
            with outer.child("inner") as inner:
                assert inner.parent is outer
                yield eng.timeout(0.5)
            yield eng.timeout(0.25)

    eng.process(body())
    eng.run()

    (outer,) = tracer.find("outer")
    (inner,) = tracer.find("inner")
    assert (outer.start, outer.end) == (0.0, 1.75)
    assert (inner.start, inner.end) == (1.0, 1.5)
    assert outer.children == [inner]
    assert outer.duration == pytest.approx(1.75)


def test_child_spans_inherit_track_unless_overridden():
    tracer = Tracer()
    root = tracer.span("root", track="main")
    assert root.child("a").track == "main"
    assert root.child("b", track="freeze").track == "freeze"


def test_span_counters_accumulate():
    tracer = Tracer()
    span = tracer.span("transfer")
    span.add("bytes", 100)
    span.add("bytes", 50)
    span.add("faults.imaginary")
    assert span.counters == {"bytes": 150, "faults.imaginary": 1}


def test_span_ids_are_deterministic_per_tracer():
    first = Tracer()
    second = Tracer()
    for tracer in (first, second):
        root = tracer.span("a")
        root.child("b")
    assert [s.span_id for s in first.spans] == [1, 2]
    assert [s.span_id for s in second.spans] == [1, 2]
    assert first.spans[1].parent_id == 1


def test_finish_is_idempotent():
    clock = {"now": 0.0}
    tracer = Tracer(clock=lambda: clock["now"])
    span = tracer.span("once")
    clock["now"] = 2.0
    span.finish()
    clock["now"] = 9.0
    span.finish()
    assert span.end == 2.0


def test_finish_open_closes_only_open_spans():
    clock = {"now": 0.0}
    tracer = Tracer(clock=lambda: clock["now"])
    done = tracer.span("done")
    clock["now"] = 1.0
    done.finish()
    still_open = tracer.span("open")
    clock["now"] = 5.0
    tracer.finish_open()
    assert done.end == 1.0
    assert still_open.end == 5.0


def test_disabled_tracer_hands_out_the_null_span():
    tracer = Tracer(enabled=False)
    span = tracer.span("anything", process="x")
    assert span is NULL_SPAN
    assert span.child("nested") is NULL_SPAN
    span.add("bytes", 10)
    span.finish()
    assert span.counters == {}
    assert list(span.walk()) == []
    assert tracer.spans == []


def test_null_span_as_parent_means_root():
    tracer = Tracer()
    span = tracer.span("top", parent=NULL_SPAN)
    assert span.parent is None
    assert tracer.roots == [span]


def test_phase_attribution_credits_innermost_phase():
    clock = {"now": 0.0}
    obs = Instrumentation(clock=lambda: clock["now"], enabled=True)
    outer = obs.tracer.span("transfer")
    with obs.phase(outer) as opened:
        assert opened is outer
        obs.on_fault("disk")
        inner = outer.child("rimas")
        with obs.phase(inner):
            assert obs.current_phase is inner
            obs.on_fault("imaginary")
            obs.on_link(40, "migrate.rimas", obs.phase_for(inner))
            clock["now"] = 1.0
        assert inner.end == 1.0
        assert obs.current_phase is outer
        obs.on_fault("disk")
        assert outer.end is None
        clock["now"] = 2.0
    assert outer.end == 2.0
    assert obs.current_phase is None
    obs.on_fault("stray")  # no open phase: dropped
    obs.on_link(999, "stray", None)

    assert outer.counters == {"faults.disk": 2}
    assert inner.counters == {
        "bytes": 40,
        "bytes.migrate.rimas": 40,
        "faults.imaginary": 1,
    }


def test_phase_for_finds_the_nearest_phase_ancestor():
    obs = Instrumentation(enabled=True)
    root = obs.tracer.span("migrate")
    transfer = root.child("transfer")
    ship = transfer.child("ship migrate.core")
    assert obs.phase_for(ship) is None
    with obs.phase(transfer):
        pass
    # The span stays a phase once its block has closed.
    assert obs.phase_for(ship) is transfer
    assert obs.phase_for(transfer) is transfer
    assert obs.phase_for(root) is None
    assert obs.phase_for(NULL_SPAN) is None


def test_each_process_has_its_own_open_phase():
    eng = Engine()
    obs = Instrumentation(clock=lambda: eng.now, enabled=True)
    obs.attach_engine(eng)
    seen = {}

    def body(name, delay):
        with obs.phase(obs.tracer.span(name)) as span:
            yield eng.timeout(delay)
            seen[name] = obs.current_phase is span
            obs.on_fault("imaginary")

    eng.process(body("a", 1.0))
    eng.process(body("b", 2.0))
    eng.run()
    assert seen == {"a": True, "b": True}
    assert obs._open_phases == {}
    assert [span.counters for span in obs.tracer.roots] == [
        {"faults.imaginary": 1}, {"faults.imaginary": 1},
    ]


def test_a_closed_process_leaves_its_phase():
    eng = Engine()
    obs = Instrumentation(clock=lambda: eng.now, enabled=True)
    obs.attach_engine(eng)

    def server():
        with obs.phase(obs.tracer.span("serve")):
            yield eng.event()  # never fires

    eng.process(server())
    eng.run()
    assert len(obs._open_phases) == 1
    eng.close()
    assert obs._open_phases == {}
    (span,) = obs.tracer.roots
    assert span.end == eng.now


def test_tracing_off_phase_is_the_null_span():
    obs = Instrumentation(enabled=False)
    span = obs.tracer.span("transfer")
    assert obs.phase(NULL_SPAN) is NULL_SPAN
    with obs.phase(span):
        assert obs.current_phase is None
        obs.on_fault("imaginary")
    assert obs.current_phase is None
    assert obs._open_phases == {}


def test_attach_engine_counts_dispatches_into_registry():
    eng = Engine()
    obs = Instrumentation(clock=lambda: eng.now, enabled=True)
    obs.attach_engine(eng)

    def body():
        yield eng.timeout(1.0)
        yield eng.timeout(1.0)

    eng.process(body())
    eng.run()
    obs.finalize()

    family = obs.registry.get("sim_events_total")
    assert family is not None
    assert family.value(kind="Timeout") == 2
    # finalize is idempotent: counts are set, not re-added.
    obs.finalize()
    assert family.value(kind="Timeout") == 2


def test_disabled_instrumentation_never_observes_the_engine():
    eng = Engine()
    obs = Instrumentation(clock=lambda: eng.now, enabled=False)
    obs.attach_engine(eng)
    assert eng._observers == []
    assert eng.kind_log is None
    eng.timeout(1.0)
    eng.run()
    obs.finalize()
    assert obs.registry.get("sim_events_total") is None

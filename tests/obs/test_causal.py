"""Cross-host causal tracing: one DAG per migration.

The trace context rides on every IPC message, so spans created on
different hosts — ship legs, the backer's service span, flusher
batches — stitch into the trace of the migration that caused them,
and residual faults raised long after the ``migrate`` span closed
still carry its trace id.
"""

import pytest

from repro.faults import Crash, FaultPlan, FlushConfig, LossRule
from repro.obs import causal
from repro.obs.span import NULL_SPAN, Tracer
from repro.testbed import Testbed


class FakeMessage:
    def __init__(self):
        self.trace_ctx = None


# -- unit: the context primitives -------------------------------------------------
def test_attach_stamps_a_context_and_null_span_is_free():
    tracer = Tracer(clock=lambda: 0.0)
    span = tracer.span("work", trace_id="t1")
    message = FakeMessage()
    causal.attach(message, span)
    assert message.trace_ctx.span is span
    assert message.trace_ctx.trace_id == "t1"
    assert message.trace_ctx.span_id == span.span_id

    untraced = FakeMessage()
    causal.attach(untraced, NULL_SPAN)
    causal.attach(untraced, None)
    assert untraced.trace_ctx is None


def test_parent_of_prefers_the_carried_context():
    tracer = Tracer(clock=lambda: 0.0)
    sender = tracer.span("sender")
    phase = tracer.span("phase")
    message = FakeMessage()
    assert causal.parent_of(message) is None
    assert causal.parent_of(message, phase) is phase
    causal.attach(message, sender)
    assert causal.parent_of(message, phase) is sender


def test_root_of_climbs_to_the_trace_root():
    tracer = Tracer(clock=lambda: 0.0)
    root = tracer.span("migrate", trace_id="t1")
    leaf = root.child("transfer").child("core")
    assert causal.root_of(leaf) is root
    assert causal.root_of(root) is root
    assert causal.root_of(None) is None


def test_children_inherit_the_trace_id_unless_overridden():
    tracer = Tracer(clock=lambda: 0.0)
    root = tracer.span("migrate", trace_id=tracer.new_trace_id())
    assert root.trace_id == "t1"
    child = root.child("excise")
    assert child.trace_id == "t1"
    stitched = tracer.span("fault", parent=None, trace_id="t1")
    assert stitched.trace_id == "t1"
    assert tracer.trace("t1") == [root, child, stitched]


# -- integration: one migration, one DAG -----------------------------------------
@pytest.fixture(scope="module")
def result():
    return Testbed(seed=1987, instrument=True).migrate(
        "minprog", strategy="pure-iou"
    )


def test_migration_root_owns_a_fresh_trace_id(result):
    (root,) = result.obs.tracer.find("migrate")
    assert root.trace_id == "t1"
    for child in root.children:
        assert child.trace_id == "t1"


def test_ship_spans_parent_under_the_transfer_sub_phases(result):
    tracer = result.obs.tracer
    (core_ship,) = tracer.find("ship migrate.core")
    (core_span,) = tracer.find("core")
    assert core_ship.parent is core_span
    assert core_ship.trace_id == "t1"
    assert core_ship.track == "nms/alpha"
    (rimas_ship,) = tracer.find("ship migrate.rimas")
    (rimas_span,) = tracer.find("rimas")
    assert rimas_ship.parent is rimas_span


def test_residual_faults_stitch_into_the_migration_trace(result):
    tracer = result.obs.tracer
    faults = tracer.find("fault")
    assert faults
    (exec_span,) = tracer.find("exec")
    for fault in faults:
        # Lexically the fault nests under post-insertion execution...
        assert fault.parent is exec_span
        assert fault.track == "pager/beta"
        # ... but causally it belongs to the migration that owed the
        # page (exec itself is outside any trace).
        assert fault.trace_id == "t1"
    assert exec_span.trace_id is None


def test_the_fault_round_trip_spans_both_hosts(result):
    tracer = result.obs.tracer
    fault = tracer.find("fault")[0]
    serves = [s for s in fault.children if s.name == "imag-serve"]
    request_ships = [
        s for s in fault.children if s.name == "ship imag.read"
    ]
    assert len(serves) == 1 and len(request_ships) == 1
    (serve,) = serves
    assert serve.track == "backer/alpha"
    assert serve.trace_id == "t1"
    reply_ships = [
        s for s in serve.children if s.name == "ship imag.read.reply"
    ]
    assert len(reply_ships) == 1
    assert reply_ships[0].track == "nms/alpha"
    # The whole DAG — migration phases, ships, faults, service legs —
    # shares one trace id across at least three distinct tracks.
    tracks = {span.track for span in tracer.trace("t1")}
    assert {"main", "nms/alpha", "pager/beta", "backer/alpha"} <= tracks


def test_cached_segment_handles_remember_their_trace():
    from repro.accent.vm.page import Page
    from repro.obs.causal import TraceContext

    world = Testbed(seed=1987, instrument=True).world()
    span = world.obs.tracer.span("migrate", trace_id="t9")
    segment = world.source.nms.backing.create_segment(
        {0: Page.zero()}, label="cached", trace_ctx=TraceContext(span)
    )
    assert segment.handle.trace_id == "t9"
    # Untraced segments hand out id-less handles.
    plain = world.source.nms.backing.create_segment({1: Page.zero()})
    assert plain.handle.trace_id is None


def test_uninstrumented_world_carries_no_contexts():
    result = Testbed(seed=1987).migrate("minprog", strategy="pure-iou")
    assert result.obs.tracer.spans == []
    assert result.fault_records == []


# -- reliable transport + flusher span coverage ----------------------------------
def test_retransmit_attempts_emit_spans_under_the_ship(tmp_path):
    plan = FaultPlan(loss=[LossRule(rate=0.05)])
    result = Testbed(seed=1987, instrument=True, faults=plan).migrate(
        "minprog", strategy="pure-iou"
    )
    assert result.retransmits > 0
    retries = result.obs.tracer.find("retransmit")
    assert len(retries) == result.retransmits
    for retry in retries:
        assert retry.parent.name.startswith("ship ")
        assert retry.attrs["attempt"] >= 2
        assert retry.attrs["backoff_s"] > 0
        assert retry.end is not None
    # Drop/frame counters credited to the owning ship span.
    dropped = [
        s for s in result.obs.tracer.spans
        if s.name.startswith("ship ") and s.counters.get("drops")
    ]
    assert dropped


def test_flusher_batches_emit_spans_in_the_migration_trace():
    plan = FaultPlan(
        crashes=[Crash(host="alpha", at=30.0)],
        flush=FlushConfig(enabled=True, batch_pages=16, interval_s=0.005),
    )
    result = Testbed(seed=1987, instrument=True, faults=plan).migrate(
        "minprog", strategy="pure-iou"
    )
    assert result.outcome == "completed"
    assert result.flushed_pages > 0
    batches = result.obs.tracer.find("flush-batch")
    assert batches
    for batch in batches:
        assert batch.track == "flusher/alpha"
        assert batch.trace_id == "t1"
        assert batch.attrs["pages"] > 0
    # Each batch ships an imag.push that parents under it.
    pushes = result.obs.tracer.find("ship imag.push")
    assert pushes
    assert all(p.parent.name == "flush-batch" for p in pushes)

"""End-to-end: an instrumented migration produces the promised trace.

The acceptance shape of the whole layer: one root ``migrate`` span per
migration whose excise/transfer/insert children account (±ε) for the
reported migration time, with bytes attributed to phases and fault
latencies in the histograms.
"""

import json

import pytest

from repro.obs import build_chrome, load_chrome
from repro.testbed import Testbed


@pytest.fixture(scope="module")
def result():
    return Testbed(seed=1987, instrument=True).migrate(
        "minprog", strategy="pure-iou"
    )


def test_root_span_has_the_four_phase_children(result):
    (root,) = result.obs.tracer.find("migrate")
    names = [child.name for child in root.children]
    assert names.count("excise") == 1
    assert names.count("transfer") == 1
    assert names.count("insert") == 1
    assert names.count("freeze") == 1
    assert root.attrs["process"] == "minprog"
    assert root.attrs["strategy"] == "pure-iou"


def test_phase_durations_sum_to_the_migration_time(result):
    (root,) = result.obs.tracer.find("migrate")
    children = {child.name: child for child in root.children}
    total = sum(
        children[name].duration for name in ("excise", "transfer", "insert")
    )
    assert total == pytest.approx(root.duration, abs=1e-9)
    # ... and the root matches the mark-based migration_s the CLI prints.
    assert result.migration_s == pytest.approx(root.duration, abs=1e-9)


def test_transfer_bytes_are_attributed_to_core_and_rimas(result):
    (transfer,) = result.obs.tracer.find("transfer")
    assert transfer.counters["bytes"] > 0
    assert transfer.counters["bytes.migrate.core"] > 0
    assert transfer.counters["bytes.migrate.rimas"] > 0
    assert transfer.counters["bytes"] == (
        transfer.counters["bytes.migrate.core"]
        + transfer.counters["bytes.migrate.rimas"]
    )


def test_exec_span_collects_imaginary_fault_traffic(result):
    (exec_span,) = result.obs.tracer.find("exec")
    assert exec_span.counters["faults.imaginary"] > 0
    assert exec_span.counters["bytes"] > 0


def test_registry_holds_fault_latency_histograms(result):
    registry = result.obs.registry
    hist = registry.histogram("imag_fault_seconds").labels()
    assert hist.count == result.faults["imaginary"]
    assert hist.percentile(0.5) is not None
    rtt = registry.histogram("imag_rtt_seconds").labels()
    assert rtt.count == hist.count
    # Round trips are a lower bound on total fault latency.
    assert rtt.sum <= hist.sum


def test_full_trace_survives_a_chrome_round_trip(result, tmp_path):
    path = tmp_path / "migrate.json"
    built = build_chrome([("migrate-minprog", result.obs)])
    path.write_text(json.dumps(built), encoding="utf-8")
    (run,) = load_chrome(str(path))
    roots = {root.name for root in run.roots}
    assert "migrate" in roots
    (root,) = [r for r in run.roots if r.name == "migrate"]
    children = {child.name: child for child in root.children}
    total = sum(
        children[name].duration for name in ("excise", "transfer", "insert")
    )
    # Timestamps are rounded to nanoseconds in the trace file.
    assert total == pytest.approx(root.duration, abs=1e-5)


def test_uninstrumented_runs_record_no_spans():
    result = Testbed(seed=1987).migrate("minprog", strategy="pure-iou")
    assert result.obs.tracer.spans == []
    # The registry still feeds the legacy metrics views.
    assert result.faults["imaginary"] > 0


def test_instrumentation_does_not_change_simulated_outcomes():
    plain = Testbed(seed=1987).migrate("minprog", strategy="pure-iou")
    traced = Testbed(seed=1987, instrument=True).migrate(
        "minprog", strategy="pure-iou"
    )
    assert traced.transfer_s == plain.transfer_s
    assert traced.exec_s == plain.exec_s
    assert traced.bytes_total == plain.bytes_total

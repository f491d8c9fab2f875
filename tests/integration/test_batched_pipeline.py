"""Integration tests for the batched, pipelined residual-page path.

Three properties anchor the redesign:

* **Equivalence** — at ``batch=1, pipeline=1`` (the defaults) the new
  plan-driven path replays the exact pre-plan timings, byte for byte
  on the wire and tick for tick on the clock, pinned here against
  golden numbers captured before the refactor.
* **Determinism** — a batched trial replays byte-identically, JSONL
  export included.
* **Payoff** — batching + pipelining cuts pure-IOU stall time by >= 2x
  on the paper's fault-heavy workloads, and the adaptive strategy is
  bounded by both pure strategies (pages <= pure-copy, faults <=
  pure-IOU).
"""

import pytest

from repro.migration.plan import TransferOptions
from repro.obs import jsonl_lines
from repro.testbed import Testbed


def _signature(result):
    """Every externally-observable timing/volume field of one trial."""
    return {
        "outcome": result.outcome,
        "excise_s": result.excise_s,
        "transfer_s": result.transfer_s,
        "insert_s": result.insert_s,
        "migration_s": result.migration_s,
        "exec_s": result.exec_s,
        "bytes_total": result.bytes_total,
        "pages": result.pages_transferred,
        "faults": dict(result.faults),
        "verified": result.verified,
    }


def _trace_blob(label, obs):
    """The full JSONL export as one byte string."""
    return "\n".join(jsonl_lines([(label, obs)])).encode("utf-8")


def _stall_seconds(result):
    """Total imaginary-fault stall time of one trial."""
    family = result.obs.registry.get("imag_fault_seconds")
    if family is None:
        return 0.0
    return sum(child.sum for _key, child in family.items())


#: Timings captured at seed 1987 before the plan/batching refactor
#: landed: (workload, strategy, prefetch) -> (transfer_s, exec_s,
#: migration_s, bytes_total, pages_transferred).  Default-knob trials
#: must reproduce them *exactly* — equality, not approx — proving the
#: redesign added zero events to the legacy path.
GOLDEN = {
    ("pm-mid", "pure-iou", 0): (
        0.20215840000000052, 75.55433519999977, 3.735618800000001,
        309451, 449,
    ),
    ("lisp-del", "pure-iou", 0): (
        0.21001039999999804, 169.81878320000018, 5.4425987999999945,
        485601, 709,
    ),
    ("pm-start", "resident-set", 0): (
        10.351402400000026, 76.06134319999776, 13.738934800000026,
        423909, 667,
    ),
    ("minprog", "pure-copy", 0): (
        8.900018399999986, 0.07050000000002576, 10.986966799999987,
        153891, 278,
    ),
    ("chess", "pure-iou", 1): (
        0.14141839999999983, 510.1780791999959, 2.3902628,
        88365, 138,
    ),
}


def test_default_knobs_reproduce_golden_timings():
    for (workload, strategy, prefetch), expected in GOLDEN.items():
        result = Testbed(seed=1987).migrate(
            workload, strategy=strategy, options={"prefetch": prefetch}
        )
        observed = (
            result.transfer_s,
            result.exec_s,
            result.migration_s,
            result.bytes_total,
            result.pages_transferred,
        )
        assert observed == expected, (workload, strategy, prefetch)
        assert result.verified


def test_explicit_default_options_match_kwargs_path():
    """options= as a keyword dict and as a TransferOptions are one path."""
    kwargs = Testbed(seed=1987).migrate(
        "chess", strategy="pure-iou", options={"prefetch": 1}
    )
    explicit = Testbed(seed=1987).migrate(
        "chess",
        options=TransferOptions(strategy="pure-iou", prefetch=1),
    )
    assert _signature(kwargs) == _signature(explicit)
    assert explicit.options.batch == 1 and explicit.options.pipeline == 1


@pytest.mark.parametrize(
    "trial", [Testbed.migrate, Testbed.migrate_chain], ids=["migrate", "chain"]
)
def test_strategy_argument_wins_over_options(trial):
    result = trial(
        Testbed(seed=1987), "minprog", strategy="pure-copy",
        options=TransferOptions(batch=8),
    )
    assert result.strategy == "pure-copy"
    assert result.batch == 8
    # Pure-copy ships every page up front: nothing is demand-paged.
    assert result.faults.get("imaginary", 0) == 0


def test_batched_trial_replays_byte_identically():
    def trial():
        result = Testbed(seed=91, instrument=True).migrate(
            "chess", strategy="pure-iou", options={"batch": 4, "pipeline": 2}
        )
        return _signature(result), _trace_blob("batched", result.obs)

    first_sig, first_blob = trial()
    second_sig, second_blob = trial()
    assert first_sig["outcome"] == "completed"
    assert first_blob
    assert first_sig == second_sig
    assert first_blob == second_blob


def test_batching_and_pipelining_halve_stall_time():
    """The tentpole payoff: >= 2x less pure-IOU stall on pm-mid."""
    base = Testbed(seed=1987).migrate("pm-mid", strategy="pure-iou")
    batched = Testbed(seed=1987).migrate(
        "pm-mid", strategy="pure-iou", options={"batch": 8, "pipeline": 4}
    )
    assert base.verified and batched.verified
    base_stall = _stall_seconds(base)
    batched_stall = _stall_seconds(batched)
    assert base_stall > 0
    assert batched_stall * 2 <= base_stall
    # Coalescing also collapses the request count itself.
    assert batched.faults["imaginary"] < base.faults["imaginary"]


def test_adaptive_is_bounded_by_the_pure_strategies():
    """adaptive ships <= pure-copy's pages and faults <= pure-IOU."""
    copy = Testbed(seed=1987).migrate("pm-mid", strategy="pure-copy")
    iou = Testbed(seed=1987).migrate("pm-mid", strategy="pure-iou")
    adaptive = Testbed(seed=1987).migrate(
        "pm-mid", strategy="adaptive", options={"batch": 8, "pipeline": 4}
    )
    assert copy.verified and iou.verified and adaptive.verified
    assert adaptive.pages_transferred <= copy.pages_transferred
    assert (
        adaptive.faults.get("imaginary", 0) <= iou.faults.get("imaginary", 0)
    )


def test_pipelined_context_shipment_is_no_slower():
    """pipeline=2 overlaps the Core and RIMAS legs on the link."""
    serial = Testbed(seed=1987).migrate("minprog", strategy="pure-copy")
    overlapped = Testbed(seed=1987).migrate(
        "minprog", strategy="pure-copy", options={"pipeline": 2}
    )
    assert overlapped.verified
    assert overlapped.migration_s <= serial.migration_s
    assert overlapped.bytes_total == serial.bytes_total


def test_precopy_result_carries_migration_result_fields():
    """The PrecopyResult/MigrationResult asymmetry is gone."""
    bed = Testbed(seed=1987, instrument=True)
    precopy = bed.migrate_precopy("minprog")
    migrate = Testbed(seed=1987, instrument=True).migrate("minprog")
    for field in (
        "pages_transferred", "prefetch_hit_ratio", "fault_records",
        "options", "batch", "pipeline", "prefetch",
    ):
        assert hasattr(precopy, field), field
        assert hasattr(migrate, field), field
    assert precopy.pages_transferred > 0
    assert isinstance(precopy.fault_records, list)
    assert precopy.options.strategy == "pre-copy"
    assert precopy.batch == 1 and precopy.pipeline == 1

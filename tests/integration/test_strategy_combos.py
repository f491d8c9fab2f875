"""Cross-feature combinations: strategies × chains × synthetics."""

import pytest

from repro.migration.strategy import WORKING_SET
from repro.testbed import Testbed
from repro.workloads.synthetic import make_synthetic


@pytest.fixture(scope="module")
def bed():
    return Testbed(seed=31)


def test_chain_under_working_set(bed):
    """Re-excision carries last-touch metadata, so WS works per hop."""
    result = bed.migrate_chain(
        "pm-mid", strategy=WORKING_SET, run_fractions=(0.3,)
    )
    assert result.verified


def test_chain_under_resident_set_with_prefetch(bed):
    result = bed.migrate_chain(
        "chess", strategy="resident-set", run_fractions=(0.5,),
        options={"prefetch": 3},
    )
    assert result.verified
    assert result.faults.get("imaginary", 0) > 0


def test_synthetic_through_chain(bed):
    spec = make_synthetic(
        real_kb=128, utilisation=0.3, locality="scattered", compute_s=1.0
    )
    result = bed.migrate_chain(spec, strategy="pure-iou", run_fractions=(0.5,))
    assert result.verified


def test_synthetic_through_precopy(bed):
    spec = make_synthetic(
        real_kb=128, utilisation=0.5, compute_s=4.0, name="synth-pc"
    )
    result = bed.migrate_precopy(spec)
    assert result.verified
    assert result.pages_shipped >= spec.real_pages


def test_working_set_with_prefetch(bed):
    result = bed.migrate(
        "pm-start", strategy=WORKING_SET, options={"prefetch": 7}
    )
    assert result.verified
    # The lazy remainder faults with prefetch; hits get recorded.
    assert result.prefetch_hit_ratio is not None


def test_four_strategies_agree_on_excision(bed):
    """Phase 1 stays strategy-insensitive even with WS in the mix."""
    times = {
        bed.migrate("pm-end", strategy=s, run_remote=False).excise_s
        for s in ("pure-copy", "pure-iou", "resident-set", "working-set")
    }
    assert len({round(t, 9) for t in times}) == 1

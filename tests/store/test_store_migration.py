"""End-to-end content-store behaviour through real migrations.

Scenario shapes come from the sibling fixture (tests/store/conftest):
same-spec processes share every page's bytes, so a second migration
can be served from caches.  Everything here is deterministic given the
seed, so the tests assert exact counts.
"""

import pytest

from repro.cluster import StressConfig, run_stress
from repro.faults import FaultPlan
from repro.migration.plan import TransferOptions
from repro.testbed import Testbed


def test_second_sibling_faults_hit_local_cache(run_siblings):
    """Two siblings to the same destination: the second one's faults
    resolve from the destination's own content store — no wire."""
    off = run_siblings(TransferOptions())
    on = run_siblings(TransferOptions(store=True))
    assert off.verified and on.verified
    served = on.served_by()
    assert served[("beta", "local")] > 0
    assert on.bytes_total < off.bytes_total
    assert off.served_by() == {}  # store-off runs register nothing


def test_sibling_fault_served_by_peer_cache(run_siblings):
    """Siblings to different hosts: the second destination pulls pages
    from the first one's cache (nearer than the origin)."""
    on = run_siblings(
        TransferOptions(store=True),
        routes=(("alpha", "beta"), ("alpha", "gamma")),
        hosts=("alpha", "beta", "gamma"),
    )
    assert on.verified
    served = on.served_by()
    # Sibling 1 at beta faults to the origin; sibling 2 at gamma is
    # served entirely by beta's cache.
    assert served[("beta", "origin")] == 24
    assert served[("gamma", "peer")] == 24
    assert ("gamma", "origin") not in served


@pytest.mark.parametrize(
    "batch, pipeline, prefetch", [(1, 1, 0), (1, 1, 3), (4, 1, 0), (4, 2, 3)]
)
def test_served_counts_each_fault_once(run_siblings, batch, pipeline,
                                       prefetch):
    """store_fault_served_total counts demanded pages, one per fault:
    prefetched companions riding in the same reply are not faults."""
    on = run_siblings(
        TransferOptions(
            store=True, batch=batch, pipeline=pipeline, prefetch=prefetch
        ),
        routes=(("alpha", "beta"), ("alpha", "gamma")),
        hosts=("alpha", "beta", "gamma"),
    )
    assert on.verified
    served = on.served_by()
    assert sum(served.values()) == on.world.metrics.faults["imaginary"]


@pytest.mark.parametrize("pipeline", [1, 2])
@pytest.mark.parametrize("batch", [1, 4])
def test_cache_holder_crash_falls_back_to_origin(run_siblings, batch,
                                                pipeline):
    """Crashing the cache holder mid-run degrades service back to the
    origin — pages are never lost or corrupted."""
    plan = FaultPlan.from_dict({"crashes": [{"host": "beta", "at": 9.0}]})
    on = run_siblings(
        TransferOptions(store=True, batch=batch, pipeline=pipeline),
        routes=(("alpha", "beta"), ("alpha", "gamma")),
        hosts=("alpha", "beta", "gamma"),
        faults=plan,
    )
    # Every read sibling 2 performed still observed the exact origin
    # bytes, through whichever source happened to be alive.
    assert on.verified
    served = on.served_by()
    assert served[("gamma", "peer")] > 0     # before the crash
    assert served[("gamma", "origin")] > 0   # after it
    # Each fault counts once, at whichever source served it.
    assert sum(served.values()) == on.world.metrics.faults["imaginary"]
    # The crash emptied beta's volatile cache back to the zero seed.
    assert on.world.host("beta").crashed
    assert len(on.world.host("beta").store) == 1


def test_origin_crash_still_kills_residually():
    """The store only *adds* sources; when the origin dies and no cache
    holds the page, the residual-dependency kill is unchanged."""
    for store in (False, True):
        plan = FaultPlan.from_dict(
            {"crashes": [{"host": "alpha", "at": 4.0}]}
        )
        result = Testbed(seed=7, faults=plan).migrate(
            "minprog", options={"store": store}
        )
        assert result.outcome == "killed"


def test_wire_dedup_ships_refs_and_materialises_bit_identical(run_siblings):
    """Pure-copy dedup: sibling 2's shipment replaces known pages with
    content references, and the rematerialised memory verifies."""
    off = run_siblings(TransferOptions(strategy="pure-copy"))
    on = run_siblings(TransferOptions(strategy="pure-copy", dedup=True))
    assert off.verified and on.verified
    registry = on.world.obs.registry
    deduped = registry.counter(
        "store_dedup_pages_total", labels=("host",)
    ).value(host="alpha")
    assert deduped > 0
    saved = registry.counter(
        "store_dedup_bytes_saved_total", labels=("host",)
    ).value(host="alpha")
    assert saved > 0
    # The savings column accounts for (at least) the wire reduction —
    # dedup also shrinks fragment framing, so the raw delta can exceed
    # the per-page accounting.
    assert off.bytes_total - on.bytes_total >= saved


def test_store_off_is_byte_identical_to_default():
    """Explicit store=False and default options replay the same trial:
    same bytes, same faults, same simulated timings."""
    default = Testbed(seed=31).migrate("minprog")
    explicit = Testbed(seed=31).migrate(
        "minprog", options=TransferOptions(store=False)
    )
    assert explicit.bytes_total == default.bytes_total
    assert explicit.faults == default.faults
    assert explicit.migration_s == default.migration_s
    assert explicit.exec_s == default.exec_s


def test_stress_determinism_hash_stable_with_store():
    """Two store-on stress runs replay byte-identically, and the knobs
    appear in the hashed config."""
    config = StressConfig(
        hosts=3, procs=4, migrations=4, seed=13, dedup=True,
        job_seconds=10.0,
    )
    assert config.to_dict()["dedup"] is True
    assert "store" not in config.to_dict()  # emitted only when set
    first = run_stress(config)
    second = run_stress(config)
    assert first.verified
    assert first.determinism_hash == second.determinism_hash


def test_store_knobs_absent_from_default_stress_config():
    """Default configs hash exactly as before the store existed."""
    data = StressConfig().to_dict()
    assert "store" not in data and "dedup" not in data

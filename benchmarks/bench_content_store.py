"""Content-addressed page store benchmark (docs/content-store.md).

A fork-heavy scenario: ``SIBLINGS`` processes built from one workload
spec (identical page contents — exact fork siblings, the shared-code /
shared-data case the store targets) migrate alpha -> beta one after
another in a single world, each running its reference trace at the
destination.  Arms:

* ``off``        — content store disabled (the pre-store protocol);
* ``store``      — store on, pure-IOU: later siblings' imaginary
  faults resolve from beta's local content cache instead of crossing
  the wire;
* ``dedup``      — store + wire dedup, pure-IOU;
* ``dedup-copy`` — store + wire dedup under pure-copy: bulk shipments
  replace pages beta already holds with 20-byte content references.

The headline claims checked here:

* pure-IOU with the store cuts **bytes on the wire by >= 1.5x** and
  total imaginary-fault stall measurably (the tentpole acceptance
  bar), and
* the ``off`` arm reproduces the store-less protocol exactly (golden
  bytes/stall match, pinned below).

Gate a fresh run against the committed artifact (and rewrite it)::

    PYTHONPATH=src python -m benchmarks.gate content_store

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_content_store.py
"""

from repro.migration.plan import TransferOptions
from repro.migration.strategy import Strategy
from repro.sim import SeededStreams
from repro.testbed import Testbed
from repro.workloads.builder import build_process
from repro.workloads.registry import workload_by_name
from repro.workloads.runner import RemoteRunResult, remote_body

SEED = 1987
WORKLOAD = "minprog"
SIBLINGS = 4
#: Acceptance bar: bytes-on-wire reduction of the store arm vs off.
BYTES_TARGET = 1.5

#: The benchmark's arms: name -> TransferOptions kwargs.
ARMS = (
    ("off", {}),
    ("store", {"store": True}),
    ("dedup", {"dedup": True}),
    ("dedup-copy", {"strategy": "pure-copy", "dedup": True}),
)

#: Store-off goldens for the scenario above: (bytes_total, stall_s,
#: faults).  The off arm must reproduce the pre-store protocol to the
#: last byte — regenerate only on an intentional protocol change.
GOLDEN_OFF = (78364, 10.783181, 96)

#: The rules ``python -m benchmarks.gate content_store`` enforces.
GATE = {
    "title": ("Content-addressed page store ({scenario[siblings]} "
              "{scenario[workload]} siblings, seed {scenario[seed]})"),
    "key": ("arm",),
    "tolerance": {"rows.*.bytes_total": "rise", "rows.*.stall_s": "rise"},
    "targets": (
        ("rows.*.verified", "==", True),
        ("off_matches_golden", "==", True),
        ("bytes_reduction", ">=", "bytes_target"),
        ("stall_reduction", ">", 1.0),
    ),
    "tables": {"rows": (
        "arm", "bytes_total", "stall_s", "local_hits", "dedup_pages",
        "verified",
    )},
}


def _family_sum(registry, name):
    family = registry.get(name)
    if family is None:
        return 0
    return sum(child.value for _, child in family.items())


def run_arm(options):
    """Migrate SIBLINGS identical processes sequentially; measure."""
    options = TransferOptions.coerce(options)
    world = Testbed(seed=SEED).world()
    spec = workload_by_name(WORKLOAD)
    strategy = Strategy.by_name(options.strategy)
    # Each sibling builds from a *fresh* stream factory, so layouts and
    # traces are identical — exact forks sharing every page's bytes.
    builts = [
        (
            f"{spec.name}-s{i}",
            build_process(
                world.source, spec, SeededStreams(SEED),
                name=f"{spec.name}-s{i}",
            ),
        )
        for i in range(SIBLINGS)
    ]
    world.apply_options(options)
    run_results = []

    def trial():
        world.metrics.mark("trial.start")
        for name, built in builts:
            insertion = world.dest_manager.expect_insertion(name)
            yield from world.source_manager.migrate(
                name, world.dest_manager, strategy, options=options
            )
            inserted = yield insertion
            run_result = RemoteRunResult(name)
            yield from remote_body(
                world.dest, inserted, built.trace, run_result
            )
            run_results.append(run_result)
        world.metrics.mark("trial.end")

    process = world.engine.process(trial(), name="bench-store")
    world.engine.run(until=process)
    world.stop_telemetry()
    world.engine.run()

    registry = world.obs.registry
    stall_family = registry.get("imag_fault_seconds")
    stall_s = (
        sum(child.sum for _, child in stall_family.items())
        if stall_family is not None
        else 0.0
    )
    local_hits = 0
    peer_hits = 0
    family = registry.get("store_fault_served_total")
    if family is not None:
        for (_host, source), child in family.items():
            if source == "local":
                local_hits += child.value
            elif source == "peer":
                peer_hits += child.value
    return {
        "bytes_total": world.metrics.total_link_bytes,
        "stall_s": round(stall_s, 6),
        "faults": world.metrics.faults.get("imaginary", 0),
        "end_to_end_s": round(
            world.metrics.span("trial.start", "trial.end"), 6
        ),
        "dedup_pages": _family_sum(registry, "store_dedup_pages_total"),
        "dedup_bytes_saved": _family_sum(
            registry, "store_dedup_bytes_saved_total"
        ),
        "local_hits": local_hits,
        "peer_hits": peer_hits,
        "verified": all(r.verified for r in run_results),
    }


def measure():
    """The artifact dict: one row per arm plus the headline ratios."""
    rows = {}
    for arm, kwargs in ARMS:
        row = run_arm(TransferOptions(**kwargs))
        row["arm"] = arm
        rows[arm] = row
    off, store = rows["off"], rows["store"]
    return {
        "scenario": {
            "seed": SEED,
            "workload": WORKLOAD,
            "siblings": SIBLINGS,
            "arms": [arm for arm, _ in ARMS],
        },
        "rows": [rows[arm] for arm, _ in ARMS],
        "bytes_target": BYTES_TARGET,
        "bytes_reduction": round(
            off["bytes_total"] / store["bytes_total"], 3
        ),
        "stall_reduction": round(off["stall_s"] / store["stall_s"], 3),
        "off_matches_golden": (
            off["bytes_total"], off["stall_s"], off["faults"]
        ) == GOLDEN_OFF,
    }


def test_store_off_arm_matches_golden():
    """The off arm replays the store-less protocol exactly."""
    row = run_arm(TransferOptions())
    assert (row["bytes_total"], row["stall_s"], row["faults"]) == GOLDEN_OFF
    assert row["verified"]


def test_store_cuts_bytes_and_stall():
    """The acceptance bar: >= 1.5x bytes on the fork-sibling workload,
    plus a measurable stall reduction, with every page verified."""
    off = run_arm(TransferOptions())
    store = run_arm(TransferOptions(store=True))
    assert off["verified"] and store["verified"]
    assert off["bytes_total"] >= BYTES_TARGET * store["bytes_total"]
    assert store["stall_s"] < off["stall_s"]
    assert store["local_hits"] > 0


def test_wire_dedup_collapses_bulk_shipment():
    """Pure-copy dedup replaces sibling pages with content refs."""
    off = run_arm(TransferOptions(strategy="pure-copy"))
    dedup = run_arm(TransferOptions(strategy="pure-copy", dedup=True))
    assert off["verified"] and dedup["verified"]
    assert dedup["dedup_pages"] > 0
    assert off["bytes_total"] >= 2.0 * dedup["bytes_total"]

"""Golden determinism corpus: committed traces the engine must replay.

Each scenario here runs a small instrumented world — one per simulation
family (migrate / stress / batched transfer / serving / fault
injection / content store, serial and batched / migration chain /
pre-copy / load balancer) — and serialises its full observability export to canonical
JSONL.  The committed ``.jsonl.gz`` files pin those bytes; the test in
``test_golden_corpus.py`` re-runs every scenario and byte-compares, so
a queue or dispatch change that silently reorders *anything* the
randomized oracle misses fails loudly here.

The big BENCH shapes (``reference``, ``wide``) are pinned separately by
their determinism hashes in ``BENCH_engine_throughput.json`` and the CI
hash assert; the corpus keeps the committed artifacts small while still
exercising every code path family.

Regenerate after an *intentional* trace change::

    PYTHONPATH=src python -m tests.golden.regen
"""

import gzip
import os

from repro.obs import jsonl_lines

CORPUS_DIR = os.path.dirname(os.path.abspath(__file__))


def trace_blob(label, obs):
    """The canonical byte serialisation used across the replay tests."""
    return "\n".join(jsonl_lines([(label, obs)])).encode("utf-8")


def _migrate():
    from repro.testbed import Testbed

    return Testbed(seed=1987, instrument=True).migrate("minprog")


def _stress():
    from repro.cluster import StressConfig, run_stress

    return run_stress(
        StressConfig(hosts=4, procs=8, seed=7), instrument=True
    )


def _batched():
    from repro.cluster import StressConfig, run_stress

    return run_stress(
        StressConfig(
            hosts=4, procs=8, seed=7,
            strategy="adaptive", batch=8, pipeline=4,
        ),
        instrument=True,
    )


def _store():
    from repro.cluster import StressConfig, run_stress

    return run_stress(
        StressConfig(hosts=4, procs=8, seed=7, dedup=True), instrument=True
    )


def _store_batched():
    from repro.cluster import StressConfig, run_stress

    return run_stress(
        StressConfig(
            hosts=4, procs=8, seed=7, dedup=True, batch=8, pipeline=4,
        ),
        instrument=True,
    )


def _serve():
    from repro.cluster import StressConfig
    from repro.serve import run_serve

    return run_serve(
        StressConfig(
            hosts=4, procs=3, seed=7,
            services=("kv", "matmul", "stream"),
            clients_per_service=2, requests_per_client=40,
        ),
        instrument=True,
    )


def _faults():
    from repro.cluster import StressConfig, run_stress
    from repro.faults import FaultPlan, LossRule

    return run_stress(
        StressConfig(hosts=4, procs=8, seed=11),
        instrument=True,
        faults=FaultPlan(loss=[LossRule(rate=0.05)]),
    )


def _chain():
    from repro.testbed import Testbed

    return Testbed(seed=1987, instrument=True).migrate_chain(
        "pm-start", strategy="pure-iou", run_fractions=(0.4,)
    )


def _precopy():
    from repro.testbed import Testbed

    return Testbed(seed=1987, instrument=True).migrate_precopy("minprog")


def _balance():
    from repro.loadbalance import BreakevenPolicy, Scenario

    return Scenario(
        ["chess", "pm-mid", "pm-mid", "chess"], hosts=3, seed=42,
        instrument=True,
    ).run(BreakevenPolicy(), inflight_cap=2)


#: scenario name -> zero-argument runner returning a result with ``.obs``.
SCENARIOS = {
    "migrate": _migrate,
    "stress": _stress,
    "batched": _batched,
    "serve": _serve,
    "faults": _faults,
    "store": _store,
    "store-batched": _store_batched,
    "chain": _chain,
    "precopy": _precopy,
    "balance": _balance,
}


def corpus_path(name):
    return os.path.join(CORPUS_DIR, f"{name}.jsonl.gz")


def run_scenario(name):
    """Run one scenario; returns its canonical trace bytes."""
    result = SCENARIOS[name]()
    return trace_blob(name, result.obs)


def read_golden(name):
    """The committed bytes for ``name`` (FileNotFoundError if absent)."""
    with gzip.open(corpus_path(name), "rb") as handle:
        return handle.read()


def write_golden(name, blob):
    """Commit ``blob`` for ``name`` (deterministic gzip, mtime pinned)."""
    with open(corpus_path(name), "wb") as handle:
        handle.write(gzip.compress(blob, compresslevel=9, mtime=0))

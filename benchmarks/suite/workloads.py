"""The benchmark's four workloads and what one run of each measures.

Every workload drives a public entry point of ``repro``: the paper's
trial matrix, the cluster stress harness (twice, with the content store
off and on) and the serving harness.  :meth:`Workload.run` is the timed
part and returns the program's own result object; :meth:`Workload.measure`
reads metrics, counts and a determinism digest from it afterwards.

Why each workload is in the benchmark is written in ``README.md`` and
``BENCHMARK.json``.
"""

import contextlib
import hashlib
import json
import math
import weakref

from repro.cluster.stress import StressConfig, run_stress
from repro.experiments import claims
from repro.experiments.matrix import TrialMatrix
from repro.experiments.paper_data import CLAIMS
from repro.serve.harness import run_serve
from repro.sim.rng import SeededStreams

DEFAULT_SEED = 1987

#: The streams that choose which process moves where, and when.  They
#: are drawn from ``DEFAULT_SEED`` whatever ``--seed`` says: a seed then
#: changes the programs' contents and the request traffic but not the
#: migration schedule.  Left free, the schedule alone moved the cluster
#: workloads' bytes on the wire and event counts by 12-16% (interquartile
#: range over ten seeds), more than the regressions the benchmark must see.
SCHEDULE_STREAMS = ("stress.picks", "serve.picks")

CLUSTER_SHAPE = {
    "hosts": 16,
    "procs": 192,
    "workloads": ("minprog", "chess", "pm-mid"),
}
BATCHED_STORE = {
    "strategy": "adaptive",
    "batch": 8,
    "pipeline": 4,
    "store": True,
    "dedup": True,
}
# No request deadline: an open-loop client then never gives up, so no
# request fails and every stall shows up as latency instead.
SERVE_SHAPE = {
    "hosts": 8,
    "procs": 12,
    "services": ("kv", "matmul", "stream"),
    "clients_per_service": 2,
    "requests_per_client": 1500,
    "request_rate_per_s": 2.0,
    "migrations": 48,
    "rate_per_s": 0.1,
    "deadline_s": 0.0,
}

#: Link categories that carry demand paging (imaginary faults and
#: content-store reads) and bulk migration context.
FAULT_TRAFFIC = ("imag.read", "store.read")
BULK_TRAFFIC = ("migrate.",)


@contextlib.contextmanager
def pinned_schedule(seed=DEFAULT_SEED):
    """Draw the :data:`SCHEDULE_STREAMS` of every world from ``seed``."""
    original = SeededStreams.stream
    companions = weakref.WeakKeyDictionary()

    def stream(streams, name):
        if name not in SCHEDULE_STREAMS:
            return original(streams, name)
        companion = companions.get(streams)
        if companion is None:
            companion = companions[streams] = SeededStreams(seed)
        return original(companion, name)

    SeededStreams.stream = stream
    try:
        yield
    finally:
        SeededStreams.stream = original


def nearest_rank(values, q):
    """The q-quantile of ``values`` by nearest rank (0.0 when empty)."""
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def digest(data):
    """SHA-256 of ``data`` as canonical JSON."""
    payload = json.dumps(data, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def claim_error(measured):
    """Mean |ln(measured / paper)| over the claims both sides state."""
    errors = [
        abs(math.log(value / CLAIMS[name]))
        for name, value in measured.items()
        if name in CLAIMS and value > 0
    ]
    return sum(errors) / len(errors)


def _counter(registries, name, keep=None):
    total = 0
    for registry in registries:
        family = registry.get(name)
        if family is None:
            continue
        for labels, child in family.items():
            if keep is None or keep(labels):
                total += child.sum if family.kind == "histogram" else child.value
    return total


def layer_counts(registries, probes, freezes):
    """Per-layer counts every workload reports, read after the run.

    ``freezes`` are the run's per-migration freeze times; the part of
    them outside excision and insertion is reported as the transfer.
    """
    served = {
        source: _counter(
            registries, "store_fault_served_total",
            lambda labels, source=source: labels[1] == source,
        )
        for source in ("local", "peer", "origin")
    }
    store_served = sum(served.values())
    excise, insert = probes.phase_s["excise"], probes.phase_s["insert"]
    prefetched = _counter(registries, "prefetched_pages_total")

    def faults(kind):
        return _counter(registries, "faults_total", lambda labels: labels == (kind,))

    def wire(prefixes):
        return _counter(
            registries, "link_bytes",
            lambda labels: labels[0].startswith(prefixes),
        )

    return {
        "sim.events": probes.events,
        "vm.faults_disk": faults("disk"),
        "vm.faults_fill_zero": faults("fill-zero"),
        "pager.imag_faults": faults("imaginary"),
        "pager.fault_stall_s": _counter(registries, "imag_fault_seconds"),
        "pager.prefetch_hit_ratio": (
            _counter(registries, "prefetch_hits_total") / prefetched
            if prefetched else 0.0
        ),
        "pager.residual_kills": _counter(registries, "residual_kills_total"),
        "store.local_hits": served["local"],
        "store.peer_hits": served["peer"],
        "store.hit_ratio": (
            (served["local"] + served["peer"]) / store_served
            if store_served else 0.0
        ),
        "store.dedup_pages": _counter(registries, "store_dedup_pages_total"),
        "store.dedup_bytes_saved": _counter(
            registries, "store_dedup_bytes_saved_total"
        ),
        "store.server_misses": _counter(registries, "store_server_misses_total"),
        "net.fragments": _counter(registries, "link_fragments_total"),
        "net.fault_bytes": wire(FAULT_TRAFFIC),
        "net.bulk_bytes": wire(BULK_TRAFFIC),
        "net.nms_busy_s": _counter(registries, "nms_busy_seconds"),
        "net.nms_messages": _counter(registries, "nms_messages_total"),
        "migration.excise_s": excise,
        "migration.transfer_s": sum(freezes) - excise - insert,
        "migration.insert_s": insert,
        "migration.aborts": _counter(registries, "migration_aborts_total"),
    }


def _freeze_metrics(freezes, makespan_s, bytes_on_wire):
    return {
        "freeze_p50_s": nearest_rank(freezes, 0.50),
        "freeze_p90_s": nearest_rank(freezes, 0.90),
        "makespan_s": makespan_s,
        "bytes_on_wire": bytes_on_wire,
    }


def _cluster_counts(result=None):
    if result is None:
        return {"cluster.refused": 0, "cluster.queued": 0,
                "cluster.sustained_inflight": 0}
    outcomes = result.outcomes
    return {
        "cluster.refused": outcomes.get("rejected", 0) + outcomes.get("skipped", 0),
        "cluster.queued": sum(1 for t in result.tickets if t.wait_s),
        "cluster.sustained_inflight": result.scheduler.sustained_inflight(),
    }


def _serve_counts(requests=None):
    requests = requests or {}
    return {
        f"serve.{name}": requests.get(name, 0)
        for name in ("redirected", "buffered")
    }


class Workload:
    """One named workload.

    ``run(seed)`` is the timed part and returns the program's result
    object.  ``measure(result, probes)`` reads from it, afterwards, a
    dict with ``sim`` (simulated end-to-end metrics), ``counts``
    (per-layer counts), ``info``, ``digest``, ``attempted``, ``failed``
    and ``checks``.
    """

    def __init__(self, name, run, measure):
        self.name = name
        self._run = run
        self.measure = measure

    def run(self, seed):
        with pinned_schedule():
            return self._run(seed)


def _run_paper_matrix(seed):
    matrix = TrialMatrix(seed=seed)
    matrix.run_all()
    return matrix


def _trial_row(trial):
    return {
        "workload": trial.spec.name,
        "strategy": trial.strategy,
        "prefetch": trial.prefetch,
        "outcome": trial.outcome,
        "verified": trial.verified,
        "marks": trial.marks,
        "bytes": trial.bytes_by_category,
        "faults": trial.faults,
        "messages": trial.messages_total,
        "message_handling_s": trial.message_handling_s,
        "pages": [trial.pages_bulk, trial.pages_demand],
        "prefetched": [trial.prefetched_pages, trial.prefetch_hits],
    }


def _measure_paper_matrix(matrix, probes):
    trials = list(matrix.cells())
    measured = claims.all_claims(matrix)
    freezes = [trial.migration_s for trial in trials]
    failed = sum(1 for trial in trials if trial.outcome != "completed")
    counts = layer_counts(
        [trial.obs.registry for trial in trials], probes, freezes
    )
    counts.update(_cluster_counts())
    counts.update(_serve_counts())
    return {
        "sim": _freeze_metrics(
            freezes,
            sum(trial.end_to_end_s for trial in trials),
            sum(trial.bytes_total for trial in trials),
        ),
        "counts": counts,
        "info": {"claim_error": claim_error(measured), "trials": len(trials)},
        "digest": digest(
            {"trials": [_trial_row(t) for t in trials], "claims": measured}
        ),
        "attempted": len(trials),
        "failed": failed,
        "checks": {
            "verified": all(trial.verified is True for trial in trials),
            "claims_finite": all(math.isfinite(v) for v in measured.values()),
        },
    }


def _cluster_run(knobs):
    def run(seed):
        return run_stress(StressConfig(seed=seed, **CLUSTER_SHAPE, **knobs))

    return run


def _measure_scheduled(result, probes, requests=None):
    """What a run driven through the cluster scheduler measures.

    ``attempted`` and ``failed`` count the migrations the scheduler
    admitted.  A submission it refuses (the process is already moving,
    or finished first) never reaches the migration machinery and is
    counted in ``cluster.refused`` instead.
    """
    freezes = [t.freeze_s for t in result.tickets if t.freeze_s is not None]
    aborted = result.outcomes.get("aborted", 0)
    counts = layer_counts([result.obs.registry], probes, freezes)
    counts.update(_cluster_counts(result))
    counts.update(_serve_counts(requests))
    return {
        "sim": _freeze_metrics(freezes, result.makespan_s, result.bytes_total),
        "counts": counts,
        "info": {"migrations": len(freezes)},
        "digest": result.determinism_hash,
        "attempted": result.outcomes.get("completed", 0) + aborted,
        "failed": aborted,
        "checks": {
            "verified": result.verified is True,
            "tickets_terminal": (
                sum(result.outcomes.values()) == len(result.tickets)
            ),
            "jobs_finished": all(job.finished for job in result.jobs),
        },
    }


def _run_serve_mix(seed):
    return run_serve(StressConfig(seed=seed, **SERVE_SHAPE))


def _measure_serve_mix(result, probes):
    requests = result.counts
    out = _measure_scheduled(result, probes, requests)
    during = result.latencies(during=True)
    out["info"].update({
        "request_p50_s": nearest_rank(during, 0.50),
        "request_p99_s": nearest_rank(during, 0.99),
        "request_samples": len(during),
    })
    for kind in SERVE_SHAPE["services"]:
        out["info"][f"{kind}_p99_s"] = nearest_rank(
            result.latencies(kind=kind, during=True), 0.99
        )
    out["attempted"] += requests["issued"]
    out["failed"] += requests["dropped"]
    out["checks"]["request_conservation"] = (
        requests["issued"] == requests["completed"] + requests["dropped"]
    )
    return out


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("paper-matrix", _run_paper_matrix, _measure_paper_matrix),
        Workload("cluster-iou", _cluster_run({}), _measure_scheduled),
        Workload(
            "cluster-batched-store", _cluster_run(BATCHED_STORE),
            _measure_scheduled,
        ),
        Workload("serve-mix", _run_serve_mix, _measure_serve_mix),
    )
}

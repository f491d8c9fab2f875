"""Concurrency on the shared medium: crossing migrations and overlapped
remote executions must stay correct (and slower, since the 10 Mbit
Ethernet and the NetMsgServers are genuinely shared) — and, given one
seed, bit-for-bit reproducible."""

import pytest

from repro.cluster import StressConfig, run_stress
from repro.faults import FaultPlan, LossRule
from repro.obs import jsonl_lines
from repro.sim import SeededStreams
from repro.testbed import Testbed
from repro.workloads.builder import build_process
from repro.workloads.registry import WORKLOADS
from repro.workloads.runner import RemoteRunResult, remote_body


def migrate_and_run(world, built, src_name, dst_name, strategy):
    """Generator: migrate a built process and replay its trace."""
    name = built.process.name
    result = RemoteRunResult(name)
    insertion = world.manager(dst_name).expect_insertion(name)
    yield from world.manager(src_name).migrate(
        name, world.manager(dst_name), strategy
    )
    inserted = yield insertion
    yield from remote_body(
        world.host(dst_name), inserted, built.trace, result
    )
    return result


def test_crossing_migrations_verify():
    """A minprog moves alpha->beta while a chess moves beta->alpha,
    sharing the link and both NetMsgServers."""
    world = Testbed(seed=55).world()
    streams = SeededStreams(55)
    going = build_process(
        world.source, WORKLOADS["minprog"], streams, name="going"
    )
    coming = build_process(
        world.dest, WORKLOADS["chess"], streams, name="coming"
    )

    p1 = world.engine.process(
        migrate_and_run(world, going, "alpha", "beta", "pure-iou")
    )
    p2 = world.engine.process(
        migrate_and_run(world, coming, "beta", "alpha", "pure-iou")
    )
    r1 = world.engine.run(until=p1)
    r2 = world.engine.run(until=p2)
    world.engine.run()
    assert r1.verified and r2.verified


def test_contention_slows_but_preserves_results():
    """Two simultaneous pure-copy transfers through one link take
    longer than either alone, and both arrive intact."""
    solo_world = Testbed(seed=56).world()
    streams = SeededStreams(56)
    solo = build_process(
        solo_world.source, WORKLOADS["pm-start"], streams, name="solo"
    )
    proc = solo_world.engine.process(
        migrate_and_run(solo_world, solo, "alpha", "beta", "pure-copy")
    )
    solo_result = solo_world.engine.run(until=proc)
    solo_elapsed = solo_world.engine.now

    pair_world = Testbed(seed=56).world()
    pair_streams = SeededStreams(56)
    first = build_process(
        pair_world.source, WORKLOADS["pm-start"], pair_streams, name="first"
    )
    second = build_process(
        pair_world.source, WORKLOADS["pm-mid"], pair_streams, name="second"
    )
    p1 = pair_world.engine.process(
        migrate_and_run(pair_world, first, "alpha", "beta", "pure-copy")
    )
    p2 = pair_world.engine.process(
        migrate_and_run(pair_world, second, "alpha", "beta", "pure-copy")
    )
    r1 = pair_world.engine.run(until=p1)
    r2 = pair_world.engine.run(until=p2)
    assert solo_result.verified and r1.verified and r2.verified
    # The pair contends for the source NMS: the first transfer alone
    # finishes later than the uncontended solo run.
    assert pair_world.engine.now > solo_elapsed


def test_two_remote_executions_share_one_backer():
    """Two processes at beta fault against segments backed by the same
    alpha NetMsgServer; requests interleave through one server."""
    world = Testbed(seed=57).world()
    streams = SeededStreams(57)
    jobs = []
    for index, workload in enumerate(("minprog", "chess")):
        built = build_process(
            world.source, WORKLOADS[workload], streams, name=f"j{index}"
        )
        jobs.append(
            world.engine.process(
                migrate_and_run(world, built, "alpha", "beta", "pure-iou")
            )
        )
    results = [world.engine.run(until=job) for job in jobs]
    assert all(result.verified for result in results)
    # One backer served both processes' segments.
    backer = world.source.nms.backing
    assert len(backer.retired) + len(backer.segments) >= 2


# -- deterministic replay ----------------------------------------------------
def _trace_blob(label, obs):
    """The full JSONL export as one byte string (spans, metrics, faults)."""
    return "\n".join(jsonl_lines([(label, obs)])).encode("utf-8")


def _migration_signature(result):
    """Every externally-observable MigrationResult field."""
    return {
        "outcome": result.outcome,
        "excise_s": result.excise_s,
        "transfer_s": result.transfer_s,
        "insert_s": result.insert_s,
        "migration_s": result.migration_s,
        "exec_s": result.exec_s,
        "bytes_total": result.bytes_total,
        "pages_transferred": result.pages_transferred,
        "faults": dict(result.faults),
        "verified": result.verified,
    }


def test_migrate_replays_byte_identically():
    """One seed fixes a migration trial completely: the result fields
    and the entire instrumentation export match byte for byte."""

    def trial():
        result = Testbed(seed=91, instrument=True).migrate(
            "chess", strategy="pure-iou", options={"prefetch": 1}
        )
        return _migration_signature(result), _trace_blob("migrate", result.obs)

    first_sig, first_blob = trial()
    second_sig, second_blob = trial()
    assert first_sig["outcome"] == "completed"
    assert first_blob  # the export actually carries spans
    assert first_sig == second_sig
    assert first_blob == second_blob


def test_faulted_migrate_replays_byte_identically():
    """Fault injection draws from the seeded streams too: a lossy trial
    replays exactly, drops and retransmits included."""

    def trial():
        plan = FaultPlan(loss=[LossRule(rate=0.05)])
        result = Testbed(seed=92, instrument=True, faults=plan).migrate(
            "minprog", strategy="pure-copy"
        )
        signature = _migration_signature(result)
        signature["link_drops"] = result.link_drops
        signature["retransmits"] = result.retransmits
        return signature, _trace_blob("faulted", result.obs)

    first_sig, first_blob = trial()
    second_sig, second_blob = trial()
    assert first_sig["retransmits"] > 0
    assert first_sig == second_sig
    assert first_blob == second_blob


def test_stress_replays_byte_identically():
    """A whole stress run — arrivals, picks, queueing, every migration —
    replays to the same canonical hash and the same JSONL trace."""

    def trial():
        config = StressConfig(hosts=4, procs=6, seed=31, arrival="poisson")
        result = run_stress(config, instrument=True)
        return result.determinism_hash, _trace_blob("stress", result.obs)

    first_hash, first_blob = trial()
    second_hash, second_blob = trial()
    assert first_hash == second_hash
    assert first_blob == second_blob


def test_three_workloads_fan_out_to_two_destinations():
    world = Testbed(seed=58).world(host_names=("hub", "east", "west"))
    streams = SeededStreams(58)
    plan = [
        ("minprog", "east"),
        ("pm-end", "west"),
        ("chess", "east"),
    ]
    procs = []
    for index, (workload, dest) in enumerate(plan):
        built = build_process(
            world.host("hub"), WORKLOADS[workload], streams, name=f"w{index}"
        )
        procs.append(
            world.engine.process(
                migrate_and_run(world, built, "hub", dest, "pure-iou")
            )
        )
    results = [world.engine.run(until=proc) for proc in procs]
    world.engine.run()
    assert all(result.verified for result in results)


def test_sampled_stress_replays_byte_identically():
    """Telemetry on (sampler + SLO engine) must not disturb replay: the
    tick serials come from Engine.serial, so two identically-seeded
    trials produce the same hash and the same JSONL trace bytes —
    telemetry payload included."""

    def trial():
        config = StressConfig(
            hosts=4, procs=6, seed=31, arrival="poisson",
            sample_period=0.5,
            slo=[{"name": "q", "metric": "scheduler.queued",
                  "objective": "value", "threshold": 2.0,
                  "window_s": 2.0}],
        )
        result = run_stress(config, instrument=True)
        return result.determinism_hash, _trace_blob("stress", result.obs)

    first_hash, first_blob = trial()
    second_hash, second_blob = trial()
    assert first_hash == second_hash
    assert first_blob == second_blob
    assert b'"telemetry"' in first_blob


def test_sampling_leaves_the_unsampled_hash_unchanged():
    """sample_period/slo serialise into the config hash only when set,
    so seed-era determinism hashes stay valid."""
    plain = StressConfig(hosts=4, procs=6, seed=31, arrival="poisson")
    sampled = StressConfig(hosts=4, procs=6, seed=31, arrival="poisson",
                           sample_period=0.5)
    assert "sample_period" not in plain.to_dict()
    assert sampled.to_dict()["sample_period"] == 0.5
    first = run_stress(plain, instrument=True)
    blob = _trace_blob("stress", first.obs)
    assert b'"telemetry"' not in blob

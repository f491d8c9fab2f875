"""Cluster harnesses under a source-host crash end in defined states.

A crash either rolls an in-flight move back (the ticket ends
"aborted" and the job keeps running at the source) or, with no
recovery, severs a moved job's residual dependencies, which kills it.
Neither may escape as an exception from the run.
"""

from repro.cluster import StressConfig, run_stress
from repro.faults import Crash, FaultPlan
from repro.loadbalance import BreakevenPolicy, Scenario

SHAPE = {"hosts": 4, "procs": 8, "seed": 7}
RECOVERING = FaultPlan(crashes=[Crash(host="node00", at=3.0, recover_at=6.0)])
PERMANENT = FaultPlan(crashes=[Crash(host="node00", at=8.0)])


def test_recovering_crash_aborts_moves_and_still_verifies():
    # Here two fragments of one shipment fail at the same instant: the
    # shipment fails once, and the second failure must not escape.
    result = run_stress(StressConfig(**SHAPE), faults=RECOVERING)
    assert result.outcomes["aborted"] >= 1
    assert result.verified
    assert sum(result.outcomes.values()) == len(result.tickets)
    assert all(job.finished for job in result.jobs)
    assert "killed" not in result.to_dict()  # absent unless non-empty


def test_permanent_crash_reports_the_jobs_it_killed():
    result = run_stress(StressConfig(**SHAPE), faults=PERMANENT)
    assert result.killed
    assert result.to_dict()["killed"] == result.killed
    for job in result.jobs:
        assert job.done.triggered
        assert job.finished != job.failed  # ended exactly one way
        if job.failed:
            assert "lost page" in job.failure
            # A killed job is quiescent for good: a pause fires at once.
            assert job.request_pause().triggered
    again = run_stress(StressConfig(**SHAPE), faults=PERMANENT)
    assert again.determinism_hash == result.determinism_hash


def test_serial_balancing_drives_moves_through_a_cap_one_scheduler():
    result = Scenario(
        ["chess", "chess", "pm-mid", "minprog"], hosts=3, seed=1987
    ).run(BreakevenPolicy())
    scheduler = result.scheduler
    assert scheduler.inflight_cap == 1
    assert scheduler.peak_inflight == 1
    assert scheduler.outcome_counts() == {"completed": len(result.migrations)}

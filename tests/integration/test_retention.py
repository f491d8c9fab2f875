"""A finished run keeps no dead simulated state reachable.

Once a migrated process is inserted at its destination, the address
space it left behind (page table, entries, pages no backing segment
still owes) must become garbage: the job holds its live process only,
never the build it started from.
"""

import gc
import weakref

import pytest

from repro.cluster.stress import StressConfig, run_stress
from repro.loadbalance.job import MigratableJob
from repro.serve import run_serve
from repro.workloads.builder import BuiltWorkload

SHAPES = {
    "stress": (run_stress, dict(
        hosts=4, procs=8, seed=7, migrations=8,
        workloads=("minprog", "chess"),
    )),
    "serve": (run_serve, dict(
        hosts=3, procs=3, seed=11, migrations=3, rate_per_s=1.0,
        inflight_cap=2, services=("kv", "matmul", "stream"),
    )),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_pre_migration_spaces_are_released(shape, monkeypatch):
    left_behind = []
    resume_as = MigratableJob.resume_as

    def recording(job, process, host):
        left_behind.append(weakref.ref(job.process.space))
        return resume_as(job, process, host)

    monkeypatch.setattr(MigratableJob, "resume_as", recording)
    run, knobs = SHAPES[shape]
    result = run(StressConfig(**knobs))
    gc.collect()

    assert result.verified
    assert left_behind, "the shape must migrate at least one job"
    assert [ref for ref in left_behind if ref() is not None] == []
    for job in result.jobs:
        assert not any(
            isinstance(value, BuiltWorkload) for value in vars(job).values()
        )

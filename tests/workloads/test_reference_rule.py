"""One verification rule for every workload body.

A page that holds workload data must read its ``page_head`` or the
exact ``written_head`` a write stamps.  A tamper hook in the kernel's
reference path overwrites the first page to be referenced a second time
with the write marker followed by junk: after the page's first
reference, and inside the second one once the page is resident, just
before the body checks it.  The paper-trial body, the managed
(stress/balance) job and the serving job must each record exactly that
page as corrupt.
"""

from dataclasses import replace

import pytest

from repro.accent.constants import PAGE_SIZE
from repro.loadbalance import ManagedJob
from repro.serve.server import ServingJob
from repro.serve.workloads import serving_by_name
from repro.testbed import Testbed
from repro.workloads.builder import build_process
from repro.workloads.content import WRITE_MARKER
from repro.workloads.registry import workload_by_name
from repro.workloads.runner import RemoteRunResult, remote_body
from repro.workloads.synthetic import make_synthetic

TAMPER = WRITE_MARKER + b"x" * 12


def _revisited_spec():
    base = make_synthetic(
        real_kb=128, utilisation=0.4, compute_s=2.0, name="revisity"
    )
    return replace(base, revisit_fraction=1.0)


def _tamper(kernel):
    """Install the tamper hook; the returned dict gets the page's index."""
    touch = kernel.touch
    seen = set()
    tampered = {}

    def tampering_touch(process, page_index, write=False):
        cost = touch(process, page_index, write=write)
        if tampered or page_index not in seen:
            seen.add(page_index)
            return cost
        tampered["page"] = page_index

        def corrupted():
            if cost is not None:
                yield from cost
            process.space.poke(page_index * PAGE_SIZE, TAMPER)

        return corrupted()

    kernel.touch = tampering_touch
    return tampered


def _remote_body():
    world = Testbed(seed=44).world(host_names=("a", "b"))
    host = world.host("a")
    built = build_process(host, _revisited_spec(), world.streams)
    tampered = _tamper(host.kernel)
    result = RemoteRunResult(built.spec.name)
    world.engine.run(
        until=world.engine.process(
            remote_body(host, built.process, built.trace, result)
        )
    )
    return tampered, result.mismatches


def _managed_job():
    world = Testbed(seed=44).world(host_names=("a", "b"))
    host = world.host("a")
    built = build_process(host, _revisited_spec(), world.streams)
    tampered = _tamper(host.kernel)
    job = ManagedJob(world, built)
    job.start(host)
    world.engine.run(until=job.done)
    assert job.finished
    return tampered, job.result.mismatches


def _serving_job():
    world = Testbed(seed=44).world(host_names=("a", "b"))
    host = world.host("a")
    serving = serving_by_name("kv")
    built = build_process(
        host, workload_by_name(serving.base), world.streams
    )
    tampered = _tamper(host.kernel)
    job = ServingJob(world, built, serving)
    job.start(host)
    for _ in range(60):
        job.deliver(object())
    world.engine.run(until=job.shutdown())
    assert job.finished and job.served == 60
    return tampered, job.mismatches


@pytest.mark.parametrize(
    "body",
    [_remote_body, _managed_job, _serving_job],
    ids=["remote_body", "ManagedJob", "ServingJob"],
)
def test_body_flags_exactly_the_tampered_page(body):
    tampered, mismatches = body()
    assert {index for index, _expected, _actual in mismatches} == {
        tampered["page"]
    }
    assert all(actual == TAMPER for _i, _e, actual in mismatches)

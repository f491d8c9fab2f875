"""Micro-benchmarks: the hot paths of the simulation substrate.

These time real (wall-clock) performance of the building blocks, so
regressions in the simulator itself are visible independently of the
simulated results.  The primitives are the repository benchmark's own
(``benchmarks/suite/micro.py``), so both report the same work.
"""

from benchmarks.suite.micro import (
    amap_build,
    churn_ops,
    interval_churn,
    lisp_scale_space,
    page_cow,
    ping_pong,
    thousand_timeouts,
)
from repro.accent.constants import PAGE_SIZE


def test_engine_event_throughput(benchmark):
    """Schedule-and-process cycles per second."""
    assert benchmark(thousand_timeouts) > 0


def test_process_context_switch(benchmark):
    """Ping-pong between two coroutine processes through a Store."""
    benchmark(ping_pong)


def test_interval_map_mixed_ops(benchmark):
    ops = churn_ops()
    assert benchmark(interval_churn, ops) > 0


def test_amap_construction_lisp_scale(benchmark):
    """AMap over a 4 GB space with thousands of scattered pages."""
    amap = benchmark(amap_build, lisp_scale_space())
    assert amap.real_bytes == 4000 * PAGE_SIZE


def test_page_cow_write_cycle(benchmark):
    assert benchmark(page_cow).data[:8] == b"modified"


def test_build_process_lisp_del(benchmark):
    """Pre-migration set-up of the largest real footprint (lisp-del)."""
    from repro.testbed import Testbed
    from repro.workloads.builder import build_process
    from repro.workloads.registry import WORKLOADS

    spec = WORKLOADS["lisp-del"]

    def fresh_world():
        world = Testbed(seed=1987).world()
        return (world.source, spec, world.streams), {}

    built = benchmark.pedantic(build_process, setup=fresh_world, rounds=10)
    assert built.process.space.real_bytes == spec.real_bytes


def test_full_trial_wall_clock(benchmark):
    """One complete minprog pure-IOU migration trial (the end-to-end
    unit every experiment is built from)."""
    from repro.testbed import Testbed

    def trial():
        return Testbed(seed=1987).migrate("minprog", strategy="pure-iou")

    assert benchmark(trial).verified

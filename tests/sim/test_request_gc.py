"""Granted resource requests are freed by reference counting.

A granted :class:`~repro.sim.resource.Request` carries itself as its
value (so ``yield req`` returns the request).  Left in place, that
self-reference made every granted request cyclic garbage that only the
cyclic collector could free, and a trial left more than a thousand of
them behind.  ``Resource.release`` drops it.  The same holds for the
NetMsgServer's fragment chains, which hold their requests, on a lossy
network where they retransmit.
"""

import gc

from repro.cluster.stress import StressConfig, run_stress
from repro.faults import FaultPlan
from repro.net.netmsgserver import _Fragment
from repro.sim import Engine, Request, Resource


def _unreachable_after(run):
    """Run ``run()`` with the cyclic collector off; return every object
    that only a collection could free afterwards."""
    gc.collect()
    gc.disable()
    try:
        result = run()
        del result
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return garbage


def test_stress_run_leaves_no_request_for_the_cyclic_collector():
    garbage = _unreachable_after(
        lambda: run_stress(StressConfig(hosts=4, procs=8, seed=7))
    )
    assert garbage, "the world itself is cyclic; the check saw nothing"
    assert [obj for obj in garbage if isinstance(obj, Request)] == []


def test_lossy_stress_run_leaves_no_request_or_fragment_behind():
    plan = FaultPlan.from_dict({
        "loss": [{"rate": 0.05}],
        "partitions": [{"a": "node00", "b": "node01",
                        "start": 5.0, "end": 6.0}],
    })
    counts = {}

    def run():
        result = run_stress(StressConfig(hosts=4, procs=8, seed=7),
                            faults=plan)
        registry = result.obs.registry
        for name in ("link_drops_total", "transport_retransmits_total"):
            for key, child in registry.get(name).items():
                counts[(name,) + key] = child.value
        return result

    garbage = _unreachable_after(run)
    # Both kinds of drop happened, and fragments retransmitted.
    assert counts[("link_drops_total", "loss")]
    assert counts[("link_drops_total", "partition")]
    assert sum(value for key, value in counts.items()
               if key[0] == "transport_retransmits_total")
    assert garbage, "the world itself is cyclic; the check saw nothing"
    assert [obj for obj in garbage
            if isinstance(obj, (Request, _Fragment))] == []


def test_yield_returns_the_request_and_release_drops_it():
    engine = Engine()
    cpu = Resource(engine, capacity=1)
    seen = []

    def holder():
        with cpu.held() as req:
            seen.append((yield req) is req)
            yield engine.timeout(1.0)
        seen.append(req.value)

    engine.process(holder())
    engine.process(holder())
    engine.run()
    # The second holder was granted through the FIFO hand-off.
    assert seen == [True, None, True, None]

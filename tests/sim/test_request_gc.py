"""A finished world is freed by reference counting.

Every run closes its world once its result has copied what it reports
(:meth:`~repro.testbed.TestbedWorld.close`): the engine closes the
processes still waiting on it, the instrumentation lets the engine go,
and each host lets go of its parts.  So with the cyclic collector off,
dropping the result leaves nothing that only a collection could free,
and a result kept alive holds values, not the world it came from.

Granted :class:`~repro.sim.resource.Request` objects carry themselves
as their value (so ``yield req`` returns the request); ``Resource.release``
drops that self-reference, and the NetMsgServer's fragment chains,
which hold their requests, go with them on a lossy network too.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.cluster.stress import StressConfig, run_stress
from repro.faults import FaultPlan
from repro.serve import run_serve
from repro.sim import Engine, Resource
from repro.testbed import Testbed

LOSSY = {
    "loss": [{"rate": 0.05}],
    "partitions": [{"a": "node00", "b": "node01", "start": 5.0, "end": 6.0}],
}


def _unreachable_after(run):
    """Run ``run()`` with the cyclic collector off, drop its result, and
    return every object that only a collection could free afterwards."""
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


def _kinds(garbage):
    """The commonest types among ``garbage``, for a failure message."""
    return Counter(type(obj).__name__ for obj in garbage).most_common(8)


RUNS = {
    "chess pure-iou trial": lambda: Testbed(seed=1987).migrate(
        "chess", strategy="pure-iou"
    ),
    "lisp-del pure-copy trial": lambda: Testbed(seed=1987).migrate(
        "lisp-del", strategy="pure-copy"
    ),
    "three-host minprog chain": lambda: Testbed(seed=1987).migrate_chain(
        "minprog", path=("alpha", "beta", "gamma")
    ),
    "small serve": lambda: run_serve(StressConfig(
        hosts=2, procs=2, seed=1, migrations=2, services=("kv", "stream"),
    )),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_dropped_result_leaves_nothing_for_the_cyclic_collector(name):
    garbage = _unreachable_after(RUNS[name])
    assert garbage == [], _kinds(garbage)


def test_stress_run_leaves_no_request_for_the_cyclic_collector():
    garbage = _unreachable_after(
        lambda: run_stress(StressConfig(hosts=4, procs=8, seed=7))
    )
    assert garbage == [], _kinds(garbage)


def test_lossy_stress_run_leaves_no_request_or_fragment_behind():
    plan = FaultPlan.from_dict(LOSSY)
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
    assert garbage == [], _kinds(garbage)


def test_a_live_result_keeps_values_not_its_world(monkeypatch):
    worlds = []
    build = Testbed.world

    def world(self, *args, **kwargs):
        worlds.append(build(self, *args, **kwargs))
        return worlds[-1]

    monkeypatch.setattr(Testbed, "world", world)
    gc.collect()
    gc.disable()
    try:
        result = Testbed(seed=1987).migrate("chess", strategy="pure-iou")
        (made,) = worlds
        worlds.clear()
        refs = [weakref.ref(obj) for obj in
                (made, made.engine, *made.hosts.values())]
        del made
        # Freed by reference counting alone: the collector is off.
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
    link_bytes = result.obs.registry.get("link_bytes")
    assert sum(child.value for _, child in link_bytes.items()) == (
        result.bytes_total
    )
    assert sum(result.link_records.nbytes) == result.bytes_total > 0
    assert result.obs.host_meta()["events_dispatched"] > 0


def test_a_hand_built_world_stays_live_until_its_caller_drops_it():
    world = Testbed(seed=1987).world()
    world.finish()
    # Nothing closed it: its hosts keep their parts and its server
    # loops still wait on their ports.
    assert all(host.kernel is not None for host in world.hosts.values())
    assert {process.name for process in world.engine._live} >= {
        "alpha-migmgr", "beta-migmgr",
    }
    world.close()
    # A closed host still prints, for whatever keeps it (a job's last
    # host, say).
    assert [repr(host) for host in world.hosts.values()] == [
        "<Host alpha processes=->", "<Host beta processes=->",
    ]


def test_engine_close_ends_waiting_processes_latest_first():
    engine = Engine()
    ended = []

    def wait_forever(name):
        try:
            yield engine.event()
        finally:
            ended.append(name)

    names = [f"p{index}" for index in range(8)]
    for name in names:
        engine.process(wait_forever(name), name=name)
    engine.run()
    engine.close()
    # Closing runs each generator's finally block, which may write
    # into the run's records: a fixed order keeps those writes
    # deterministic.
    assert ended == names[::-1]


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

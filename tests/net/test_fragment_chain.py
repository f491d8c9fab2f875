"""Differential test: the fragment callback chain vs a generator process.

On a perfect network the NetMsgServer sends each fragment through
source NMS CPU -> link -> destination NMS CPU as a callback chain
(``repro.net.netmsgserver._Fragment``).  It must create and dispatch
exactly the events a generator process running the same steps did, in
the same order, with the same bookkeeping at the same points.  This
file keeps that generator (:func:`generator_pipe`, the pipe the chain
replaced) as the oracle and replays the same shipments through both,
comparing:

* every dispatched event as a :class:`~repro.sim.trace.TraceLog` entry
  ``(time, kind, detail)``, and every resource grant with its resource;
* the link's ``frames``/``bytes``/``peak_inflight`` and the NMS CPUs'
  and medium's busy time;
* the collector's link records and registry, and the bytes credited
  to the ship-time phase.
"""

import pytest

from repro.accent.ipc.message import InlineSection, Message, RegionSection
from repro.accent.vm.page import Page
from repro.net import netmsgserver
from repro.sim import Request
from repro.sim.trace import TraceLog
from repro.testbed import Testbed


def generator_pipe(nms, wire_bytes, link, peer, category, phase):
    """One fragment's passage as a generator: the oracle for the chain."""
    hop = nms.calibration.nms_hop_s(wire_bytes)
    with nms.cpu.held() as req:
        yield req
        yield nms.engine.timeout(hop)
    nms.host.metrics.record_nms(nms.host.name, hop)
    yield from link.transmit(wire_bytes)
    nms.host.metrics.record_link(
        wire_bytes, category, nms.host.name, peer.host.name, phase=phase
    )
    with peer.cpu.held() as req:
        yield req
        yield nms.engine.timeout(hop)
    nms.host.metrics.record_nms(peer.host.name, hop)


class GeneratorFragment:
    """Stands in for ``_Fragment``: the same arguments, a generator
    process as :attr:`done`."""

    def __init__(self, nms, wire_bytes, link, peer, category, phase, hop,
                 name):
        self.done = nms.engine.process(
            generator_pipe(nms, wire_bytes, link, peer, category, phase),
            name=name,
        )


def _bulk(port, pages, op="bulk"):
    return Message(
        port, op,
        sections=[RegionSection(
            {index: Page(bytes([index % 251]) * 64) for index in range(pages)},
            force_copy=True,
        )],
    )


def _single(world):
    port = world.host("beta").create_port()
    tiny = Message(port, "tiny", sections=[InlineSection(b"x")])
    return [("alpha", 0.0, tiny)]


def _multi(world):
    return [("alpha", 0.0, _bulk(world.host("beta").create_port(), 40))]


def _fan_in(world):
    # Two senders in the same instant: both source CPUs run in
    # parallel, then their fragments contend for the one medium and
    # for gamma's CPU.
    port = world.host("gamma").create_port()
    return [
        ("alpha", 0.0, _bulk(port, 12, "from-alpha")),
        ("beta", 0.0, _bulk(port, 12, "from-beta")),
    ]


def _cache_interleaved(world):
    # The middle message's large unflagged region is cached as an IOU:
    # its _cache_cost hold queues on alpha's NMS CPU behind the first
    # message's fragments, and the last message's fragments queue
    # behind the hold.
    port = world.host("beta").create_port()
    cached = Message(
        port, "cached",
        sections=[RegionSection({index: Page() for index in range(32)})],
    )
    return [
        ("alpha", 0.0, _bulk(port, 8)),
        ("alpha", 0.003, cached),
        ("alpha", 0.004, _bulk(port, 8, "bulk-after")),
    ]


SCENARIOS = {
    "single": (("alpha", "beta"), _single),
    "multi-fragment": (("alpha", "beta"), _multi),
    "fan-in": (("alpha", "beta", "gamma"), _fan_in),
    "cache-interleaved": (("alpha", "beta"), _cache_interleaved),
}


def _send_at(world, sender, delay, message):
    engine = world.engine
    if delay:
        yield engine.timeout(delay)
    yield from world.host(sender).kernel.send(message)


def replay(scenario, monkeypatch, fragment):
    """Run one scenario with ``fragment`` as the perfect-network pipe;
    returns everything the two pipes must agree on."""
    host_names, build = SCENARIOS[scenario]
    with monkeypatch.context() as patch:
        patch.setattr(netmsgserver, "_Fragment", fragment)
        world = Testbed(seed=11, instrument=True).world(host_names=host_names)
        engine = world.engine
        log = TraceLog.attach(engine, capacity=None)
        # A grant's trace entry does not name its resource; this does,
        # so two same-instant grants swapped between resources show.
        grants = []
        engine.add_observer(
            lambda now, event: grants.append((now, event.resource.name))
            if isinstance(event, Request) else None
        )
        obs = world.obs
        phase = obs.tracer.span("transfer")
        obs.push_phase(phase)
        for sender, delay, message in build(world):
            engine.process(
                _send_at(world, sender, delay, message), name=sender
            )
        engine.run()
    obs.finalize()
    link = world.link
    return {
        "trace": [tuple(entry) for entry in log.entries],
        "grants": grants,
        "link": (link.frames, link.bytes, link.peak_inflight, link.inflight,
                 link.medium.busy_time),
        "cpus": {name: host.nms.cpu.busy_time
                 for name, host in world.hosts.items()},
        "link_records": list(world.metrics.link_records),
        "registry": obs.registry.snapshot(),
        "phase": dict(phase.counters),
        "now": engine.now,
    }


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_chain_matches_generator_pipe(scenario, monkeypatch):
    chain = replay(scenario, monkeypatch, netmsgserver._Fragment)
    oracle = replay(scenario, monkeypatch, GeneratorFragment)
    assert chain["trace"], "the scenario dispatched nothing"
    for key in oracle:
        assert chain[key] == oracle[key], key


def test_fan_in_contends_for_the_medium(monkeypatch):
    result = replay("fan-in", monkeypatch, netmsgserver._Fragment)
    assert result["link"][2] > 1


def test_cache_hold_interleaves_with_fragments(monkeypatch):
    """The IOU-cache hold waits behind fragments on alpha's CPU, and
    fragments still wait behind it when it ends."""
    queues = []
    cache_cost = netmsgserver.NetMsgServer._cache_cost

    def spying(nms, cached):
        queues.append(nms.cpu.queued)
        yield from cache_cost(nms, cached)
        queues.append(nms.cpu.queued)

    monkeypatch.setattr(netmsgserver.NetMsgServer, "_cache_cost", spying)
    replay("cache-interleaved", monkeypatch, netmsgserver._Fragment)
    assert len(queues) == 2 and min(queues) > 0

"""Differential test: the fragment callback chain vs generator processes.

The NetMsgServer sends each fragment through source NMS CPU -> link ->
destination NMS CPU as a callback chain
(``repro.net.netmsgserver._Fragment``), which with a fault model on the
link is also the reliable transport (sequence numbers, acks,
retransmission).  It must create and dispatch exactly the events the
generator processes it replaced did, in the same order, with the same
bookkeeping at the same points.  This file keeps those generators as
the oracle -- :func:`generator_pipe` for a perfect network,
:func:`reliable_fragment` under a fault model, both over
:func:`transmit`, the link's generator -- and replays the same
shipments through both, comparing:

* every dispatched event as a :class:`~repro.sim.trace.TraceLog` entry
  ``(time, kind, detail)``, every resource grant with its resource, and
  every failed event;
* the link's ``frames``/``bytes``/``drops``/``peak_inflight`` and the
  NMS CPUs' and medium's busy time;
* the collector's link records and registry (``link_drops_total``,
  ``transport_retransmits_total``, ``transport_duplicates_total``), and
  the bytes credited to the ship-time phase;
* each ship span's interval and counters, and its ``retransmit``
  children's intervals and attributes;
* each ``TransportError`` a sender saw, with its time and message.
"""

import pytest

from repro.accent.ipc.message import InlineSection, Message, RegionSection
from repro.accent.vm.page import Page
from repro.faults import FaultPlan
from repro.net import TransportError, netmsgserver
from repro.obs.span import NULL_SPAN
from repro.sim import Request
from repro.sim.trace import TraceLog
from repro.testbed import Testbed


def transmit(self, nbytes, source=None, dest=None, span=NULL_SPAN):
    """The link's generator (``Link.transmit``) the chain's link stages
    replaced, ``self`` being the :class:`~repro.net.link.Link`."""
    calibration = self.calibration
    self.inflight += 1
    if self.inflight > self.peak_inflight:
        self.peak_inflight = self.inflight
    try:
        with self.medium.held() as req:
            yield req
            yield self.engine.timeout(
                (nbytes * 8.0) / calibration.link_bandwidth_bps
            )
    finally:
        self.inflight -= 1
    faults = self.faults
    if faults is not None:
        if source is not None and dest is not None:
            reason = faults.should_drop(source, dest, self.engine.now)
            if reason is not None:
                self.drops += 1
                faults.record_drop(reason)
                span.add("drops")
                return False
        span.add("frames")
    self.frames += 1
    self.bytes += nbytes
    yield self.engine.timeout(calibration.link_latency_s)
    return True


def generator_pipe(nms, wire_bytes, link, peer, category, phase):
    """One fragment's passage on a perfect network as a generator."""
    hop = nms.calibration.nms_hop_s(wire_bytes)
    with nms.cpu.held() as req:
        yield req
        yield nms.engine.timeout(hop)
    nms.host.metrics.record_nms(nms.host.name, hop)
    yield from transmit(link, wire_bytes)
    nms.host.metrics.record_link(
        wire_bytes, category, nms.host.name, peer.host.name, phase=phase
    )
    with peer.cpu.held() as req:
        yield req
        yield nms.engine.timeout(hop)
    nms.host.metrics.record_nms(peer.host.name, hop)


def reliable_fragment(self, wire_bytes, link, peer, category, hop, span,
                      phase=None):
    """The reliable transport as a generator (``_reliable_fragment``),
    ``self`` being the sending NetMsgServer."""
    calibration = self.calibration
    seq = (self.host.name, next(self._seq))
    timeout = calibration.retransmit_timeout_s
    attempts = 0
    retry_span = NULL_SPAN
    try:
        while True:
            attempts += 1
            if self.host.crashed:
                raise TransportError(
                    f"{self.host.name} crashed while sending {category}"
                )
            with self.cpu.held() as req:
                yield req
                yield self.engine.timeout(hop)
            self.host.metrics.record_nms(self.host.name, hop)
            delivered = yield from transmit(
                link, wire_bytes, source=self.host, dest=peer.host, span=span
            )
            if delivered:
                self.host.metrics.record_link(
                    wire_bytes, category, self.host.name, peer.host.name,
                    phase=phase,
                )
                if seq in peer._seen_seqs:
                    self._duplicates.inc(1, host=peer.host.name)
                else:
                    peer._seen_seqs.add(seq)
                    with peer.cpu.held() as req:
                        yield req
                        yield self.engine.timeout(hop)
                    self.host.metrics.record_nms(peer.host.name, hop)
                acked = yield from transmit(
                    link, calibration.ack_wire_bytes,
                    source=peer.host, dest=self.host, span=span,
                )
                if acked:
                    return
            if attempts >= calibration.retransmit_max_attempts:
                raise TransportError(
                    f"fragment of {category} from {self.host.name} to "
                    f"{peer.host.name} undeliverable after {attempts} attempts"
                )
            self._retransmits.inc(1, host=self.host.name)
            span.add("retransmits")
            retry_span.finish()
            retry_span = span.child(
                "retransmit", attempt=attempts + 1, backoff_s=timeout
            )
            yield self.engine.timeout(timeout)
            timeout = min(
                timeout * calibration.retransmit_backoff_factor,
                calibration.retransmit_timeout_cap_s,
            )
    finally:
        retry_span.finish()


class GeneratorFragment:
    """Stands in for ``_Fragment``: the same arguments, a generator
    process as :attr:`done`, chosen as ``ship`` chose before the chain
    took over the faulty path."""

    def __init__(self, shipment, wire_bytes, hop, name):
        nms, link, peer = shipment.nms, shipment.link, shipment.peer
        category, phase = shipment.category, shipment.phase
        if link.faults is None:
            pipe = generator_pipe(
                nms, wire_bytes, link, peer, category, phase
            )
        else:
            pipe = reliable_fragment(
                nms, wire_bytes, link, peer, category, hop, shipment.span,
                phase,
            )
        self.done = nms.engine.process(pipe, name=name)


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


def _multi_then_single(world):
    # The single message leaves after its source crashed mid-bulk.
    port = world.host("beta").create_port()
    tiny = Message(port, "tiny", sections=[InlineSection(b"x")])
    return [("alpha", 0.0, _bulk(port, 40)), ("alpha", 0.6, tiny)]


TWO = ("alpha", "beta")

#: name -> (hosts, fault plan or None, shipments).  The bulk message
#: takes alpha -> beta about 1.3 s under a fault model (36 fragments,
#: each acked); the single one about 0.03 s.
SCENARIOS = {
    "single": (TWO, None, _single),
    "multi-fragment": (TWO, None, _multi),
    "fan-in": (("alpha", "beta", "gamma"), None, _fan_in),
    "cache-interleaved": (TWO, None, _cache_interleaved),
    "lossy-bulk": (TWO, {"loss": [{"rate": 0.05}]}, _multi),
    # The first ack is lost; its fragment's second copy is a duplicate.
    "lost-ack": (
        TWO,
        {"loss": [{"rate": 1.0, "source": "beta", "dest": "alpha",
                   "end": 0.1}]},
        _single,
    ),
    "total-loss": (TWO, {"loss": [{"rate": 1.0}]}, _single),
    "source-crash": (TWO, {"crashes": [{"host": "alpha", "at": 0.5003}]},
                     _multi_then_single),
    "dest-crash": (
        TWO,
        {"crashes": [{"host": "beta", "at": 0.5003, "recover_at": 1.1}]},
        _multi,
    ),
    "partition-window": (
        TWO,
        {"partitions": [{"a": "alpha", "b": "beta", "start": 0.4003,
                         "end": 0.9}]},
        _multi,
    ),
}
LOSSY = sorted(name for name, (_, plan, _) in SCENARIOS.items() if plan)


def _send_at(world, sender, delay, message, failures, phase):
    engine = world.engine
    if delay:
        yield engine.timeout(delay)
    try:
        with world.obs.phase(phase):
            yield from world.host(sender).kernel.send(message)
    except TransportError as error:
        failures.append((engine.now, str(error)))


def _span_record(span):
    return (span.span_id, span.name, span.start, span.end, span.attrs,
            span.counters)


def replay(scenario, monkeypatch, fragment):
    """Run one scenario with ``fragment`` as the fragment pipe; returns
    everything the two pipes must agree on."""
    host_names, plan, build = SCENARIOS[scenario]
    if plan is not None:
        plan = FaultPlan.from_dict(plan)
    with monkeypatch.context() as patch:
        patch.setattr(netmsgserver, "_Fragment", fragment)
        world = Testbed(seed=11, instrument=True, faults=plan).world(
            host_names=host_names
        )
        engine = world.engine
        log = TraceLog.attach(engine, capacity=None)
        # A grant's trace entry does not name its resource; this does,
        # so two same-instant grants swapped between resources show.
        grants = []
        engine.add_observer(
            lambda now, event: grants.append((now, event.resource.name))
            if isinstance(event, Request) else None
        )
        # Nor does it say whether the event failed.
        failed = []
        engine.add_observer(
            lambda now, event: failed.append(
                (now, type(event).__name__, getattr(event, "name", None))
            ) if event._ok is False else None
        )
        obs = world.obs
        # Every sender credits one phase, so the two pipes' byte
        # attribution compares on one span.
        phase = obs.tracer.span("transfer")
        failures = []
        for sender, delay, message in build(world):
            engine.process(
                _send_at(world, sender, delay, message, failures, phase),
                name=sender,
            )
        engine.run()
    obs.finalize()
    link = world.link
    return {
        "trace": [tuple(entry) for entry in log.entries],
        "grants": grants,
        "failed": failed,
        "link": (link.frames, link.bytes, link.drops, link.peak_inflight,
                 link.inflight, link.medium.busy_time),
        "cpus": {name: host.nms.cpu.busy_time
                 for name, host in world.hosts.items()},
        "link_records": list(world.metrics.link_records),
        "registry": obs.registry.snapshot(),
        "phase": dict(phase.counters),
        "ships": [
            (_span_record(span), [_span_record(child)
                                  for child in span.children])
            for span in obs.tracer.spans if span.name.startswith("ship ")
        ],
        "failures": failures,
        "now": engine.now,
    }


def _total(result, family):
    """Sum of one registry counter family over its label sets."""
    series = result["registry"].get(family, {"series": []})["series"]
    return sum(entry["value"] for entry in series)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_chain_matches_generator_pipe(scenario, monkeypatch):
    chain = replay(scenario, monkeypatch, netmsgserver._Fragment)
    oracle = replay(scenario, monkeypatch, GeneratorFragment)
    assert chain["trace"], "the scenario dispatched nothing"
    # Each sender's phase is credited with every byte that arrived.
    assert chain["phase"].get("bytes", 0) == sum(
        record.bytes for record in chain["link_records"]
    )
    for key in oracle:
        assert chain[key] == oracle[key], key


@pytest.mark.parametrize("scenario", LOSSY)
def test_fault_scenario_exercises_the_transport(scenario, monkeypatch):
    """Each fault scenario reaches the branch it is named for."""
    result = replay(scenario, monkeypatch, netmsgserver._Fragment)
    drops = result["link"][2]
    retransmits = _total(result, "transport_retransmits_total")
    assert drops and retransmits
    assert drops == _total(result, "link_drops_total")
    children = [child for _, kids in result["ships"] for child in kids]
    assert len(children) == retransmits
    assert all(child[1] == "retransmit" for child in children)
    duplicates = _total(result, "transport_duplicates_total")
    failures = result["failures"]
    if scenario == "lost-ack":
        assert (drops, retransmits, duplicates) == (1, 1, 1)
    if scenario == "total-loss":
        attempts = Testbed().calibration.retransmit_max_attempts
        assert retransmits == attempts - 1
        assert failures == [(result["now"], (
            f"fragment of tiny from alpha to beta undeliverable after "
            f"{attempts} attempts"
        ))]
    if scenario == "source-crash":
        # The late message fails on its first attempt, before the bulk
        # one's fragments have waited out their backoff.
        assert [reason for _, reason in failures] == [
            "alpha crashed while sending tiny",
            "alpha crashed while sending bulk",
        ]
    if scenario in ("lossy-bulk", "lost-ack", "dest-crash",
                    "partition-window"):
        assert failures == []
        assert result["link_records"]


def test_failing_chains_fail_the_shipment_once(monkeypatch):
    """With alpha down, every bulk fragment still in flight fails.  The
    first failure fails the shipment's ``all_of`` and reaches the
    sender; the later ones stay defused rather than surfacing at the
    end of the run."""
    made = []

    class Recording(netmsgserver._Fragment):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self.done)

    result = replay("source-crash", monkeypatch, Recording)
    bulk = [done for done in made if done.name == "frag-bulk"]
    failed_chains = [done for done in bulk if not done.ok]
    assert len(failed_chains) > 1
    assert all(done._defused for done in made)
    failed = [(kind, name) for _, kind, name in result["failed"]]
    assert failed.count(("Process", "frag-bulk")) == len(failed_chains)
    # One failed all_of per shipment (bulk and tiny), one error each.
    assert [kind for kind, _ in failed].count("AllOf") == 2
    assert len(result["failures"]) == 2


def test_fan_in_contends_for_the_medium(monkeypatch):
    result = replay("fan-in", monkeypatch, netmsgserver._Fragment)
    assert result["link"][3] > 1


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

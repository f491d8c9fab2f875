"""A shared-medium network link (10 Mbit Ethernet).

The medium is a capacity-1 resource: one frame serialises at a time in
either direction (CSMA).  Propagation latency is added after the medium
is released, so back-to-back fragments pipeline.

A frame crosses in two stages that the NetMsgServer's fragment chain
(``repro.net.netmsgserver._Fragment``) calls: :meth:`Link.enter` queues
it for the medium, and once its serialisation time has passed
:meth:`Link.settle` releases the medium and decides whether it arrived.

A :class:`~repro.faults.injector.FaultInjector` may attach itself as
the link's fault model (``link.faults``); it is consulted once per
frame, at settlement — a dropped frame burnt its medium time but
never reaches the far side.  With no model attached every frame is
delivered.
"""

from repro.sim import Resource


class Link:
    """The cable between two (or more) hosts."""

    def __init__(self, engine, calibration, name="ether"):
        self.engine = engine
        self.calibration = calibration
        self.name = name
        self.medium = Resource(engine, capacity=1, name=name)
        self.frames = 0
        self.bytes = 0
        #: Frames eaten by the fault model (loss/partition/crash).
        self.drops = 0
        #: Transmissions currently contending for the medium (queued or
        #: serialising) — the pipelining signal the transfer benchmark
        #: reports via :attr:`peak_inflight`.
        self.inflight = 0
        #: High-water mark of :attr:`inflight` over the run.
        self.peak_inflight = 0
        #: The world's FaultInjector, or None for a perfect network.
        self.faults = None

    def __repr__(self):
        return (
            f"<Link {self.name} frames={self.frames} bytes={self.bytes} "
            f"drops={self.drops}>"
        )

    def enter(self):
        """Count a frame in flight and queue it for the medium.

        Returns the medium :class:`~repro.sim.resource.Request`; once
        it is granted the frame serialises for ``nbytes * 8`` over
        ``link_bandwidth_bps`` seconds, then goes to :meth:`settle`.
        """
        self.inflight += 1
        if self.inflight > self.peak_inflight:
            self.peak_inflight = self.inflight
        return self.medium.request()

    def settle(self, req, nbytes, source, dest, span):
        """Release a serialised frame's medium slot (``req``, from
        :meth:`enter`) and decide its fate.

        Returns True if the frame was delivered (it then arrives
        ``link_latency_s`` later), False if the fault model ate it.
        ``source``/``dest`` are the endpoint Hosts the fault model
        judges.  With a model attached, ``span`` is credited
        per-frame outcomes (``frames`` delivered / ``drops`` eaten);
        on a perfect network every frame arrives, so the ship span's
        ``fragments`` counter already tells the whole story.
        """
        self.medium.release(req)
        self.inflight -= 1
        faults = self.faults
        if faults is not None:
            reason = faults.should_drop(source, dest, self.engine.now)
            if reason is not None:
                self.drops += 1
                faults.record_drop(reason)
                span.add("drops")
                return False
            span.add("frames")
        self.frames += 1
        self.bytes += nbytes
        return True

    def utilisation(self):
        """Fraction of time the medium has been busy."""
        return self.medium.utilisation()

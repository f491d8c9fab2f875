"""The residual-dependency flusher: push owed pages after migration.

Pure copy-on-reference leaves a migrated process hostage to its source
host for as long as any page remains owed — the paper's central caveat.
The flusher shrinks that vulnerability window: once insertion completes,
the destination registers each inherited imaginary segment with its
backer, and the backer's host trickles the still-owed pages across in
batches until nothing is owed.

Protocol (all ordinary IPC, so every byte is costed on the link):

1. Destination MigrationManager sends ``flush.register`` to each
   backing port, reply-ported at the destination flusher's intake.
2. The source BackingServer hands the segment to its local flusher,
   which runs one pump process per registration.
3. The pump sends ``imag.push`` messages (RegionSections, NoIOUs) of up
   to ``batch_pages`` pages every ``interval_s`` seconds.
4. The destination flusher installs arrivals that demand faults have
   not already beaten across.

Pushes are idempotent against demand faults: the backer's stash retains
page data after a push, so a racing Imaginary Read Request still
resolves, and the installer skips pages already present.
"""

from repro.accent.ipc.message import Message, RegionSection
from repro.accent.pager import OP_IMAG_PUSH
from repro.faults.errors import TransportError
from repro.obs import causal


class ResidualFlusher:
    """Per-host daemon: pumps owed pages out, installs pushed pages in."""

    def __init__(self, host, batch_pages=None, interval_s=None):
        self.host = host
        self.engine = host.engine
        calibration = host.calibration
        self.batch_pages = (
            batch_pages if batch_pages is not None
            else calibration.flush_batch_pages
        )
        self.interval_s = (
            interval_s if interval_s is not None
            else calibration.flush_interval_s
        )
        if self.batch_pages <= 0:
            raise ValueError(f"batch_pages must be > 0, got {self.batch_pages}")
        if self.interval_s < 0:
            raise ValueError(f"interval_s must be >= 0, got {self.interval_s}")
        self.port = host.create_port(name=f"{host.name}-flusher")
        #: Pump processes started on behalf of registered segments.
        self.pumps = []
        #: Segments those pumps are (or were) draining, in registration
        #: order — the telemetry sampler's backlog view.
        self.segments = []
        self._server = self.engine.process(
            self._serve(), name=f"{host.name}-flusher"
        )
        host.flusher = self

    def __repr__(self):
        return (
            f"<ResidualFlusher {self.host.name} batch={self.batch_pages} "
            f"interval={self.interval_s}>"
        )

    # -- source side: pushing ---------------------------------------------------
    def pump(self, segment, dest_port, process_name, backer, trace_ctx=None):
        """Start pushing a segment's owed pages toward ``dest_port``.

        ``trace_ctx`` is the registration message's causal context (the
        migration that created the residual dependency); every batch
        span parents under it.
        """
        pump = self.engine.process(
            self._pump(segment, dest_port, process_name, backer, trace_ctx),
            name=f"{self.host.name}-pump-{segment.label}",
        )
        self.pumps.append(pump)
        self.segments.append(segment)
        return pump

    def backlog_pages(self):
        """Owed pages across live segments this flusher is pumping."""
        return sum(
            len(segment.owed) for segment in self.segments
            if not segment.dead
        )

    def _pump(self, segment, dest_port, process_name, backer, trace_ctx=None):
        obs = self.host.metrics.obs
        registry = obs.registry
        flushed = registry.counter("flushed_pages_total", labels=("host",))
        failures = registry.counter("flush_failures_total", labels=("host",))
        parent = trace_ctx.span if trace_ctx is not None else None
        batches = 0
        while True:
            if segment.dead or not segment.owed or self.host.crashed:
                return
            batch = sorted(segment.owed)[: self.batch_pages]
            pages = {index: segment.stash[index] for index in batch}
            push = Message(
                dest=dest_port,
                op=OP_IMAG_PUSH,
                sections=[
                    RegionSection(pages, force_copy=True, label="imag-push")
                ],
                no_ious=True,
                meta={
                    "process_name": process_name,
                    "segment_id": segment.segment_id,
                },
            )
            batches += 1
            batch_span = obs.tracer.span(
                "flush-batch",
                parent=parent,
                track=f"flusher/{self.host.name}",
                segment=segment.segment_id,
                batch=batches,
                pages=len(batch),
            )
            causal.attach(push, batch_span)
            try:
                yield from self.host.kernel.send(push)
            except TransportError:
                # The destination is unreachable; the process over there
                # is dead or partitioned away.  Stop pumping — a demand
                # fault (or its absence) settles the process's fate.
                failures.inc(1, host=self.host.name)
                return
            finally:
                batch_span.finish()
            for index in batch:
                segment.owed.discard(index)
            segment.pages_delivered += len(batch)
            flushed.inc(len(batch), host=self.host.name)
            backer.note_progress(segment)
            if segment.owed and self.interval_s > 0:
                yield self.engine.timeout(self.interval_s)

    # -- destination side: installing -------------------------------------------
    def _serve(self):
        while True:
            message = yield self.port.receive()
            if message.op == OP_IMAG_PUSH:
                yield from self._absorb(message)
            # Unknown ops are dropped silently: the flusher is a sink.

    def _absorb(self, message):
        process = self.host.kernel.processes.get(message.meta["process_name"])
        if process is None:
            # Killed, terminated, or migrated away since registration.
            return
        space = process.space
        region = message.first_section(RegionSection)
        if region is None:
            return
        for index in sorted(region.pages):
            if space.entry(index) is not None:
                continue  # a demand fault won the race
            yield from self.host.pager.install_pushed(
                space, index, region.pages[index]
            )
            space.page_table[index].prefetched = True

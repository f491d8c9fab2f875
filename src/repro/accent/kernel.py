"""The Accent kernel: fault entry point, IPC send path, and the
ExciseProcess / InsertProcess migration traps (paper §3.1).

All kernel operations that consume simulated time are generators meant
to be driven with ``yield from`` inside a simulated process.  The fast
path — touching a resident page — returns ``None`` so workloads pay
nothing for it, mirroring a real TLB hit.
"""

from repro.accent.constants import PAGE_SIZE
from repro.accent.ipc.message import (
    AMapSection,
    InlineSection,
    IOUSection,
    Message,
    RegionSection,
    RightsSection,
)
from repro.accent.ipc.port import RECEIVE
from repro.accent.ipc.stats import TransferStats
from repro.accent.pager import OP_IMAG_DEATH
from repro.accent.process import AccentProcess, ProcessStatus
from repro.accent.vm.accessibility import REAL_MEM, REAL_ZERO_MEM
from repro.accent.vm.address_space import (
    AddressSpace,
    AddressSpaceError,
    ImaginaryMapping,
    Residency,
    VALIDATED,
)
from repro.faults.errors import TransportError


class AddressingError(Exception):
    """A BadMem reference: the debugger is invoked (paper §2.3)."""


class Debugger:
    """Per-host debugger: records BadMem references for the human user.

    Paper §2.3: "Referencing a BadMem page invokes a debugger so the
    human user can analyze and properly terminate the delinquent
    process."  We record enough for the analysis (who, which page,
    when) before the fault surfaces as an :class:`AddressingError`.
    """

    def __init__(self, host_name):
        self.host_name = host_name
        #: (simulated time, process name, page index) per invocation.
        self.invocations = []

    def __repr__(self):
        return f"<Debugger {self.host_name} invocations={len(self.invocations)}>"

    def invoke(self, now, process, page_index):
        """Record one BadMem reference for later analysis."""
        self.invocations.append((now, process.name, page_index))


class KernelError(Exception):
    """Illegal kernel operation (unknown process, malformed context)."""


class Kernel:
    """Per-host kernel state and traps."""

    def __init__(self, host):
        self.host = host
        self.engine = host.engine
        self.calibration = host.calibration
        self.processes = {}
        self.stats = TransferStats()
        self.debugger = Debugger(host.name)

    def __repr__(self):
        return f"<Kernel {self.host.name} processes={len(self.processes)}>"

    # -- process management ----------------------------------------------------
    def register(self, process):
        """Adopt a process (newly created or just inserted)."""
        if process.name in self.processes:
            raise KernelError(f"process {process.name!r} already present")
        process.host = self.host
        process.status = ProcessStatus.RUNNABLE
        self.processes[process.name] = process
        self.host.register_space(process.space)
        # Ports this process can Receive on are now served from here.
        for right in process.rights_for(RECEIVE):
            right.port.move_home(self.host)
        return process

    def lookup(self, name):
        """The process named ``name`` on this host (KernelError if absent)."""
        try:
            return self.processes[name]
        except KeyError:
            raise KernelError(
                f"no process {name!r} on host {self.host.name}"
            ) from None

    # -- memory reference path ----------------------------------------------------
    def touch(self, process, page_index, write=False):
        """Reference one page; ``None`` if free, else a cost generator
        the caller runs with ``yield from`` (see
        :func:`repro.workloads.runner.reference`).
        """
        space = process.space
        entry = space.page_table.get(page_index)
        if entry is not None and entry.residency is Residency.RESIDENT:
            self.host.physical.touch((space.space_id, page_index))
            entry.last_touch = self.engine._now
            if entry.prefetched:
                entry.prefetched = False
                self.host.metrics.record_prefetch_hit()
            if write and entry.page.shared:
                return self._cow_break()
            return None
        return self._slow_touch(process, space, page_index, write)

    def _cow_break(self):
        """Charge the deferred-copy cost for a write to a shared page."""
        self.stats.cow_breaks += 1
        self.stats.cow_break_bytes += PAGE_SIZE
        yield self.engine.timeout(self.calibration.cow_break_s)

    def _slow_touch(self, process, space, index, write):
        entry = space.entry(index)
        if entry is not None:
            # Real page, currently paged out to the local disk.
            yield from self.host.pager.disk_fault(space, index)
        else:
            region = space.region_at(index * PAGE_SIZE)
            if region is None:
                self.debugger.invoke(self.engine.now, process, index)
                raise AddressingError(
                    f"{process.name} touched BadMem page {index}"
                )
            if region is VALIDATED:
                yield from self.host.pager.fill_zero_fault(space, index)
            elif isinstance(region, ImaginaryMapping):
                yield from self.host.pager.imaginary_fault(space, index, region)
            else:  # pragma: no cover - region table holds only these two
                raise KernelError(f"unknown region value {region!r}")
        entry = space.entry(index)
        entry.last_touch = self.engine.now
        if entry.prefetched:
            # The page raced in via another fault's prefetch.
            entry.prefetched = False
            self.host.metrics.record_prefetch_hit()
        if write and entry.page.shared:
            yield from self._cow_break()

    # -- IPC send path ----------------------------------------------------------
    def send(self, message):
        """Generator: deliver ``message``; completes once enqueued at
        the destination port (possibly across the network)."""
        message.source_host = self.host
        self.stats.messages += 1
        self._account_transfer(message)
        yield self.engine.timeout(self.calibration.ipc_local_s)
        dest_host = message.dest.home_host
        if dest_host is self.host:
            yield message.dest.enqueue(message)
        else:
            if self.host.nms is None:
                raise KernelError(
                    f"{self.host.name} has no NetMsgServer but "
                    f"{message.dest!r} is remote"
                )
            yield from self.host.nms.ship(message, dest_host)

    def post(self, message):
        """Fire-and-forget send; returns the background Process.

        Nobody waits on an asynchronous send, so an injected-fault
        delivery failure is counted rather than raised — a backer
        whose reply cannot reach a dead peer must not take its whole
        world down with it.
        """

        def background():
            try:
                yield from self.send(message)
            except TransportError:
                self.host.metrics.obs.registry.counter(
                    "async_send_failures_total", labels=("host",)
                ).inc(1, host=self.host.name)

        return self.engine.process(background(), name=f"send-{message.op}")

    def _account_transfer(self, message):
        """Fitzgerald accounting: mapped vs physically copied bytes."""
        threshold = self.calibration.cow_threshold_bytes
        for section in message.sections:
            if isinstance(section, RegionSection):
                if section.byte_size > threshold:
                    self.stats.mapped_bytes += section.byte_size
                    section.share_pages()
                else:
                    self.stats.copied_bytes += section.byte_size
                    section.pages = {
                        index: page.fork_copy()
                        for index, page in section.pages.items()
                    }
            elif isinstance(section, InlineSection):
                self.stats.copied_bytes += len(section.payload)

    # -- ExciseProcess (paper §3.1) ------------------------------------------------
    def excise_process(self, name):
        """Generator → (core_message, rimas_message).

        Removes the process from this host.  The Core message carries
        the microstate, kernel stack, PCB, port rights and the full
        AMap; the RIMAS message carries every real page plus IOUs for
        memory the process itself still held imaginary.
        """
        process = self.lookup(name)
        space = process.space
        calibration = self.calibration
        metrics = self.host.metrics

        # Trap entry, port-right bookkeeping, microstate capture.
        yield self.engine.timeout(calibration.excise_fixed_s)

        # Phase 1: AMap construction (expensive: complex process maps
        # plus lazy-update table searches, §4.3.1).
        metrics.mark("excise.amap.start")
        yield self.engine.timeout(
            calibration.excise_amap_s(process.map_entries)
        )
        amap = space.amap()
        metrics.mark("excise.amap.end")

        # Phase 2: collapse of process memory into a contiguous chunk,
        # delivered by memory-mapping (cost scales with run count).
        real_runs = space.real_runs()
        metrics.mark("excise.rimas.start")
        yield self.engine.timeout(calibration.excise_rimas_s(len(real_runs)))
        metrics.mark("excise.rimas.end")

        core = Message(
            dest=None,
            op="migrate.core",
            sections=[
                InlineSection(
                    process.microstate + process.kernel_stack + process.pcb,
                    label="core-context",
                ),
                RightsSection(process.port_rights),
                AMapSection(amap),
            ],
            no_ious=True,
            meta={
                "process_name": process.name,
                "blueprint": process.blueprint,
                "map_entries": process.map_entries,
                "real_runs": len(real_runs),
            },
        )

        resident = space.resident_page_indices()
        pages = {
            index: space.page_table[index].page
            for index in space.real_page_indices()
        }
        sections = [RegionSection(pages, label="rimas")]
        sections.extend(self._owed_sections(space))
        rimas = Message(
            dest=None,
            op="migrate.rimas",
            sections=sections,
            meta={
                "process_name": process.name,
                "resident_indices": resident,
                # Reference recency per page: what a Denning working-set
                # estimator needs (extension of the paper's §4.2.2).
                "last_touch": {
                    index: space.page_table[index].last_touch
                    for index in space.real_page_indices()
                },
                "excised_at": self.engine.now,
            },
        )

        # The process ceases to exist at this host (§3.1).
        process.status = ProcessStatus.EXCISED
        process.host = None
        del self.processes[process.name]
        self.host.physical.release_space(space.space_id)
        self.host.disk.drop_space(space.space_id)
        self.host.unregister_space(space)
        return core, rimas

    @staticmethod
    def _owed_sections(space):
        """IOU sections for pages the space itself still held imaginary
        (e.g. a process being migrated a second time)."""
        owed_by_handle = {}
        for run_start, run_end, value in space.regions.runs():
            if not isinstance(value, ImaginaryMapping):
                continue
            first = run_start // PAGE_SIZE
            last = (run_end - 1) // PAGE_SIZE
            for index in range(first, last + 1):
                if space.entry(index) is None:
                    owed_by_handle.setdefault(value.handle, []).append(index)
        return [
            IOUSection(handle, indices, label="inherited-iou")
            for handle, indices in owed_by_handle.items()
        ]

    # -- InsertProcess (paper §3.1) ---------------------------------------------
    def insert_process(self, core, rimas):
        """Generator → the reincarnated :class:`AccentProcess`.

        The two context messages are self-contained; no preprocessing is
        required.  The AMap guides address-space reconstruction, with
        the RIMAS data as ammunition.
        """
        amap_section = core.first_section(AMapSection)
        rights_section = core.first_section(RightsSection)
        if amap_section is None or rights_section is None:
            raise KernelError("malformed Core message")
        meta = core.meta
        name = meta["process_name"]

        yield self.engine.timeout(
            self.calibration.insert_s(meta["real_runs"], meta["map_entries"])
        )

        shipped = {}
        for section in rimas.sections_of(RegionSection):
            shipped.update(section.pages)
        owed = {}
        for section in rimas.sections_of(IOUSection):
            for index in section.page_indices:
                owed[index] = section.handle

        space = AddressSpace(name=name)
        # Register before rebuilding: bulk installation may evict pages
        # of this very space, and the eviction path resolves victims
        # through the host's space registry.
        self.host.register_space(space)
        self._rebuild_space(space, amap_section.amap, shipped, owed)

        core_payload = core.first_section(InlineSection).payload
        process = AccentProcess(
            name=name,
            space=space,
            port_rights=rights_section.rights,
            map_entries=meta["map_entries"],
            microstate=core_payload[:256],
            kernel_stack=core_payload[256:768],
            pcb=core_payload[768:],
            blueprint=meta.get("blueprint"),
        )
        self.register(process)
        return process

    def _rebuild_space(self, space, amap, shipped, owed):
        """Reconstruct regions and pages per the AMap."""
        for run in amap.runs():
            if run.accessibility is REAL_ZERO_MEM:
                space.validate(run.start, run.end - run.start)
            elif run.accessibility is REAL_MEM:
                self._rebuild_real_run(space, run, shipped, owed)
            else:  # IMAG_MEM: memory the source itself held imaginary
                self._rebuild_owed_run(space, run, owed)

    def _rebuild_real_run(self, space, run, shipped, owed):
        first = run.start // PAGE_SIZE
        last = (run.end - 1) // PAGE_SIZE
        # Split the run into maximal shipped / owed subruns.
        subrun = []
        mode = None
        for index in range(first, last + 1):
            if index in shipped:
                page_mode = "shipped"
            elif index in owed:
                page_mode = ("owed", owed[index])
            else:
                raise KernelError(
                    f"RIMAS lost page {index}: neither shipped nor owed"
                )
            if page_mode != mode and subrun:
                self._apply_subrun(space, subrun, mode, shipped)
                subrun = []
            mode = page_mode
            subrun.append(index)
        if subrun:
            self._apply_subrun(space, subrun, mode, shipped)

    def _apply_subrun(self, space, indices, mode, shipped):
        start = indices[0] * PAGE_SIZE
        size = len(indices) * PAGE_SIZE
        if mode == "shipped":
            space.validate(start, size)
            for index in indices:
                self._install_bulk(space, index, shipped[index])
        else:
            _, handle = mode
            space.map_imaginary(start, size, handle)

    def _rebuild_owed_run(self, space, run, owed):
        first = run.start // PAGE_SIZE
        last = (run.end - 1) // PAGE_SIZE
        handle = None
        run_pages = []
        for index in range(first, last + 1):
            page_handle = owed.get(index)
            if page_handle is None:
                raise KernelError(f"imaginary page {index} has no IOU")
            if page_handle is not handle and run_pages:
                self._map_owed(space, run_pages, handle)
                run_pages = []
            handle = page_handle
            run_pages.append(index)
        if run_pages:
            self._map_owed(space, run_pages, handle)

    @staticmethod
    def _map_owed(space, indices, handle):
        space.map_imaginary(
            indices[0] * PAGE_SIZE, len(indices) * PAGE_SIZE, handle
        )

    def _install_bulk(self, space, index, page):
        """Frame-install for bulk insertion (no per-page fault cost).

        With the default generous frame pool insertion never evicts; if
        a tiny pool is configured the victim is moved to disk instantly
        (insertion cost is already charged as a lump by insert_s).
        """
        victim = self.host.physical.allocate((space.space_id, index))
        if victim is not None:
            victim_space_id, victim_index = victim
            victim_space = self.host.space_by_id(victim_space_id)
            entry = victim_space.entry(victim_index)
            self.host.disk.store_instant(
                victim_space_id, victim_index, entry.page
            )
            victim_space.set_residency(victim_index, Residency.ON_DISK)
        space.install_page(index, page, Residency.RESIDENT)

    # -- termination -----------------------------------------------------------
    def terminate(self, name):
        """Generator: end a process, notifying imaginary backers.

        Sends an Imaginary Segment Death message to every backing port
        the space still references (paper §2.2).
        """
        process = self.lookup(name)
        space = process.space
        handles = set()
        for _, _, value in space.regions.runs():
            if isinstance(value, ImaginaryMapping):
                handles.add(value.handle)
        for handle in sorted(handles, key=lambda h: h.segment_id):
            self.post(
                Message(
                    dest=handle.backing_port,
                    op=OP_IMAG_DEATH,
                    sections=[InlineSection(bytes(8))],
                    meta={"segment_id": handle.segment_id},
                )
            )
        process.status = ProcessStatus.TERMINATED
        process.host = None
        del self.processes[name]
        self.host.physical.release_space(space.space_id)
        self.host.disk.drop_space(space.space_id)
        self.host.unregister_space(space)
        yield self.engine.timeout(self.calibration.ipc_local_s)

    def kill(self, process):
        """Destroy a process whose residual dependencies broke.

        Unlike :meth:`terminate`, no Imaginary Segment Death messages
        go out — the interesting backer is dead (that is why we are
        here), and the survivors' segments are reclaimed when the
        world ends.  Purely local, instantaneous teardown.
        """
        process.status = ProcessStatus.KILLED
        process.host = None
        self.processes.pop(process.name, None)
        space = process.space
        self.host.physical.release_space(space.space_id)
        self.host.disk.drop_space(space.space_id)
        self.host.unregister_space(space)

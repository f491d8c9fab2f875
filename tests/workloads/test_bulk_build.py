"""Differential test: bulk address-space ingest vs the per-page paths.

The builder (``build_process``), insertion (``Kernel.install_run``,
which the Fitzgerald stages share) and ``AddressSpace.amap()`` work on
whole runs of pages, and so does excision's ``Kernel._owed_sections``.
They must leave exactly the state the per-page forms they replaced
left.  This file keeps those forms as oracles — :func:`per_page_build`
(the builder's loop), :func:`per_page_rebuild` (insertion, one frame
claim and one install per page), :func:`per_page_amap` (one ``add_run``
per page) and :func:`per_page_owed_sections` (one ``space.has_page``
probe per imaginary page) — and compares, through the space's page
accessors:

* every page in index order: index, residency, ``last_touch``,
  ``prefetched`` and page bytes, plus the sorted index list and the
  imaginary-byte counter (the page columns keep no insertion order);
* ``physical.resident_keys()`` (the host's LRU order);
* each space's disk images, in dict order, and that each image holds
  the very bytes object of the page it images;
* the workload stream's ``getstate()`` after the build;
* the AMap runs, and that ``amap()`` equals :func:`per_page_amap` on
  every space compared;
* each excision's IOU sections: handles, page indices, labels, order.

Every catalogued workload is built at seeds 1987 and 31.  Insertion
rebuilds each excised workload into a 4-frame pool, so most victims
are pages of the space being rebuilt; it ships every page, or only the
resident set with the rest owed, or moves the process a second hop so
the AMap carries imaginary runs (some owed pages faulted in first, so
excision walks imaginary regions that hold pages).
"""

import bisect

import pytest

from repro.accent.constants import PAGE_SIZE
from repro.accent.ipc.message import IOUSection, Message, RegionSection
from repro.accent.ipc.port import PortRight, RECEIVE, SEND
from repro.accent.kernel import Kernel, KernelError
from repro.accent.process import AccentProcess
from repro.accent.vm.accessibility import IMAG_MEM, REAL_MEM, REAL_ZERO_MEM
from repro.accent.vm.address_space import (
    AddressSpace, Residency, VALIDATED,
)
from repro.accent.vm.amap import AMap
from repro.accent.vm.page import Page
from repro.testbed import Testbed
from repro.workloads.builder import BuiltWorkload, build_process
from repro.workloads.content import page_payload
from repro.workloads.layout import make_layout
from repro.workloads.registry import WORKLOADS
from repro.workloads.trace import build_trace

SEEDS = (1987, 31)


# ---------------------------------------------------------------- oracles --
def per_page_build(host, spec, streams, name=None):
    """The builder as one install, frame claim or disk store per page."""
    rng = streams.stream(f"workload:{spec.name}")
    plan = make_layout(spec, rng)
    trace = build_trace(spec, plan, rng)

    space = AddressSpace(name=name or spec.name)
    space.validate(plan.region_start, plan.region_size)
    host.register_space(space)
    space_id = space.space_id
    now = host.engine.now
    window = host.calibration.ws_window_s
    for index in plan.real_indices:
        page = Page(page_payload(spec.name, index))
        if index in plan.resident:
            space.install_page(index, page, Residency.RESIDENT)
            if host.physical.allocate(space_id, index) is not None:
                raise RuntimeError(
                    f"{spec.name}: frame pool too small for its resident set"
                )
            if index in plan.recent:
                ago = rng.random() * 0.2 * window
            else:
                ago = window * (1.5 + 4.0 * rng.random())
        else:
            space.install_page(index, page, Residency.ON_DISK)
            host.disk.store_instant(space_id, index, page)
            ago = window * (10.0 + 40.0 * rng.random())
        space.note_reference(index, now - ago)

    self_port = host.create_port(name=f"{spec.name}-self")
    service_port = host.create_port(name=f"{spec.name}-service")
    process = AccentProcess(
        name=name or spec.name,
        space=space,
        port_rights=[
            PortRight(self_port, RECEIVE), PortRight(service_port, SEND),
        ],
        map_entries=spec.map_entries,
        blueprint=spec.name,
    )
    host.kernel.register(process)
    return BuiltWorkload(spec=spec, process=process, plan=plan, trace=trace)


def per_page_install(kernel, space, index, page):
    """Insertion's install of one page: claim its frame, moving any
    victim to disk, then enter it."""
    victim = kernel.host.physical.allocate(space.space_id, index)
    if victim is not None:
        victim_space_id, victim_index = victim
        victim_space = kernel.host.space_by_id(victim_space_id)
        kernel.host.disk.store_instant(
            victim_space_id, victim_index,
            victim_space.disk_image(victim_index),
        )
        victim_space.set_residency(victim_index, Residency.ON_DISK)
    space.install_page(index, page, Residency.RESIDENT)


def per_page_install_run(kernel, space, indices, pages):
    for index, page in zip(indices, pages):
        per_page_install(kernel, space, index, page)


def per_page_rebuild(kernel, space, amap, shipped, owed):
    """Insertion's rebuild, splitting runs and installing page by page."""

    def apply_subrun(indices, mode):
        start = indices[0] * PAGE_SIZE
        size = len(indices) * PAGE_SIZE
        if mode == "shipped":
            space.validate(start, size)
            for index in indices:
                per_page_install(kernel, space, index, shipped[index])
        else:
            space.map_imaginary(start, size, mode[1])

    for run in amap.runs():
        if run.accessibility is REAL_ZERO_MEM:
            space.validate(run.start, run.end - run.start)
            continue
        subrun, mode = [], None
        for index in range(run.start // PAGE_SIZE,
                           (run.end - 1) // PAGE_SIZE + 1):
            if run.accessibility is REAL_MEM and index in shipped:
                page_mode = "shipped"
            elif index in owed:
                page_mode = ("owed", owed[index])
            else:
                raise KernelError(f"page {index} neither shipped nor owed")
            if page_mode != mode and subrun:
                apply_subrun(subrun, mode)
                subrun = []
            mode = page_mode
            subrun.append(index)
        if subrun:
            apply_subrun(subrun, mode)


def per_page_owed_sections(space):
    """Excision's IOU sections, one ``space.has_page`` probe per page of
    each imaginary region."""
    owed_by_handle = {}
    for run_start, run_end, value in space.regions.runs():
        if value is VALIDATED:
            continue
        first = run_start // PAGE_SIZE
        last = (run_end - 1) // PAGE_SIZE
        for index in range(first, last + 1):
            if not space.has_page(index):
                owed_by_handle.setdefault(value, []).append(index)
    return [
        IOUSection(handle, indices, label="inherited-iou")
        for handle, indices in owed_by_handle.items()
    ]


def per_page_amap(space):
    """The AMap with one ``REAL_MEM`` run added per existing page."""
    amap = AMap()
    pages = space.real_page_indices()
    for run_start, run_end, value in space.regions.runs():
        base_class = REAL_ZERO_MEM if value is VALIDATED else IMAG_MEM
        first_page = run_start // PAGE_SIZE
        last_page = (run_end - 1) // PAGE_SIZE
        lo = bisect.bisect_left(pages, first_page)
        hi = bisect.bisect_right(pages, last_page)
        cursor = run_start
        for index in pages[lo:hi]:
            page_start = index * PAGE_SIZE
            page_end = min(page_start + PAGE_SIZE, run_end)
            page_start = max(page_start, run_start)
            if page_start > cursor:
                amap.add_run(cursor, page_start, base_class)
            amap.add_run(page_start, page_end, REAL_MEM)
            cursor = page_end
        if cursor < run_end:
            amap.add_run(cursor, run_end, base_class)
    return amap


# --------------------------------------------------------------- snapshot --
def snapshot(host, spaces):
    """Everything the bulk and per-page paths must agree on, with space
    ids (a process-wide counter) replaced by space names."""
    names = {space.space_id: space.name for space in spaces}
    state = {
        "frames": [
            (names[space_id], index)
            for space_id, index in host.physical.resident_keys()
        ],
    }
    for space in spaces:
        images = host.disk._store.get(space.space_id, {})
        state[space.name] = {
            "table": [
                (index, space.residency(index),
                 repr(space.last_touch(index)), space.prefetched(index),
                 space.page_bytes(index))
                for index in space.real_page_indices()
            ],
            "sorted": space.real_page_indices(),
            "imaginary_bytes": space.imaginary_bytes,
            "images": [
                (index, data, data is space.page_bytes(index))
                for index, data in (
                    (index, image if type(image) is bytes else image.data)
                    for index, image in images.items()
                )
            ],
            "amap": list(space.amap().runs()),
        }
        assert state[space.name]["amap"] == list(per_page_amap(space).runs())
    return state


# ---------------------------------------------------------------- builder --
def built(name, seed, build):
    world = Testbed(seed=seed).world()
    spec = WORKLOADS[name]
    result = build(world.source, spec, world.streams)
    state = snapshot(world.source, [result.process.space])
    state["stream"] = world.streams.stream(f"workload:{name}").getstate()
    return state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_builder_matches_per_page_build(name, seed):
    assert built(name, seed, build_process) == built(
        name, seed, per_page_build
    )


# -------------------------------------------------------------- insertion --
def run(world, generator):
    return world.engine.run(until=world.engine.process(generator))


def owing_non_resident(rimas):
    """The RIMAS message with only the resident set shipped and the
    rest owed on one IOU, as under the RS strategy: shipped subruns
    alternate with owed ones."""
    pages = rimas.first_section(RegionSection).pages
    resident = set(rimas.meta["resident_indices"])
    return Message(
        None, rimas.op,
        sections=[
            RegionSection(
                {i: page for i, page in pages.items() if i in resident}
            ),
            IOUSection("iou", [i for i in pages if i not in resident]),
        ],
        meta=rimas.meta,
    )


def small_pool(host):
    """Shrink ``host``'s pool to 4 frames and fill it with another space
    (which evicts two of its own pages), so the first victims of the
    next insertion lie outside the space being rebuilt."""
    host.physical.frame_count = 4
    other = AddressSpace(name=f"other-{host.name}")
    other.validate(0, 8 * PAGE_SIZE)
    host.register_space(other)
    host.kernel.install_run(
        other, list(range(6)), [Page(bytes([i])) for i in range(6)]
    )
    return other


def inserted(name, shipment):
    """Excise ``name`` from alpha and insert it into a 4-frame beta.

    ``shipment`` "all" ships every page; "resident" ships the resident
    set and owes the rest; "second-hop" then faults some owed pages in
    at beta and moves the process on back into a 4-frame
    alpha, so insertion meets the imaginary runs of the AMap beta
    excises, with real pages among them.
    """
    world = Testbed(seed=1987).world()
    build_process(world.source, WORKLOADS[name], world.streams)
    core, rimas = run(world, world.source.kernel.excise_process(name))
    if shipment != "all":
        rimas = owing_non_resident(rimas)
    host = world.dest
    other = small_pool(host)
    process = run(world, host.kernel.insert_process(core, rimas))
    if shipment == "second-hop":
        # Fault the first owed run and every third owed page in, as
        # imaginary faults would, so the imaginary regions the next
        # excision walks hold pages (one of them nothing but pages).
        owed = rimas.first_section(IOUSection)
        (first, last), *_ = owed.runs()
        faulted = set(range(first, last + 1)).union(owed.page_indices[::3])
        for index in sorted(faulted):
            per_page_install(
                host.kernel, process.space, index, Page(bytes([index % 251]))
            )
        core, rimas = run(world, host.kernel.excise_process(name))
        host = world.source
        other = small_pool(host)
        process = run(world, host.kernel.insert_process(core, rimas))
    return snapshot(host, [other, process.space])


@pytest.mark.parametrize("shipment", ["all", "resident", "second-hop"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_insertion_matches_per_page_rebuild(name, shipment, monkeypatch):
    # Each excision's IOU sections, beside the per-page oracle's.
    owed = []
    owed_sections = Kernel._owed_sections

    def checked(space):
        sections = owed_sections(space)
        owed.append([
            [(section.handle, section.page_indices, section.label)
             for section in found]
            for found in (sections, per_page_owed_sections(space))
        ])
        return sections

    monkeypatch.setattr(Kernel, "_owed_sections", staticmethod(checked))
    bulk = inserted(name, shipment)
    # The second hop re-excises a space that owes pages.
    assert any(ours for ours, _ in owed) == (shipment == "second-hop")
    for ours, oracle in owed:
        assert ours == oracle
    monkeypatch.setattr(Kernel, "_rebuild_space", per_page_rebuild)
    monkeypatch.setattr(Kernel, "install_run", per_page_install_run)
    oracle = inserted(name, shipment)
    assert bulk == oracle
    # The small pool really did evict pages of the rebuilt space, and
    # owed pages were mapped imaginary (on a second hop, from the
    # imaginary runs of the AMap the first one left).
    assert bulk[name]["images"]
    assert len(bulk["frames"]) == 4
    owes = any(run.accessibility is IMAG_MEM for run in bulk[name]["amap"])
    assert owes == (shipment != "all")

"""Sparse process address spaces.

An address space is a region table (an :class:`IntervalMap` over byte
addresses) plus a page table holding only the pages that actually exist.
A validated Lisp space spans four gigabytes but costs a handful of region
runs and a couple of thousand page entries — exactly the property that
makes Accent's lazy zero-fill affordable (paper §2.3, RealZeroMem).

Regions come in two kinds:

* *validated* — conceptually zero-filled; first touch raises a FillZero
  fault and materialises a page without consulting the disk.
* *imaginary* — owed through IPC to a backing port; first touch raises an
  imaginary fault.  The handle identifies the backing object.

Pages that exist are *real*; they are either resident in physical memory
or paged out to the local disk.  The distinction is tracked here, but the
frame pool itself lives in :class:`~repro.accent.vm.physical.PhysicalMemory`.
"""

import bisect
import enum
from itertools import compress, count, islice, repeat
from operator import attrgetter, ge, ne, sub

from repro.accent.constants import PAGE_SIZE, SPACE_LIMIT, pages_spanned
from repro.accent.vm.accessibility import (
    BAD_MEM,
    IMAG_MEM,
    REAL_MEM,
    REAL_ZERO_MEM,
)
from repro.accent.vm.amap import AMap
from repro.accent.vm.intervals import IntervalMap
from repro.accent.vm.page import Page

_space_ids = count(1)
_residency_of = attrgetter("residency")

#: Region-table value for plain validated (zero-fill) memory.
VALIDATED = "validated"


class Residency(enum.Enum):
    """Where a real page's current contents live."""

    RESIDENT = "resident"
    ON_DISK = "on-disk"


class ImaginaryMapping:
    """Region-table value marking memory owed through a backing port.

    ``handle`` is opaque to the VM layer; the copy-on-reference facility
    stores whatever it needs to route page requests (typically a port
    reference plus an offset translation).
    """

    __slots__ = ("handle", "base_offset")

    def __init__(self, handle, base_offset=0):
        self.handle = handle
        self.base_offset = base_offset

    def __repr__(self):
        return f"<ImaginaryMapping handle={self.handle!r}>"


class PageEntry:
    """Page-table slot: the page object plus its residency."""

    __slots__ = ("page", "residency", "prefetched", "last_touch")

    def __init__(self, page, residency, last_touch=None):
        self.page = page
        self.residency = residency
        #: True while the page arrived by prefetch and has not yet been
        #: referenced (prefetch hit-ratio accounting, §4.3.3).
        self.prefetched = False
        #: Simulated time of the most recent reference (None if never
        #: referenced) — the input to Denning working-set estimation.
        self.last_touch = last_touch

    def __repr__(self):
        return f"<PageEntry {self.residency.value} {self.page!r}>"


class AddressSpaceError(Exception):
    """Illegal address-space operation (unaligned, unvalidated, ...)."""


class AddressSpace:
    """One process's virtual address space."""

    def __init__(self, name=None):
        self.space_id = next(_space_ids)
        self.name = name or f"space-{self.space_id}"
        #: Byte-granular region table; values are VALIDATED or
        #: :class:`ImaginaryMapping` instances.
        self.regions = IntervalMap()
        #: page index -> :class:`PageEntry`; only existing (real) pages.
        self.page_table = {}
        self._sorted_pages = []  # kept sorted for run iteration
        self._sorted_dirty = False
        #: Incremental :attr:`imaginary_bytes` — every structural
        #: mutation adjusts it, so the telemetry sampler reads it in
        #: O(1) instead of rescanning the run table each tick.
        self._imag_bytes = 0

    def __repr__(self):
        return (
            f"<AddressSpace {self.name} total={self.total_bytes} "
            f"real={self.real_bytes}>"
        )

    # -- region management ---------------------------------------------------
    def validate(self, start, size):
        """Allocate ``[start, start+size)`` as zero-filled memory."""
        self._check_range(start, size)
        for run_start, run_end, _ in self.regions.overlapping(start, start + size):
            raise AddressSpaceError(
                f"validate overlaps existing region [{run_start}, {run_end})"
            )
        self.regions.add(start, start + size, VALIDATED)

    def map_imaginary(self, start, size, handle, base_offset=0):
        """Map ``[start, start+size)`` to an imaginary object."""
        self._check_range(start, size)
        for run_start, run_end, _ in self.regions.overlapping(start, start + size):
            raise AddressSpaceError(
                f"imaginary map overlaps region [{run_start}, {run_end})"
            )
        self.regions.add(
            start, start + size, ImaginaryMapping(handle, base_offset)
        )
        # A fresh mapping holds no real pages yet: all of it is owed.
        self._imag_bytes += size

    def invalidate(self, start, size):
        """Remove any region coverage and pages inside the range."""
        self._check_range(start, size)
        end = start + size
        for run_start, run_end, value in self.regions.overlapping(start, end):
            if value is VALIDATED:
                continue
            lo, hi = max(run_start, start), min(run_end, end)
            owed = hi - lo
            for index in pages_spanned(lo, hi - lo):
                if index in self.page_table:
                    owed -= PAGE_SIZE
            self._imag_bytes -= owed
        self.regions.remove(start, start + size)
        for index in list(pages_spanned(start, size)):
            if index in self.page_table:
                self._drop_page(index)

    def _check_range(self, start, size):
        if start % PAGE_SIZE or size % PAGE_SIZE:
            raise AddressSpaceError(
                f"range ({start}, {size}) is not page-aligned"
            )
        if size <= 0:
            raise AddressSpaceError(f"size must be positive, got {size}")
        if start < 0 or start + size > SPACE_LIMIT:
            raise AddressSpaceError(
                f"range ({start}, {size}) outside the 4 GB space"
            )

    # -- accessibility ---------------------------------------------------------
    def accessibility(self, address):
        """The AMap class of the byte at ``address`` (paper §2.3)."""
        if (address // PAGE_SIZE) in self.page_table:
            return REAL_MEM
        region = self.regions.get(address)
        if region is None:
            return BAD_MEM
        if region is VALIDATED:
            return REAL_ZERO_MEM
        return IMAG_MEM

    def region_at(self, address):
        """The region value covering ``address`` (or ``None``)."""
        return self.regions.get(address)

    def amap(self):
        """Construct the Accessibility Map for the whole space.

        One ``REAL_MEM`` run per maximal run of consecutive pages
        inside each region, so the cost is regions plus page runs.
        """
        amap = AMap()
        add_run = amap.add_run
        firsts, lasts = self._page_runs()
        for run_start, run_end, value in self.regions.runs():
            base_class = REAL_ZERO_MEM if value is VALIDATED else IMAG_MEM
            first_page = run_start // PAGE_SIZE
            last_page = (run_end - 1) // PAGE_SIZE
            # The page runs inside the region; a run straddling two
            # regions is clipped to each.
            lo = bisect.bisect_left(lasts, first_page)
            hi = bisect.bisect_right(firsts, last_page)
            cursor = run_start
            for first, last in zip(firsts[lo:hi], lasts[lo:hi]):
                real_start = first * PAGE_SIZE
                if real_start > cursor:
                    add_run(cursor, real_start, base_class)
                elif real_start < cursor:
                    real_start = cursor
                cursor = (last + 1) * PAGE_SIZE
                if cursor > run_end:
                    cursor = run_end
                add_run(real_start, cursor, REAL_MEM)
            if cursor < run_end:
                add_run(cursor, run_end, base_class)
        return amap

    # -- page management --------------------------------------------------------
    def install_page(self, index, page, residency=Residency.RESIDENT):
        """Enter a real page at page ``index`` (fault completion path)."""
        region = self.regions.get(index * PAGE_SIZE)
        if region is None:
            raise AddressSpaceError(
                f"page {index} lies outside every region of {self.name}"
            )
        if index in self.page_table:
            raise AddressSpaceError(f"page {index} already present")
        if region is not VALIDATED:
            self._imag_bytes -= PAGE_SIZE  # this page is no longer owed
        self.page_table[index] = PageEntry(page, residency)
        # Keep the sorted index list incrementally when appending in
        # order; otherwise mark it for a lazy rebuild.
        if not self._sorted_dirty:
            if self._sorted_pages and index < self._sorted_pages[-1]:
                self._sorted_dirty = True
            else:
                self._sorted_pages.append(index)

    def install_run(self, indices, entries):
        """Enter the :class:`PageEntry` ``entries`` at page ``indices``
        in one call (builder and insertion path).

        ``indices`` must ascend strictly, lie inside one region and
        hold no page yet.  The call costs one region lookup, one
        duplicate check and one extension of the sorted index list; it
        raises before changing anything.
        """
        if len(entries) != len(indices):
            raise ValueError(
                f"{len(indices)} indices but {len(entries)} entries"
            )
        if not indices:
            return
        if any(map(ge, indices, islice(indices, 1, None))):
            raise AddressSpaceError(
                f"page run for {self.name} does not ascend strictly"
            )
        first, last = indices[0], indices[-1]
        start, end = first * PAGE_SIZE, (last + 1) * PAGE_SIZE
        regions = list(self.regions.overlapping(start, end))
        if len(regions) != 1 or regions[0][:2] != (start, end):
            raise AddressSpaceError(
                f"pages {first}..{last} do not lie inside one region "
                f"of {self.name}"
            )
        table = self.page_table
        if not table.keys().isdisjoint(indices):
            present = next(index for index in indices if index in table)
            raise AddressSpaceError(f"page {present} already present")
        if regions[0][2] is not VALIDATED:
            self._imag_bytes -= len(indices) * PAGE_SIZE
        table.update(zip(indices, entries))
        if not self._sorted_dirty:
            if self._sorted_pages and first < self._sorted_pages[-1]:
                self._sorted_dirty = True
            else:
                self._sorted_pages.extend(indices)

    def _drop_page(self, index):
        entry = self.page_table.pop(index)
        entry.page.release()
        self._sorted_dirty = True
        region = self.regions.get(index * PAGE_SIZE)
        if region is not None and region is not VALIDATED:
            self._imag_bytes += PAGE_SIZE  # owed again through the mapping
        return entry

    def _sorted_page_list(self):
        if self._sorted_dirty:
            self._sorted_pages = sorted(self.page_table)
            self._sorted_dirty = False
        return self._sorted_pages

    def entry(self, index):
        """The :class:`PageEntry` at page ``index`` (or ``None``)."""
        return self.page_table.get(index)

    def set_residency(self, index, residency):
        """Mark page ``index`` resident or on-disk."""
        self.page_table[index].residency = residency

    # -- content access (builder/verification path; no simulated time) ---------
    def poke(self, address, data):
        """Write bytes, materialising zero pages as needed.

        This is the *builder* path used to construct pre-migration state
        and by fault handlers to install fetched data; the simulated cost
        of getting here is charged by the kernel/pager, not by poke.
        """
        # Fast path: a write to an existing page, entirely inside it,
        # skips the accessibility classification (a real page is
        # REAL_MEM by definition).
        index, in_page = divmod(address, PAGE_SIZE)
        if in_page + len(data) <= PAGE_SIZE:
            entry = self.page_table.get(index)
            if entry is not None:
                entry.page = entry.page.write(in_page, data)
                return
        offset = 0
        while offset < len(data):
            index = (address + offset) // PAGE_SIZE
            in_page = (address + offset) % PAGE_SIZE
            chunk = min(PAGE_SIZE - in_page, len(data) - offset)
            self._poke_page(index, in_page, data[offset:offset + chunk])
            offset += chunk

    def _poke_page(self, index, in_page, chunk):
        accessibility = self.accessibility(index * PAGE_SIZE)
        if accessibility is BAD_MEM:
            raise AddressSpaceError(f"write to unvalidated page {index}")
        if accessibility is IMAG_MEM:
            raise AddressSpaceError(
                f"write to imaginary page {index}: fetch it first"
            )
        entry = self.page_table.get(index)
        if entry is None:
            self.install_page(index, Page.zero())
            entry = self.page_table[index]
        entry.page = entry.page.write(in_page, chunk)

    def peek(self, address, size):
        """Read bytes; zero regions read as zeros.

        Reading unfetched imaginary memory raises — callers must go
        through the fault path so the copy-on-reference machinery runs.
        """
        # Fast path: a read from an existing page, entirely inside it
        # (the per-step content verification reads a 32-byte head).
        index, in_page = divmod(address, PAGE_SIZE)
        if in_page + size <= PAGE_SIZE:
            entry = self.page_table.get(index)
            if entry is not None:
                return entry.page.data[in_page:in_page + size]
        out = bytearray()
        remaining = size
        cursor = address
        while remaining > 0:
            index = cursor // PAGE_SIZE
            in_page = cursor % PAGE_SIZE
            chunk = min(PAGE_SIZE - in_page, remaining)
            entry = self.page_table.get(index)
            if entry is not None:
                out += entry.page.data[in_page:in_page + chunk]
            else:
                accessibility = self.accessibility(cursor)
                if accessibility is REAL_ZERO_MEM:
                    out += bytes(chunk)
                elif accessibility is IMAG_MEM:
                    raise AddressSpaceError(
                        f"read of unfetched imaginary page {index}"
                    )
                else:
                    raise AddressSpaceError(f"read of unvalidated page {index}")
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    # -- statistics (Table 4-1 / 4-2 inputs) ------------------------------------
    @property
    def total_bytes(self):
        """Total validated + imaginary memory (paper's *Total*)."""
        return self.regions.span()

    @property
    def real_bytes(self):
        """Existing non-zero data (paper's *Real*)."""
        return len(self.page_table) * PAGE_SIZE

    @property
    def real_zero_bytes(self):
        """Allocated but untouched zero-fill memory (paper's *RealZ*)."""
        zero = 0
        pages = self._sorted_page_list()
        for run_start, run_end, value in self.regions.runs():
            if value is not VALIDATED:
                continue
            span = run_end - run_start
            first_page = run_start // PAGE_SIZE
            last_page = (run_end - 1) // PAGE_SIZE
            lo = bisect.bisect_left(pages, first_page)
            hi = bisect.bisect_right(pages, last_page)
            for index in pages[lo:hi]:
                page_start = max(index * PAGE_SIZE, run_start)
                page_end = min(index * PAGE_SIZE + PAGE_SIZE, run_end)
                span -= page_end - page_start
            zero += span
        return zero

    @property
    def imaginary_bytes(self):
        """Memory still owed through imaginary mappings (O(1))."""
        return self._imag_bytes

    def _scan_imaginary_bytes(self):
        """Recompute :attr:`imaginary_bytes` from the run table.

        The ground truth the incremental counter must match — tests
        cross-check the two after arbitrary mutation sequences.
        """
        owed = 0
        pages = self._sorted_page_list()
        for run_start, run_end, value in self.regions.runs():
            if value is VALIDATED:
                continue
            span = run_end - run_start
            first_page = run_start // PAGE_SIZE
            last_page = (run_end - 1) // PAGE_SIZE
            lo = bisect.bisect_left(pages, first_page)
            hi = bisect.bisect_right(pages, last_page)
            span -= (hi - lo) * PAGE_SIZE
            owed += span
        return owed

    def real_page_indices(self):
        """Sorted indices of existing pages."""
        return list(self._sorted_page_list())

    def resident_page_indices(self):
        """Sorted indices of pages currently in physical memory."""
        return [
            index
            for index in self._sorted_page_list()
            if self.page_table[index].residency is Residency.RESIDENT
        ]

    def resident_bytes(self):
        """Size of the resident set (Table 4-2's *RS Size*)."""
        residencies = map(_residency_of, self.page_table.values())
        return list(residencies).count(Residency.RESIDENT) * PAGE_SIZE

    def real_runs(self):
        """Contiguous runs of existing pages as (first, last) inclusive."""
        return list(zip(*self._page_runs()))

    def _page_runs(self):
        """``(firsts, lasts)``: the first and last index of each maximal
        run of consecutive existing pages, in address order."""
        pages = self._sorted_page_list()
        if not pages:
            return [], []
        # Positions where an index is not its predecessor plus one;
        # map and compress scan the list without a bytecode loop.
        steps = map(sub, islice(pages, 1, None), pages)
        breaks = list(compress(count(1), map(ne, steps, repeat(1))))
        firsts = [pages[0]]
        firsts += [pages[position] for position in breaks]
        lasts = [pages[position - 1] for position in breaks]
        lasts.append(pages[-1])
        return firsts, lasts

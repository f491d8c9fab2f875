"""Sparse process address spaces.

An address space is a region table (an :class:`IntervalMap` over byte
addresses) plus page columns holding only the pages that actually
exist.  A validated Lisp space spans four gigabytes but costs a handful
of region runs and a few hundred column chunks — exactly the property
that makes Accent's lazy zero-fill affordable (paper §2.3, RealZeroMem).

Regions come in two kinds:

* *validated* — conceptually zero-filled; first touch raises a FillZero
  fault and materialises a page without consulting the disk.
* *imaginary* — owed through IPC to a backing port; first touch raises an
  imaginary fault.  The handle identifies the backing object.

Pages that exist are *real*; they are either resident in physical memory
or paged out to the local disk.  The distinction is tracked here, but the
frame pool itself lives in :class:`~repro.accent.vm.physical.PhysicalMemory`.

Page state is stored by column, not by object.  Page indices fall into
chunks of :data:`CHUNK_PAGES` consecutive indices (``index >>
CHUNK_SHIFT``); the first page installed in a chunk gives the chunk
:data:`CHUNK_PAGES` slots at the end of each column, and
:attr:`AddressSpace.chunks` maps the chunk to its first slot:

* ``residency_codes`` — a ``bytearray``, one code per slot:
  :data:`NO_PAGE`, :data:`RESIDENT_CODE` or :data:`ON_DISK_CODE`;
* ``touch_times`` — an ``array('d')`` of each page's most recent
  reference (NaN: never referenced);
* ``prefetch_bits`` — a bit set, one bit per slot, set while a page
  that arrived by prefetch waits for its first reference.

A :class:`~repro.accent.vm.page.Page` is kept only where one is needed:
where a page's bytes differ from the space's ``image`` (the workload's
memoised payload), or where the page is shared copy-on-write.  A page
the builder entered from the image is only its column slots.
"""

import bisect
import enum
from array import array
from itertools import compress, count, filterfalse, islice, repeat
from math import isnan, nan
from operator import ge, ne, sub

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

#: Region-table value for plain validated (zero-fill) memory.
VALIDATED = "validated"

#: Pages per column chunk, as a shift: a chunk covers 32 consecutive
#: page indices.  The catalogued layouts place runs of 2-35 real pages
#: a few pages to 67k pages apart; 32 keeps a chunk's empty slots to
#: about one real page's worth for the sparse Lisp regions while a
#: dense Pasmac region fills its chunks.
CHUNK_SHIFT = 5
CHUNK_PAGES = 1 << CHUNK_SHIFT
CHUNK_MASK = CHUNK_PAGES - 1

#: Residency codes of the ``residency_codes`` column.
NO_PAGE = 0
RESIDENT_CODE = 1
ON_DISK_CODE = 2


class Residency(enum.Enum):
    """Where a real page's current contents live."""

    RESIDENT = "resident"
    ON_DISK = "on-disk"


_RESIDENCY_OF = (None, Residency.RESIDENT, Residency.ON_DISK)
# Maps every code but RESIDENT_CODE to zero (a selector for compress).
_RESIDENT_ONLY = bytes.maketrans(bytes([ON_DISK_CODE]), bytes([NO_PAGE]))
# One empty chunk of each column.
_NO_CODES = bytes(CHUNK_PAGES)
_NEVER = array("d", [nan]) * CHUNK_PAGES
_NO_BITS = bytes(CHUNK_PAGES // 8)


def _code_of(residency):
    # An identity test: an Enum member's hash is a Python-level call.
    return RESIDENT_CODE if residency is Residency.RESIDENT else ON_DISK_CODE


class OwedTally:
    """A running total of the bytes a set of spaces owe through
    imaginary mappings.

    A kernel keeps one over its processes' spaces, so the telemetry
    sampler reads a host's owed pages in O(1).  Each attached space adds
    its own changes to the tally; the tally refers to nothing, so
    attaching a space creates no reference cycle.
    """

    __slots__ = ("bytes",)

    def __init__(self):
        self.bytes = 0

    def __repr__(self):
        return f"<OwedTally {self.bytes} B>"


class AddressSpaceError(Exception):
    """Illegal address-space operation (unaligned, unvalidated, ...)."""


class AddressSpace:
    """One process's virtual address space.

    ``image`` maps page index to the immutable bytes of each page
    entered without a :class:`Page` (``install_run`` with no pages);
    the builder passes its workload's memoised payloads.
    """

    def __init__(self, name=None, image=None):
        self.space_id = next(_space_ids)
        self.name = name or f"space-{self.space_id}"
        #: Byte-granular region table; values are VALIDATED or the
        #: handle of the imaginary segment that owes the memory.
        self.regions = IntervalMap()
        self.image = image
        #: ``index >> CHUNK_SHIFT`` -> the chunk's first column slot.
        self.chunks = {}
        self.residency_codes = bytearray()
        self.touch_times = array("d")
        self.prefetch_bits = bytearray()
        #: page index -> :class:`Page`, only where a page needs one.
        self._pages = {}
        self._real = 0
        #: The sorted page indices and their runs, kept until the next
        #: install or drop (excision reads them several times over).
        self._listing = self._runs = None
        #: Incremental :attr:`imaginary_bytes` — every structural
        #: mutation adjusts it, so the telemetry sampler reads it in
        #: O(1) instead of rescanning the run table each tick.
        self._imag_bytes = 0
        #: The :class:`OwedTally` of the kernel running this space.
        self._tally = None

    def __repr__(self):
        return (
            f"<AddressSpace {self.name} total={self.total_bytes} "
            f"real={self.real_bytes}>"
        )

    def attach_tally(self, tally):
        """Keep this space's owed bytes in ``tally`` from now on."""
        if self._tally is not None:
            self.detach_tally(self._tally)
        self._tally = tally
        tally.bytes += self._imag_bytes

    def detach_tally(self, tally):
        """Take this space's owed bytes out of ``tally``, if it keeps
        them there."""
        if self._tally is tally:
            tally.bytes -= self._imag_bytes
            self._tally = None

    def _owe(self, delta):
        self._imag_bytes += delta
        if self._tally is not None:
            self._tally.bytes += delta

    # -- region management ---------------------------------------------------
    def validate(self, start, size):
        """Allocate ``[start, start+size)`` as zero-filled memory."""
        self._check_range(start, size)
        for run_start, run_end, _ in self.regions.overlapping(start, start + size):
            raise AddressSpaceError(
                f"validate overlaps existing region [{run_start}, {run_end})"
            )
        self.regions.add(start, start + size, VALIDATED)

    def map_imaginary(self, start, size, handle):
        """Map ``[start, start+size)`` to the imaginary segment behind
        ``handle``; adjacent runs of one handle merge."""
        self._check_range(start, size)
        for run_start, run_end, _ in self.regions.overlapping(start, start + size):
            raise AddressSpaceError(
                f"imaginary map overlaps region [{run_start}, {run_end})"
            )
        self.regions.add(start, start + size, handle)
        # A fresh mapping holds no real pages yet: all of it is owed.
        self._owe(size)

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
                if self._slot(index) is not None:
                    owed -= PAGE_SIZE
            self._owe(-owed)
        self.regions.remove(start, start + size)
        for index in pages_spanned(start, size):
            if self._slot(index) is not None:
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
        if self._slot(address // PAGE_SIZE) is not None:
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

    # -- column slots --------------------------------------------------------------
    def _slot(self, index):
        """The column slot of page ``index``, or None if it holds no page."""
        base = self.chunks.get(index >> CHUNK_SHIFT)
        if base is not None:
            slot = base + (index & CHUNK_MASK)
            if self.residency_codes[slot]:
                return slot
        return None

    def _page_slot(self, index):
        """The column slot of existing page ``index`` (KeyError if none)."""
        slot = self._slot(index)
        if slot is None:
            raise KeyError(f"no page {index} in {self.name}")
        return slot

    def _add_chunk(self, key):
        """Give chunk ``key`` its slots at the end of every column."""
        base = self.chunks[key] = len(self.residency_codes)
        self.residency_codes += _NO_CODES
        self.touch_times += _NEVER
        self.prefetch_bits += _NO_BITS
        return base

    # -- page management --------------------------------------------------------
    def install_page(self, index, page, residency=Residency.RESIDENT):
        """Enter a real page at page ``index`` (fault completion path)."""
        region = self.regions.get(index * PAGE_SIZE)
        if region is None:
            raise AddressSpaceError(
                f"page {index} lies outside every region of {self.name}"
            )
        if self._slot(index) is not None:
            raise AddressSpaceError(f"page {index} already present")
        base = self.chunks.get(index >> CHUNK_SHIFT)
        if base is None:
            base = self._add_chunk(index >> CHUNK_SHIFT)
        if region is not VALIDATED:
            self._owe(-PAGE_SIZE)  # this page is no longer owed
        self.residency_codes[base + (index & CHUNK_MASK)] = _code_of(residency)
        self._pages[index] = page
        self._real += 1
        self._listing = self._runs = None

    def install_run(self, indices, pages=None, residency=Residency.RESIDENT,
                    touches=None):
        """Enter pages at page ``indices`` in one call (builder and
        insertion path).

        ``pages`` holds a :class:`Page` per index, or is None when every
        page holds its ``image`` bytes.  ``residency`` is one
        :class:`Residency` for every page or a sequence of one per page;
        ``touches`` is each page's last reference time (None: never).

        ``indices`` must ascend strictly, lie inside one region and
        hold no page yet.  The call costs one region lookup, a
        duplicate check in the chunks that already exist and one pass
        writing the columns; it raises before changing anything.
        """
        size = len(indices)
        uniform = isinstance(residency, Residency)
        for name, column in (("pages", pages),
                             ("residencies", None if uniform else residency),
                             ("touches", touches)):
            if column is not None and len(column) != size:
                raise ValueError(f"{size} indices but {len(column)} {name}")
        if not indices:
            return
        if pages is None and self.image is None:
            raise ValueError(f"{self.name} has no image to enter pages from")
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
        chunks = self.chunks
        residency_codes = self.residency_codes
        if chunks:
            for index in indices:
                base = chunks.get(index >> CHUNK_SHIFT)
                if base is not None and residency_codes[
                        base + (index & CHUNK_MASK)]:
                    raise AddressSpaceError(f"page {index} already present")
        if regions[0][2] is not VALIDATED:
            self._owe(-size * PAGE_SIZE)
        if uniform:
            codes = repeat(_code_of(residency))
        else:
            codes = map(_code_of, residency)
        touch_times = self.touch_times
        for index, code, when in zip(
            indices, codes, repeat(nan) if touches is None else touches
        ):
            base = chunks.get(index >> CHUNK_SHIFT)
            if base is None:
                base = self._add_chunk(index >> CHUNK_SHIFT)
            slot = base + (index & CHUNK_MASK)
            residency_codes[slot] = code
            touch_times[slot] = when
        if pages is not None:
            self._pages.update(zip(indices, pages))
        self._real += size
        self._listing = self._runs = None

    def _drop_page(self, index):
        slot = self._page_slot(index)
        self.residency_codes[slot] = NO_PAGE
        self.touch_times[slot] = nan
        self.prefetch_bits[slot >> 3] &= ~(1 << (slot & 7))
        page = self._pages.pop(index, None)
        if page is not None:
            page.release()
        self._real -= 1
        self._listing = self._runs = None
        region = self.regions.get(index * PAGE_SIZE)
        if region is not None and region is not VALIDATED:
            self._owe(PAGE_SIZE)  # owed again through the mapping

    # -- page accessors ------------------------------------------------------------
    def has_page(self, index):
        """Whether page ``index`` is real (resident or on disk)."""
        return self._slot(index) is not None

    def residency(self, index):
        """The :class:`Residency` of page ``index`` (None: no page)."""
        slot = self._slot(index)
        if slot is None:
            return None
        return _RESIDENCY_OF[self.residency_codes[slot]]

    def set_residency(self, index, residency):
        """Mark page ``index`` resident or on-disk."""
        self.residency_codes[self._page_slot(index)] = _code_of(residency)

    def page(self, index):
        """The :class:`Page` at ``index``.  A page that holds its image
        bytes gets one here, kept from then on, so whoever shares it
        and the space see one object."""
        page = self._pages.get(index)
        if page is None:
            self._page_slot(index)
            page = self._pages[index] = Page(self.image[index])
        return page

    def set_page(self, index, page):
        """Make ``page`` the contents of existing page ``index``.

        An unshared page holding exactly the image's bytes object is
        kept as no :class:`Page` at all (a page read back from disk).
        """
        self._page_slot(index)
        if (page.refs == 1 and self.image is not None
                and page.data is self.image.get(index)):
            self._pages.pop(index, None)
        else:
            self._pages[index] = page

    def replace_page(self, index, data):
        """Make the full page of bytes ``data`` the contents of page
        ``index``, copying first if the page is shared (as
        :meth:`Page.replace`)."""
        page = self._pages.get(index)
        if page is None:
            self._page_slot(index)
            self._pages[index] = Page(data)
        else:
            self._pages[index] = page.replace(data)

    def page_bytes(self, index):
        """The contents of page ``index``, without making a :class:`Page`."""
        page = self._pages.get(index)
        if page is not None:
            return page.data
        self._page_slot(index)
        return self.image[index]

    def disk_image(self, index):
        """What the paging disk keeps for page ``index``: its
        :class:`Page`, or its image bytes when it holds none."""
        page = self._pages.get(index)
        if page is not None:
            return page
        self._page_slot(index)
        return self.image[index]

    def is_shared(self, index):
        """Whether page ``index`` is shared copy-on-write (a write to it
        pays the deferred copy)."""
        page = self._pages.get(index)
        return page is not None and page.refs > 1

    def export_pages(self):
        """``{index: Page}`` of every real page, in index order, for the
        message that carries this space away (excision).  A page that
        holds its image bytes travels in a fresh :class:`Page` the space
        does not keep."""
        indices = self._sorted_indices()
        pages = dict.fromkeys(indices)
        if len(self._pages) < len(indices):
            unwrapped = list(filterfalse(self._pages.__contains__, indices))
            pages.update(
                zip(unwrapped, map(Page, map(self.image.__getitem__, unwrapped)))
            )
        pages.update(self._pages)
        return pages

    def last_touch(self, index):
        """Simulated time of the most recent reference to page ``index``
        (None if never referenced) — the input to Denning working-set
        estimation."""
        when = self.touch_times[self._page_slot(index)]
        return None if isnan(when) else when

    def last_touches(self, indices):
        """:meth:`last_touch` of each existing page in ``indices``."""
        chunks = self.chunks
        touch_times = self.touch_times
        return [
            None if isnan(when) else when
            for when in (
                touch_times[chunks[index >> CHUNK_SHIFT] + (index & CHUNK_MASK)]
                for index in indices
            )
        ]

    def note_reference(self, index, now):
        """Record a reference to page ``index`` at ``now``; True when
        the page had arrived by prefetch and this is its first
        reference (prefetch hit-ratio accounting, §4.3.3)."""
        slot = self._page_slot(index)
        self.touch_times[slot] = now
        bit = 1 << (slot & 7)
        if self.prefetch_bits[slot >> 3] & bit:
            self.prefetch_bits[slot >> 3] ^= bit
            return True
        return False

    def prefetched(self, index):
        """Whether page ``index`` arrived by prefetch and has not yet
        been referenced."""
        slot = self._page_slot(index)
        return bool(self.prefetch_bits[slot >> 3] & 1 << (slot & 7))

    def mark_prefetched(self, index):
        """Mark page ``index`` as arrived by prefetch."""
        slot = self._page_slot(index)
        self.prefetch_bits[slot >> 3] |= 1 << (slot & 7)

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
        if in_page + len(data) <= PAGE_SIZE and self._slot(index) is not None:
            self._pages[index] = self.page(index).write(in_page, data)
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
        if accessibility is REAL_ZERO_MEM:
            self.install_page(index, Page.zero())
        self._pages[index] = self.page(index).write(in_page, chunk)

    def peek(self, address, size):
        """Read bytes; zero regions read as zeros.

        Reading unfetched imaginary memory raises — callers must go
        through the fault path so the copy-on-reference machinery runs.
        """
        # Fast path: a read from an existing page, entirely inside it
        # (the per-step content verification reads a 32-byte head).
        index, in_page = divmod(address, PAGE_SIZE)
        if in_page + size <= PAGE_SIZE:
            page = self._pages.get(index)
            if page is not None:
                return page.data[in_page:in_page + size]
            base = self.chunks.get(index >> CHUNK_SHIFT)
            if base is not None and self.residency_codes[
                    base + (index & CHUNK_MASK)]:
                return self.image[index][in_page:in_page + size]
        out = bytearray()
        remaining = size
        cursor = address
        while remaining > 0:
            index = cursor // PAGE_SIZE
            in_page = cursor % PAGE_SIZE
            chunk = min(PAGE_SIZE - in_page, remaining)
            if self._slot(index) is not None:
                out += self.page_bytes(index)[in_page:in_page + chunk]
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
        return self._real * PAGE_SIZE

    @property
    def real_zero_bytes(self):
        """Allocated but untouched zero-fill memory (paper's *RealZ*)."""
        zero = 0
        pages = self._sorted_indices()
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
        pages = self._sorted_indices()
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

    def _indices_where(self, select):
        """Sorted indices whose code ``select`` maps to non-zero; each
        chunk is scanned by ``compress``, not a bytecode loop."""
        codes = self.residency_codes
        chunks = self.chunks
        indices = []
        for key in sorted(chunks):
            base = chunks[key]
            first = key << CHUNK_SHIFT
            selector = codes[base:base + CHUNK_PAGES]
            if select is not None:
                selector = selector.translate(select)
            indices += compress(range(first, first + CHUNK_PAGES), selector)
        return indices

    def _sorted_indices(self):
        if self._listing is None:
            self._listing = self._indices_where(None)
        return self._listing

    def real_page_indices(self):
        """Sorted indices of existing pages."""
        return list(self._sorted_indices())

    def resident_page_indices(self):
        """Sorted indices of pages currently in physical memory."""
        return self._indices_where(_RESIDENT_ONLY)

    def resident_bytes(self):
        """Size of the resident set (Table 4-2's *RS Size*)."""
        return self.residency_codes.count(RESIDENT_CODE) * PAGE_SIZE

    def real_runs(self):
        """Contiguous runs of existing pages as (first, last) inclusive."""
        return list(zip(*self._page_runs()))

    def run_count(self):
        """How many contiguous runs the existing pages form.  Counted
        afresh, not cached: the builder checks every space it builds,
        and a cached listing would live as long as the space."""
        return len(_runs_of(self._indices_where(None))[0])

    def _page_runs(self):
        """``(firsts, lasts)``: the first and last index of each maximal
        run of consecutive existing pages, in address order."""
        if self._runs is None:
            self._runs = _runs_of(self._sorted_indices())
        return self._runs


def _runs_of(pages):
    """``(firsts, lasts)`` of the maximal runs of consecutive indices in
    the ascending list ``pages``."""
    if not pages:
        return [], []
    # Positions where an index is not its predecessor plus one; map and
    # compress scan the list without a bytecode loop.
    steps = map(sub, islice(pages, 1, None), pages)
    breaks = list(compress(count(1), map(ne, steps, repeat(1))))
    firsts = [pages[0]]
    firsts += [pages[position] for position in breaks]
    lasts = [pages[position - 1] for position in breaks]
    lasts.append(pages[-1])
    return firsts, lasts

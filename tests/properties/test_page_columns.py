"""The column page table against the dict-of-entries table it replaced.

:class:`EntryModel` is the page table as it was: one entry object per
page index, holding the page bytes, residency, ``prefetched`` and
``last_touch``, beside its own region table.  A hypothesis state
machine applies the same installs, drops, invalidations, residency
changes, references, prefetch marks and writes to it and to an
:class:`AddressSpace`, and after every step compares each page's
state and bytes, ``real_runs()``, ``amap()`` and the imaginary bytes
owed.  The regions cross several column chunks and leave an unmapped
hole, so runs span chunk boundaries and some operations are refused;
both tables must refuse the same ones.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.accent.constants import PAGE_SIZE
from repro.accent.vm.accessibility import IMAG_MEM, REAL_MEM, REAL_ZERO_MEM
from repro.accent.vm.address_space import (
    CHUNK_PAGES,
    AddressSpace,
    AddressSpaceError,
    Residency,
    VALIDATED,
)
from repro.accent.vm.amap import AMap
from repro.accent.vm.intervals import IntervalMap
from repro.accent.vm.page import Page

#: (first page, pages, kind): validated, two imaginary handles, an
#: unmapped hole at 100-109, validated again.
LAYOUT = ((0, 48, VALIDATED), (48, 32, "h0"), (80, 20, "h1"),
          (110, 50, VALIDATED))
PAGES = 160
assert PAGES > 4 * CHUNK_PAGES
IMAGE = {index: bytes([index % 251]) * PAGE_SIZE for index in range(PAGES)}
RESIDENCIES = st.sampled_from([Residency.RESIDENT, Residency.ON_DISK])
#: Half the draws land on chunk and region edges, so steps often meet
#: the same pages again.
EDGES = sorted({0, 47, 48, 79, 80, 99, 110, 159}
               | {k * CHUNK_PAGES + d for k in range(1, 5) for d in (-1, 0)})
INDICES = st.one_of(st.sampled_from(EDGES), st.integers(0, PAGES - 1))


class Entry:
    __slots__ = ("data", "residency", "prefetched", "last_touch")

    def __init__(self, data, residency, last_touch=None):
        self.data, self.residency, self.last_touch = data, residency, last_touch
        self.prefetched = False


class EntryModel:
    """The dict-of-entries page table, with its own region table."""

    def __init__(self, regions):
        self.regions = regions
        self.table = {}

    def admits(self, indices):
        """Whether ascending ``indices`` may be installed in one run."""
        first, last = indices[0], indices[-1]
        region = self.regions.get(first * PAGE_SIZE)
        return region is not None and all(
            self.regions.get(index * PAGE_SIZE) is region
            for index in range(first, last + 1)
        ) and not any(index in self.table for index in indices)

    def owed(self):
        owed = 0
        for start, end, value in self.regions.runs():
            if value is not VALIDATED:
                pages = range(start // PAGE_SIZE, end // PAGE_SIZE)
                owed += sum(index not in self.table for index in pages)
        return owed * PAGE_SIZE

    def amap(self):
        amap = AMap()
        for start, end, value in self.regions.runs():
            base = REAL_ZERO_MEM if value is VALIDATED else IMAG_MEM
            for index in range(start // PAGE_SIZE, end // PAGE_SIZE):
                kind = REAL_MEM if index in self.table else base
                amap.add_run(index * PAGE_SIZE, (index + 1) * PAGE_SIZE, kind)
        return amap

    def runs(self):
        runs = []
        for index in sorted(self.table):
            if runs and runs[-1][1] == index - 1:
                runs[-1] = (runs[-1][0], index)
            else:
                runs.append((index, index))
        return runs


class PageColumns(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.space = AddressSpace(name="columns", image=IMAGE)
        regions = IntervalMap()
        for first, pages, kind in LAYOUT:
            start, size = first * PAGE_SIZE, pages * PAGE_SIZE
            if kind is VALIDATED:
                self.space.validate(start, size)
                regions.add(start, start + size, VALIDATED)
            else:
                self.space.map_imaginary(start, size, kind)
                # The space made its mapping; the model shares the value.
                regions.add(start, start + size, self.space.region_at(start))
        self.model = EntryModel(regions)
        self.clock = 0.0

    def present(self, index):
        return index in self.model.table

    @rule(index=INDICES, residency=RESIDENCIES,
          fill=st.integers(0, 255))
    def install_page(self, index, residency, fill):
        data = bytes([fill]) * PAGE_SIZE
        admitted = self.model.admits([index])
        try:
            self.space.install_page(index, Page(data), residency)
        except AddressSpaceError:
            assert not admitted
            return
        assert admitted
        self.model.table[index] = Entry(data, residency)

    @rule(first=INDICES, length=st.integers(1, 40),
          step=st.integers(1, 3), residency=RESIDENCIES,
          with_pages=st.booleans())
    def install_run(self, first, length, step, residency, with_pages):
        indices = list(range(first, min(first + length, PAGES), step))
        touches = [self.clock - position for position in range(len(indices))]
        pages = [Page(bytes([7]) * PAGE_SIZE) for _ in indices]
        admitted = self.model.admits(indices)
        try:
            self.space.install_run(
                indices, pages if with_pages else None, residency, touches
            )
        except AddressSpaceError:
            assert not admitted
            return
        assert admitted
        for index, page, when in zip(indices, pages, touches):
            data = page.data if with_pages else IMAGE[index]
            self.model.table[index] = Entry(data, residency, when)

    @rule(index=INDICES)
    def drop(self, index):
        if self.present(index):
            self.space._drop_page(index)
            del self.model.table[index]

    @rule(index=INDICES, residency=RESIDENCIES)
    def reinstall(self, index, residency):
        """A page dropped and installed anew starts from an empty slot."""
        if self.present(index):
            self.drop(index)
            self.install_page(index, residency, fill=1)

    @rule(first=INDICES, length=st.integers(1, 12))
    def invalidate(self, first, length):
        length = min(length, PAGES - first)
        self.space.invalidate(first * PAGE_SIZE, length * PAGE_SIZE)
        self.model.regions.remove(first * PAGE_SIZE,
                                  (first + length) * PAGE_SIZE)
        for index in range(first, first + length):
            self.model.table.pop(index, None)

    @rule(index=INDICES, residency=RESIDENCIES)
    def set_residency(self, index, residency):
        if self.present(index):
            self.space.set_residency(index, residency)
            self.model.table[index].residency = residency

    @rule(index=INDICES)
    def touch(self, index):
        if self.present(index):
            self.clock += 1.0
            entry = self.model.table[index]
            was_prefetched, entry.prefetched = entry.prefetched, False
            entry.last_touch = self.clock
            assert self.space.note_reference(index, self.clock) is was_prefetched

    @rule(index=INDICES)
    def prefetch(self, index):
        if self.present(index):
            self.space.mark_prefetched(index)
            self.model.table[index].prefetched = True

    @rule(index=INDICES, fill=st.integers(0, 255))
    def write(self, index, fill):
        if self.present(index):
            data = bytes([fill]) * PAGE_SIZE
            self.space.replace_page(index, data)
            self.model.table[index].data = data

    @invariant()
    def tables_agree(self):
        space, table = self.space, self.model.table
        for index in range(PAGES):
            entry = table.get(index)
            assert space.has_page(index) is (entry is not None)
            if entry is None:
                assert space.residency(index) is None
                continue
            assert space.residency(index) is entry.residency
            assert space.last_touch(index) == entry.last_touch
            assert space.prefetched(index) is entry.prefetched
            assert space.page_bytes(index) == entry.data
        assert space.real_page_indices() == sorted(table)
        assert space.real_bytes == len(table) * PAGE_SIZE
        assert space.real_runs() == self.model.runs()
        assert list(space.amap().runs()) == list(self.model.amap().runs())
        assert space._scan_imaginary_bytes() == self.model.owed()
        assert space.imaginary_bytes == self.model.owed()


PageColumns.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestPageColumns = PageColumns.TestCase

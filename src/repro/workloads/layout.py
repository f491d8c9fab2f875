"""Address-space layout and page-set selection.

Generates, deterministically from a seeded RNG:

* the validated region and the placement of real pages into exactly
  ``spec.real_runs`` contiguous runs separated by zero-fill gaps (the
  run count drives RIMAS-collapse and insertion costs, Table 4-4);
* the *touched* page set (which pages the process references remotely),
  shaped by the workload's locality class;
* the *resident* page set, honouring the touched∩RS overlap implied by
  Table 4-3;
* a sample of zero-fill pages the process will touch remotely
  (FillZero faults).
"""

from array import array
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import List, Set, Tuple

from repro.accent.constants import PAGE_SIZE
from repro.workloads.spec import Locality

#: All workloads map their validated region at this page.
BASE_PAGE = 128

#: A plan's page-index lists are ``array('I')``: plans live as long as
#: their processes, and an int object per page cost 2.8 MB on a
#: 192-process cluster run.
_indices = partial(array, "I")


@dataclass
class LayoutPlan:
    """Everything the builder and trace generator need."""

    region_start: int
    region_size: int
    #: Sorted page indices of real (existing) pages.
    real_indices: array = field(default_factory=_indices)
    #: ``(first page, length)`` of each zero-fill gap around the runs.
    gaps: List[Tuple[int, int]] = field(default_factory=list)
    #: Page indices the process references remotely, in *touch order*.
    touched_order: array = field(default_factory=_indices)
    #: Page indices resident in physical memory at migration time.
    resident: Set[int] = field(default_factory=set)
    #: Pages referenced within the last working-set window before
    #: migration — the process's true Denning working set.  A subset of
    #: the resident set (physical memory outlives the working set when
    #: it doubles as a disk cache, §4.2.3).
    recent: Set[int] = field(default_factory=set)
    #: Zero-fill pages the process will touch remotely.
    zero_touches: array = field(default_factory=_indices)

    @cached_property
    def touched(self):
        """:attr:`touched_order` as a set, built on first use.

        Not a field: plans live as long as their processes, and one set
        per plan held that long added ~3% to the peak memory of a
        192-process cluster run.
        """
        return set(self.touched_order)


def partition(total, parts, rng, minimum=1):
    """Split ``total`` into ``parts`` integers each >= ``minimum``.

    Deterministic given the RNG state; sizes vary randomly around the
    mean so layouts are irregular like real address spaces.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    if total < parts * minimum:
        raise ValueError(
            f"cannot split {total} into {parts} parts of >= {minimum}"
        )
    spare = total - parts * minimum
    # Draw parts-1 cut points over the spare mass.
    cuts = sorted(rng.randrange(spare + 1) for _ in range(parts - 1))
    sizes = []
    previous = 0
    for cut in cuts:
        sizes.append(minimum + cut - previous)
        previous = cut
    sizes.append(minimum + spare - previous)
    return sizes


def make_layout(spec, rng):
    """Build the full :class:`LayoutPlan` for one workload."""
    plan = LayoutPlan(
        region_start=BASE_PAGE * PAGE_SIZE,
        region_size=spec.total_bytes,
    )
    _place_real_runs(spec, rng, plan)
    _select_touched(spec, rng, plan)
    _select_resident(spec, rng, plan)
    _select_zero_touches(spec, rng, plan)
    return plan


def _place_real_runs(spec, rng, plan):
    """Real runs separated by >= 1 zero page, run count exact."""
    runs = spec.real_runs
    run_sizes = partition(spec.real_pages, runs, rng)
    # runs+1 gaps (leading and trailing gaps included) each >= 1 page so
    # adjacent runs never merge and the region edges stay zero-fill.
    gap_sizes = partition(spec.real_zero_pages, runs + 1, rng)
    cursor = BASE_PAGE
    for run_size, gap_size in zip(run_sizes, gap_sizes):
        cursor += gap_size
        plan.real_indices.extend(range(cursor, cursor + run_size))
        plan.gaps.append((cursor - gap_size, gap_size))
        cursor += run_size
    plan.gaps.append((cursor, gap_sizes[-1]))


def _select_touched(spec, rng, plan):
    """Choose which real pages the process references, and in what order."""
    real = plan.real_indices
    count = min(spec.touched_pages, len(real))
    if spec.locality is Locality.SEQUENTIAL:
        order = _sequential_order(real, count, rng)
    elif spec.locality is Locality.SCATTERED:
        order = _scattered_order(real, count, rng)
    else:
        order = _clustered_order(real, count, rng)
    plan.touched_order = _indices(order)


def _sequential_order(real, count, rng, density=0.78):
    """Pasmac: an ascending sweep that references most — not all — pages.

    File scans skip page-sized stretches (comments, already-expanded
    text), so a next-contiguous-page prefetcher lands a useful page
    about 78% of the time — the paper's measured Pasmac hit ratio
    (§4.3.3).  ``density`` sets that probability directly.
    """
    order = []
    position = 0
    limit = len(real)
    while len(order) < count and position < limit:
        if rng.random() < density:
            order.append(real[position])
        position += 1
    # If the sweep ran out of space, take the earliest skipped pages.
    if len(order) < count:
        chosen = set(order)
        for index in real:
            if len(order) >= count:
                break
            if index not in chosen:
                order.append(index)
    return order


def _scattered_order(real, count, rng, hot_fraction=0.5):
    """Lisp: short runs in random order, concentrated in a hot zone.

    Mostly-singleton runs give prefetch-1 a hit ratio around 40%, while
    deep prefetch hauls largely dead weight whose only value is the
    background chance of landing a future touch inside the hot half of
    the heap — reproducing the paper's 40%→20% hit-ratio decline
    (§4.3.3).
    """
    chosen = set()
    order = []
    positions = len(real)
    zone_length = max(count, int(positions * hot_fraction))
    zone_start = rng.randrange(max(1, positions - zone_length))
    while len(order) < count:
        start = zone_start + rng.randrange(zone_length)
        run_length = rng.choice((1, 1, 2))
        for offset in range(run_length):
            position = start + offset
            if position >= positions:
                break
            index = real[position]
            if index in chosen:
                continue
            chosen.add(index)
            order.append(index)
            if len(order) >= count:
                break
    return order


def _clustered_order(real, count, rng, clusters=5):
    """Minprog/Chess: a few dense working-set clusters."""
    clusters = min(clusters, count)
    sizes = partition(count, clusters, rng)
    chosen = set()
    order = []
    positions = len(real)
    for size in sizes:
        # Find a window that still has enough unchosen pages.
        for _ in range(64):
            start = rng.randrange(positions)
            window = [
                real[p]
                for p in range(start, min(start + size * 2, positions))
                if real[p] not in chosen
            ]
            if len(window) >= size:
                break
        else:
            window = [i for i in real if i not in chosen]
        picked = window[:size]
        chosen.update(picked)
        order.extend(picked)
    return order


def _select_resident(spec, rng, plan):
    """Resident set honouring |touched ∩ RS| from Table 4-3."""
    touched = set(plan.touched_order)
    overlap_count = min(spec.touched_in_rs_pages, len(plan.touched_order))
    resident = set(rng.sample(plan.touched_order, overlap_count))
    untouched = [i for i in plan.real_indices if i not in touched]
    remainder = spec.resident_pages - overlap_count
    if remainder > len(untouched):
        raise ValueError(
            f"{spec.name}: resident set cannot be satisfied "
            f"(need {remainder} untouched, have {len(untouched)})"
        )
    resident.update(rng.sample(untouched, remainder))
    plan.resident = resident
    # The true working set: pages the process was *just* using — the
    # soon-to-be-re-touched overlap plus a sprinkle of hot-but-finished
    # pages (temporal locality is good, not perfect).
    recent = resident & touched
    cold_resident = sorted(resident - touched)
    extra = min(len(cold_resident), max(1, len(recent) // 5))
    if extra:
        recent.update(rng.sample(cold_resident, extra))
    plan.recent = recent


def _select_zero_touches(spec, rng, plan):
    """Zero-fill pages referenced remotely (stack growth, fresh heap)."""
    gaps = [gap for gap in plan.gaps if gap[1] > 0]
    picks = []
    seen = set()
    while len(picks) < spec.zero_touch_pages and gaps:
        gap_start, gap_size = gaps[rng.randrange(len(gaps))]
        index = gap_start + rng.randrange(gap_size)
        if index in seen:
            continue
        seen.add(index)
        picks.append(index)
    plan.zero_touches = _indices(picks)

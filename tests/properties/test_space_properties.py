"""Property-based tests for address spaces and AMaps."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accent.constants import PAGE_SIZE
from repro.accent.vm.accessibility import BAD_MEM, REAL_MEM, REAL_ZERO_MEM
from repro.accent.vm.address_space import AddressSpace
from repro.accent.vm.page import Page
from tests.workloads.test_bulk_build import per_page_amap

REGION_PAGES = 48


@st.composite
def space_with_pages(draw):
    space = AddressSpace()
    space.validate(0, REGION_PAGES * PAGE_SIZE)
    indices = draw(
        st.sets(st.integers(0, REGION_PAGES - 1), max_size=REGION_PAGES)
    )
    for index in sorted(indices):
        space.install_page(index, Page(bytes([index])))
    return space, indices


@given(space_with_pages())
@settings(max_examples=100)
def test_amap_partitions_the_space(build):
    """AMap runs exactly tile the validated region, with REAL runs
    precisely over existing pages."""
    space, indices = build
    amap = space.amap()
    cursor = 0
    for run in amap.runs():
        assert run.start == cursor  # no gaps, no overlaps
        cursor = run.end
    assert cursor == REGION_PAGES * PAGE_SIZE
    for page in range(REGION_PAGES):
        expected = REAL_MEM if page in indices else REAL_ZERO_MEM
        assert amap.classify(page * PAGE_SIZE) is expected


@given(space_with_pages())
@settings(max_examples=100)
def test_byte_conservation(build):
    """real + real_zero == total, always."""
    space, indices = build
    assert space.real_bytes + space.real_zero_bytes == space.total_bytes
    assert space.real_bytes == len(indices) * PAGE_SIZE


@given(space_with_pages())
@settings(max_examples=100)
def test_real_runs_reconstruct_indices(build):
    space, indices = build
    reconstructed = set()
    for first, last in space.real_runs():
        assert first <= last
        reconstructed.update(range(first, last + 1))
    assert reconstructed == indices


@given(
    st.sets(st.integers(0, REGION_PAGES - 1), min_size=1, max_size=20),
    st.integers(0, REGION_PAGES - 1),
    st.binary(min_size=1, max_size=64),
)
@settings(max_examples=100)
def test_poke_peek_round_trip(indices, target, payload):
    space = AddressSpace()
    space.validate(0, REGION_PAGES * PAGE_SIZE)
    for index in sorted(indices):
        space.install_page(index, Page(bytes([index])))
    address = target * PAGE_SIZE
    space.poke(address, payload)
    assert space.peek(address, len(payload)) == payload


@given(space_with_pages())
@settings(max_examples=50)
def test_accessibility_total_function(build):
    """Every address classifies to exactly one legal-or-bad class."""
    space, _ = build
    for page in range(REGION_PAGES + 8):
        klass = space.accessibility(page * PAGE_SIZE)
        if page < REGION_PAGES:
            assert klass in (REAL_MEM, REAL_ZERO_MEM)
        else:
            assert klass is BAD_MEM


@st.composite
def mixed_space(draw):
    """Validated, imaginary (two handles) and unmapped stretches, pages
    installed in a random order, then some ranges invalidated."""
    space = AddressSpace()
    cursor = 0
    stretches = st.tuples(
        st.sampled_from(["validated", "h0", "h1", None]), st.integers(1, 8)
    )
    for kind, length in draw(st.lists(stretches, min_size=1, max_size=8)):
        if kind == "validated":
            space.validate(cursor * PAGE_SIZE, length * PAGE_SIZE)
        elif kind is not None:
            space.map_imaginary(cursor * PAGE_SIZE, length * PAGE_SIZE, kind)
        cursor += length
    mapped = [
        index for index in range(cursor)
        if space.region_at(index * PAGE_SIZE) is not None
    ]
    if mapped:
        for index in draw(st.lists(st.sampled_from(mapped), unique=True)):
            space.install_page(index, Page(bytes([index % 256])))
    drops = st.tuples(st.integers(0, cursor - 1), st.integers(1, 4))
    for start, length in draw(st.lists(drops, max_size=3)):
        length = min(length, cursor - start)
        space.invalidate(start * PAGE_SIZE, length * PAGE_SIZE)
    return space


@given(mixed_space())
@settings(max_examples=200)
def test_amap_equals_the_per_page_amap(space):
    """``amap()`` emits one run per page run; the map equals the one
    built a page at a time."""
    assert list(space.amap().runs()) == list(per_page_amap(space).runs())

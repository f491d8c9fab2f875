"""Property-based tests for imaginary-segment delivery invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accent.vm.page import Page
from repro.cor.imaginary import ImaginarySegment


@st.composite
def segment_and_requests(draw):
    indices = sorted(
        draw(st.sets(st.integers(0, 99), min_size=1, max_size=40))
    )
    segment = ImaginarySegment(
        backing_port=None, pages={i: Page(bytes([i % 256])) for i in indices}
    )
    requests = draw(
        st.lists(
            st.tuples(st.sampled_from(indices), st.integers(0, 15)),
            min_size=1,
            max_size=60,
        )
    )
    return segment, requests


@given(segment_and_requests())
@settings(max_examples=150)
def test_owed_shrinks_monotonically_and_stays_consistent(build):
    segment, requests = build
    total = len(segment.stash)
    for index, prefetch in requests:
        owed_before = set(segment.owed)
        pages = segment.take_batch([index], 1 + prefetch)
        # The demanded page is always delivered.
        assert index in pages
        # Delivery never exceeds 1 + prefetch pages.
        assert len(pages) <= 1 + prefetch
        # owed never grows, and everything delivered leaves owed.
        assert segment.owed <= owed_before
        assert not (set(pages) & segment.owed)
        # Prefetched pages all come from the owed set, above the index.
        for extra in set(pages) - {index}:
            assert extra > index
            assert extra in owed_before
    assert len(segment.owed) + len(
        {i for i in segment.stash if i not in segment.owed}
    ) == total


@given(segment_and_requests())
@settings(max_examples=100)
def test_prefetch_picks_nearest_owed_above(build):
    segment, requests = build
    for index, prefetch in requests:
        owed_before = set(segment.owed)
        pages = segment.take_batch([index], 1 + prefetch)
        extras = sorted(set(pages) - {index})
        # The extras must be exactly the nearest owed indices above.
        candidates = sorted(i for i in owed_before if i > index)
        assert extras == candidates[: len(extras)]
        if len(extras) < prefetch:
            # Ran out of owed pages above the demand.
            assert len(candidates) == len(extras)


@given(st.sets(st.integers(0, 50), min_size=1, max_size=20))
@settings(max_examples=50)
def test_full_drain_delivers_every_page_once(indices):
    segment = ImaginarySegment(
        backing_port=None, pages={i: Page() for i in indices}
    )
    delivered = set()
    for index in sorted(indices):
        if index not in segment.owed:
            continue
        delivered.update(segment.take_batch([index], 4))
    assert delivered == set(indices)
    assert segment.fully_delivered

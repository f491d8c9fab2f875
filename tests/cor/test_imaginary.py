"""Unit tests for imaginary segments and prefetch selection."""

import pytest

from repro.accent.vm.page import Page
from repro.cor.imaginary import ImaginaryHandle, ImaginarySegment


def make_segment(indices):
    return ImaginarySegment(
        backing_port=None, pages={i: Page(bytes([i % 256])) for i in indices}
    )


def test_handle_fields():
    segment = make_segment([0])
    handle = segment.handle
    assert isinstance(handle, ImaginaryHandle)
    assert handle.segment_id == segment.segment_id
    assert handle.backing_port is segment.backing_port


def test_take_demanded_page_only():
    segment = make_segment([3, 4, 5])
    pages = segment.take_batch([4], 1)
    assert list(pages) == [4]
    assert 4 not in segment.owed
    assert segment.owed == {3, 5}
    assert segment.requests == 1
    assert segment.pages_delivered == 1


def test_take_unknown_page_raises():
    segment = make_segment([1])
    with pytest.raises(KeyError):
        segment.take_batch([9], 1)


def test_prefetch_ascending_contiguous():
    segment = make_segment(range(10))
    pages = segment.take_batch([2], 4)
    assert sorted(pages) == [2, 3, 4, 5]


def test_prefetch_skips_already_delivered():
    segment = make_segment(range(10))
    segment.take_batch([3], 1)
    segment.take_batch([4], 1)
    pages = segment.take_batch([2], 3)
    # 3 and 4 already delivered; the next owed above 2 are 5 and 6.
    assert sorted(pages) == [2, 5, 6]


def test_prefetch_spans_index_gaps():
    """'Nearby' pages follow the stash order even across holes."""
    segment = make_segment([1, 2, 50, 51])
    pages = segment.take_batch([2], 3)
    assert sorted(pages) == [2, 50, 51]


def test_prefetch_stops_at_stash_end():
    segment = make_segment([8, 9])
    pages = segment.take_batch([9], 6)
    assert sorted(pages) == [9]


def test_take_is_idempotent_for_redelivery():
    """A raced demand for an already-delivered page still succeeds."""
    segment = make_segment([0, 1])
    segment.take_batch([0], 2)  # delivers 0 and 1
    again = segment.take_batch([1], 1)
    assert list(again) == [1]
    assert segment.fully_delivered


def test_death_clears_segment():
    segment = make_segment([0, 1])
    segment.take_batch([0], 1)
    segment.die()
    assert segment.dead
    assert not segment.stash
    assert not segment.owed


def test_fully_delivered_flag():
    segment = make_segment([0, 1])
    assert not segment.fully_delivered
    segment.take_batch([0], 2)
    assert segment.fully_delivered


def test_stash_and_owed_behave_as_mapping_and_set():
    """The columns behind a segment read as a mapping of its pages and
    a set of the owed indices, both ascending; the index set is fixed
    when the segment is made."""
    segment = make_segment([9, 2, 5])
    stash, owed = segment.stash, segment.owed
    assert list(stash) == [2, 5, 9] and list(owed) == [2, 5, 9]
    replacement = Page(b"new")
    stash[5] = replacement
    assert stash[5] is replacement and len(stash) == 3
    del stash[9]
    assert 9 not in stash and list(stash.items())[-1] == (5, replacement)
    with pytest.raises(KeyError):
        stash[9]
    with pytest.raises(KeyError):
        stash[4] = Page()
    owed.discard(5)
    owed.discard(4)  # not part of the segment: nothing to discard
    assert owed == {2, 9} and owed <= {2, 5, 9} and {9, 4} & owed == {9}
    with pytest.raises(KeyError):
        owed.add(4)
    owed.add(5)
    assert len(owed) == 3

"""Unit tests for sparse address spaces."""

import pytest

from repro.accent.constants import PAGE_SIZE
from repro.accent.vm.accessibility import (
    BAD_MEM,
    IMAG_MEM,
    REAL_MEM,
    REAL_ZERO_MEM,
)
from repro.accent.vm.address_space import (
    AddressSpace,
    AddressSpaceError,
    Residency,
)
from repro.accent.vm.page import Page

KB = 1024


class FakeHandle:
    """Stand-in imaginary handle for VM-level tests."""

    segment_id = 1
    backing_port = None


def make_space():
    space = AddressSpace(name="test")
    space.validate(0, 64 * PAGE_SIZE)
    return space


# ------------------------------------------------------------ regions ----
def test_validate_and_accessibility():
    space = make_space()
    assert space.accessibility(0) is REAL_ZERO_MEM
    assert space.accessibility(63 * PAGE_SIZE) is REAL_ZERO_MEM
    assert space.accessibility(64 * PAGE_SIZE) is BAD_MEM


def test_validate_requires_page_alignment():
    space = AddressSpace()
    with pytest.raises(AddressSpaceError):
        space.validate(100, PAGE_SIZE)
    with pytest.raises(AddressSpaceError):
        space.validate(0, 100)


def test_validate_rejects_overlap():
    space = make_space()
    with pytest.raises(AddressSpaceError):
        space.validate(10 * PAGE_SIZE, PAGE_SIZE)


def test_validate_rejects_beyond_4gb():
    space = AddressSpace()
    with pytest.raises(AddressSpaceError):
        space.validate(4 * 1024**3 - PAGE_SIZE, 2 * PAGE_SIZE)


def test_validate_rejects_nonpositive_size():
    space = AddressSpace()
    with pytest.raises(AddressSpaceError):
        space.validate(0, 0)


def test_map_imaginary_accessibility():
    space = AddressSpace()
    space.map_imaginary(0, 8 * PAGE_SIZE, FakeHandle())
    assert space.accessibility(0) is IMAG_MEM
    assert space.accessibility(8 * PAGE_SIZE) is BAD_MEM


def test_imaginary_overlap_rejected():
    space = make_space()
    with pytest.raises(AddressSpaceError):
        space.map_imaginary(0, PAGE_SIZE, FakeHandle())


def test_invalidate_removes_regions_and_pages():
    space = make_space()
    space.poke(0, b"data")
    space.invalidate(0, 32 * PAGE_SIZE)
    assert space.accessibility(0) is BAD_MEM
    assert space.accessibility(32 * PAGE_SIZE) is REAL_ZERO_MEM
    assert not space.has_page(0)


# ------------------------------------------------------------ contents ----
def test_poke_materialises_page():
    space = make_space()
    space.poke(0, b"hello")
    assert space.accessibility(0) is REAL_MEM
    assert space.peek(0, 5) == b"hello"
    assert space.real_bytes == PAGE_SIZE


def test_poke_across_page_boundary():
    space = make_space()
    payload = bytes(range(256)) * 5  # 1280 bytes starting 100 before a
    # page boundary: 100 + 512 + 512 + 156 -> touches 4 pages.
    space.poke(PAGE_SIZE - 100, payload)
    assert space.peek(PAGE_SIZE - 100, len(payload)) == payload
    assert space.real_bytes == 4 * PAGE_SIZE


def test_peek_zero_region_reads_zeros():
    space = make_space()
    assert space.peek(5 * PAGE_SIZE, 16) == bytes(16)


def test_peek_unvalidated_raises():
    space = make_space()
    with pytest.raises(AddressSpaceError):
        space.peek(100 * PAGE_SIZE, 4)


def test_poke_unvalidated_raises():
    space = make_space()
    with pytest.raises(AddressSpaceError):
        space.poke(100 * PAGE_SIZE, b"x")


def test_imaginary_page_cannot_be_poked_or_peeked():
    space = AddressSpace()
    space.map_imaginary(0, PAGE_SIZE, FakeHandle())
    with pytest.raises(AddressSpaceError):
        space.poke(0, b"x")
    with pytest.raises(AddressSpaceError):
        space.peek(0, 1)


def test_peek_mixed_real_and_zero():
    space = make_space()
    space.poke(PAGE_SIZE, b"\xff" * PAGE_SIZE)
    window = space.peek(PAGE_SIZE - 4, 12)
    assert window == bytes(4) + b"\xff" * 8


# ------------------------------------------------------------ pages ----
def test_install_page_and_entry():
    space = make_space()
    page = Page(b"content")
    space.install_page(3, page)
    assert space.page(3) is page
    assert space.residency(3) is Residency.RESIDENT


def test_install_page_outside_regions_rejected():
    space = make_space()
    with pytest.raises(AddressSpaceError):
        space.install_page(1000, Page())


def test_install_duplicate_page_rejected():
    space = make_space()
    space.install_page(3, Page())
    with pytest.raises(AddressSpaceError):
        space.install_page(3, Page())


def test_install_into_imaginary_region():
    """Fetched imaginary pages become real (the fault completion path)."""
    space = AddressSpace()
    space.map_imaginary(0, 4 * PAGE_SIZE, FakeHandle())
    space.install_page(1, Page(b"fetched"))
    assert space.accessibility(PAGE_SIZE) is REAL_MEM
    assert space.accessibility(0) is IMAG_MEM
    assert space.peek(PAGE_SIZE, 7) == b"fetched"


def entries(count):
    return [Page(bytes([i])) for i in range(count)]


def test_install_run_enters_every_page():
    space = make_space()
    space.install_page(2, Page())
    run = entries(3)
    space.install_run([5, 6, 9], run, Residency.ON_DISK, [1.0, 2.0, 3.0])
    assert [space.page(i) for i in (5, 6, 9)] == run
    assert [space.residency(i) for i in (5, 6, 9)] == [Residency.ON_DISK] * 3
    assert [space.last_touch(i) for i in (2, 5, 6, 9)] == [None, 1.0, 2.0, 3.0]
    assert space.real_page_indices() == [2, 5, 6, 9]
    assert space.real_runs() == [(2, 2), (5, 6), (9, 9)]


def test_install_run_keeps_sorted_order_when_out_of_order():
    space = make_space()
    space.install_run([10, 11], entries(2))
    space.install_run([3, 4], entries(2))
    assert space.real_page_indices() == [3, 4, 10, 11]
    assert space.real_runs() == [(3, 4), (10, 11)]


def test_install_run_into_imaginary_region_settles_owed_bytes():
    space = AddressSpace()
    space.map_imaginary(0, 8 * PAGE_SIZE, FakeHandle())
    space.install_run([1, 2, 5], entries(3))
    assert space.imaginary_bytes == 5 * PAGE_SIZE
    assert space.imaginary_bytes == space._scan_imaginary_bytes()


@pytest.mark.parametrize("indices, match", [
    ([100, 101], "inside one region"),      # outside every region
    ([62, 63, 64], "inside one region"),    # runs off the region's end
    ([4, 3], "does not ascend"),
    ([3, 3], "does not ascend"),
])
def test_install_run_rejects_bad_runs(indices, match):
    space = make_space()
    with pytest.raises(AddressSpaceError, match=match):
        space.install_run(indices, entries(len(indices)))
    assert space.real_page_indices() == []


def test_install_run_rejects_a_run_crossing_two_regions():
    space = AddressSpace()
    space.validate(0, 4 * PAGE_SIZE)
    space.map_imaginary(4 * PAGE_SIZE, 4 * PAGE_SIZE, FakeHandle())
    with pytest.raises(AddressSpaceError, match="inside one region"):
        space.install_run([3, 4], entries(2))


def test_install_run_rejects_a_present_page_and_changes_nothing():
    space = make_space()
    space.install_page(7, Page())
    with pytest.raises(AddressSpaceError, match="page 7 already present"):
        space.install_run([6, 7, 8], entries(3))
    assert space.real_page_indices() == [7]


def test_install_run_needs_one_entry_per_index():
    space = make_space()
    with pytest.raises(ValueError):
        space.install_run([1, 2], entries(1))
    with pytest.raises(ValueError):
        space.install_run([1, 2], entries(2), [Residency.RESIDENT])
    with pytest.raises(ValueError):
        space.install_run([1, 2], entries(2), touches=[0.0])
    space.install_run([], [])  # an empty run enters nothing
    assert space.real_page_indices() == []


def test_set_residency():
    space = make_space()
    space.install_page(0, Page())
    space.set_residency(0, Residency.ON_DISK)
    assert space.residency(0) is Residency.ON_DISK


def test_image_pages_get_a_page_only_where_one_is_needed():
    """Pages entered from the image hold its bytes and no ``Page``; a
    ``Page`` handed out is kept, an unshared one holding the image
    bytes is dropped again, and a shared one is kept."""
    image = {index: bytes([index]) * PAGE_SIZE for index in range(4)}
    space = AddressSpace(image=image)
    space.validate(0, 4 * PAGE_SIZE)
    space.install_run([0, 1, 2])
    assert space._pages == {}
    assert space.page_bytes(1) is image[1] and not space.is_shared(1)
    exported = space.export_pages()
    assert [page.data for page in exported.values()] == [image[0], image[1], image[2]]
    assert space._pages == {}  # the message's pages are not kept
    handed = space.page(1)
    assert space.page(1) is handed and handed.data is image[1]
    space.set_page(1, Page(image[1]))  # read back from disk, say
    assert 1 not in space._pages
    shared = Page(image[2]).share()
    space.set_page(2, shared)
    assert space.page(2) is shared and space.is_shared(2)
    space.replace_page(0, bytes(PAGE_SIZE))
    assert space.peek(0, 4) == bytes(4)


# ------------------------------------------------------------ stats ----
def test_byte_accounting():
    space = make_space()  # 64 pages validated
    space.poke(0, b"x")
    space.poke(10 * PAGE_SIZE, b"y")
    assert space.total_bytes == 64 * PAGE_SIZE
    assert space.real_bytes == 2 * PAGE_SIZE
    assert space.real_zero_bytes == 62 * PAGE_SIZE
    assert space.imaginary_bytes == 0


def test_imaginary_byte_accounting():
    space = AddressSpace()
    space.map_imaginary(0, 8 * PAGE_SIZE, FakeHandle())
    space.install_page(0, Page())
    assert space.imaginary_bytes == 7 * PAGE_SIZE
    assert space.real_bytes == PAGE_SIZE
    assert space.total_bytes == 8 * PAGE_SIZE


def test_resident_tracking():
    space = make_space()
    space.install_page(0, Page(), Residency.RESIDENT)
    space.install_page(1, Page(), Residency.ON_DISK)
    space.install_page(2, Page(), Residency.RESIDENT)
    assert space.resident_page_indices() == [0, 2]
    assert space.resident_bytes() == 2 * PAGE_SIZE


def test_real_runs_grouping():
    space = make_space()
    for index in (0, 1, 2, 5, 9, 10):
        space.install_page(index, Page())
    assert space.real_runs() == [(0, 2), (5, 5), (9, 10)]


def test_real_page_indices_sorted_after_out_of_order_install():
    space = make_space()
    for index in (9, 1, 5):
        space.install_page(index, Page())
    assert space.real_page_indices() == [1, 5, 9]


def test_huge_sparse_space_is_cheap():
    """A 4 GB validated space costs O(runs), not O(pages)."""
    space = AddressSpace()
    four_gb = 4 * 1024**3
    space.validate(0, four_gb)
    space.poke(1024 * PAGE_SIZE, b"tiny")
    assert space.total_bytes == four_gb
    assert space.real_bytes == PAGE_SIZE
    assert space.real_zero_bytes == four_gb - PAGE_SIZE
    amap = space.amap()
    assert amap.entry_count == 3  # zero, real page, zero


def test_incremental_imaginary_counter_matches_scan():
    """imaginary_bytes is kept incrementally (the telemetry sampler
    reads it every tick); after any mutation sequence it must equal a
    full rescan of the run table."""
    space = AddressSpace()
    space.map_imaginary(0, 8 * PAGE_SIZE, FakeHandle())
    space.validate(8 * PAGE_SIZE, 4 * PAGE_SIZE)
    space.map_imaginary(16 * PAGE_SIZE, 4 * PAGE_SIZE, FakeHandle())
    assert space.imaginary_bytes == space._scan_imaginary_bytes() == (
        12 * PAGE_SIZE
    )
    # Installing pages fills part of the debt (imaginary runs only).
    space.install_page(0, Page())
    space.install_page(17, Page())
    space.install_page(9, Page())  # validated region: no change
    assert space.imaginary_bytes == space._scan_imaginary_bytes() == (
        10 * PAGE_SIZE
    )
    # Invalidating a half-filled imaginary range removes only the
    # still-owed remainder.
    space.invalidate(16 * PAGE_SIZE, 4 * PAGE_SIZE)
    assert space.imaginary_bytes == space._scan_imaginary_bytes() == (
        7 * PAGE_SIZE
    )
    # Invalidating across validated + imaginary coverage too.
    space.invalidate(0, 12 * PAGE_SIZE)
    assert space.imaginary_bytes == space._scan_imaginary_bytes() == 0

"""Architectural constants of the simulated Accent/Perq machine."""

#: Accent used 512-byte virtual-memory pages (paper §2.1).
PAGE_SIZE = 512

#: A process may address up to 4 gigabytes (paper §3.1).
SPACE_LIMIT = 4 * 1024 * 1024 * 1024

#: Number of pages in a full address space.
SPACE_PAGES = SPACE_LIMIT // PAGE_SIZE


def pages_spanned(start, size):
    """Range of page indices touched by ``size`` bytes at ``start``."""
    if size <= 0:
        return range(0, 0)
    first = start // PAGE_SIZE
    last = (start + size - 1) // PAGE_SIZE
    return range(first, last + 1)

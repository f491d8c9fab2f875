"""Per-host physical memory: a bounded frame pool with LRU eviction.

Accent treats physical memory as a disk cache (paper §4.2.3) — old file
pages linger in the resident set long after their last use, which is
exactly why resident-set shipment performs poorly for the Pasmac
processes.  The LRU bookkeeping here is what defines "resident set" for
the RS migration strategy.
"""

from collections import OrderedDict

# A frame's key packs (space id, page index) into one int: a page index
# is below SPACE_PAGES (2**23), so 32 bits hold it.  One int per frame
# costs far less than a tuple of two.
_SHIFT = 32
_INDEX_MASK = (1 << _SHIFT) - 1


class OutOfFrames(Exception):
    """Raised when a frame is needed and no victim can be chosen."""


class PhysicalMemory:
    """A pool of page frames identified by (address-space id, page index).

    One LRU order spans every space on the host, because the resident
    set's recency is defined across spaces.  Methods take the space id
    and page index as two arguments; victims and :meth:`resident_keys`
    are ``(space_id, page_index)`` pairs.
    """

    def __init__(self, frame_count):
        if frame_count <= 0:
            raise ValueError(f"frame_count must be positive, got {frame_count}")
        self.frame_count = frame_count
        # packed key -> None; ordering is LRU (oldest first).
        self._lru = OrderedDict()

    def __repr__(self):
        return f"<PhysicalMemory {len(self._lru)}/{self.frame_count} frames>"

    def __contains__(self, pair):
        space_id, page_index = pair
        return (space_id << _SHIFT | page_index) in self._lru

    @property
    def used(self):
        """Number of frames currently occupied."""
        return len(self._lru)

    @property
    def free(self):
        """Number of unoccupied frames."""
        return self.frame_count - len(self._lru)

    def touch(self, space_id, page_index):
        """Record a reference, moving the page to most-recently-used."""
        try:
            self._lru.move_to_end(space_id << _SHIFT | page_index)
        except KeyError:
            raise KeyError(f"{(space_id, page_index)!r} is not resident") from None

    def allocate(self, space_id, page_index):
        """Claim a frame for a page; returns the evicted
        ``(space_id, page_index)`` or ``None``.

        The caller is responsible for paging the victim's contents out
        (the pager charges the disk-write time).
        """
        victims = self.claim(space_id, (page_index,))
        return victims[0] if victims else None

    def claim(self, space_id, page_indices):
        """Claim a frame for each page, in order; returns the evicted
        ``(space_id, page_index)`` pairs in eviction order.

        A page that already holds a frame is refreshed to
        most-recently-used instead.  The caller is responsible for
        paging the victims' contents out.
        """
        base = space_id << _SHIFT
        lru = self._lru
        frame_count = self.frame_count
        victims = []
        for index in page_indices:
            key = base | index
            if key in lru:
                lru.move_to_end(key)
                continue
            if len(lru) >= frame_count:
                try:
                    packed, _ = lru.popitem(last=False)
                except KeyError:  # pragma: no cover - frame_count > 0
                    raise OutOfFrames("no frames and no victims") from None
                victims.append((packed >> _SHIFT, packed & _INDEX_MASK))
            lru[key] = None
        return victims

    def evict(self, space_id, page_index):
        """Explicitly release the frame held by a page (if any)."""
        self._lru.pop(space_id << _SHIFT | page_index, None)

    def release_space(self, space_id, page_indices):
        """Release the frames ``page_indices`` of one address space hold.

        The cost is the indices given, not the host's frames; the
        kernel passes the space's page table (every frame belongs to a
        real page).  Returns the frames released.
        """
        base = space_id << _SHIFT
        lru = self._lru
        released = 0
        for index in page_indices:
            key = base | index
            if key in lru:
                del lru[key]
                released += 1
        return released

    def resident_keys(self, space_id=None):
        """``(space_id, page_index)`` of resident frames, LRU-oldest first."""
        pairs = [(key >> _SHIFT, key & _INDEX_MASK) for key in self._lru]
        if space_id is None:
            return pairs
        return [pair for pair in pairs if pair[0] == space_id]

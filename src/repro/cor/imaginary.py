"""Imaginary segments: memory owed through an IPC port."""

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import MutableMapping, MutableSet
from itertools import compress, count, repeat
from operator import is_not

_segment_ids = count(1)


class ImaginaryHandle:
    """What a receiver holds: enough to route page requests.

    Stored as the region-table value of the memory it owes and inside
    :class:`~repro.accent.ipc.message.IOUSection`; the pager addresses
    Imaginary Read Requests to ``backing_port`` tagged with
    ``segment_id``.
    """

    __slots__ = ("segment_id", "backing_port", "trace_id", "content_ids")

    def __init__(self, segment_id, backing_port, trace_id=None,
                 content_ids=None):
        self.segment_id = segment_id
        self.backing_port = backing_port
        #: The causal trace (migration) that owes these pages; residual
        #: fault spans carry it so they stitch back into that trace.
        self.trace_id = trace_id
        #: page index -> content id for the owed pages, when the world
        #: runs a content store (None otherwise).  Lets the receiver's
        #: resolver service faults from *any* holder of the contents,
        #: not just the backing port.
        self.content_ids = content_ids

    def __repr__(self):
        return f"<ImaginaryHandle seg={self.segment_id} via={self.backing_port!r}>"


class PageStash(MutableMapping):
    """A segment's pages by position in its sorted page indices.

    One ``array('I')`` of indices and one list of pages replace a dict
    keyed by an int object per page; a lookup is a bisection.  The
    index set is fixed when the segment is made: a page may be replaced
    or deleted, not added.  Iteration ascends.
    """

    __slots__ = ("indices", "_pages", "_count")

    def __init__(self, pages):
        #: Every page index the segment was made with, ascending.
        self.indices = array("I", sorted(pages))
        self._pages = list(map(pages.__getitem__, self.indices))
        self._count = len(self._pages)

    def position(self, index):
        """Where ``index`` sits in :attr:`indices` (-1: nowhere)."""
        position = bisect_left(self.indices, index)
        if position < len(self.indices) and self.indices[position] == index:
            return position
        return -1

    def get(self, index, default=None):
        position = self.position(index)
        page = self._pages[position] if position >= 0 else None
        return default if page is None else page

    def __getitem__(self, index):
        page = self.get(index)
        if page is None:
            raise KeyError(index)
        return page

    def __contains__(self, index):
        return self.get(index) is not None

    def __setitem__(self, index, page):
        position = self.position(index)
        if position < 0:
            raise KeyError(f"page {index} is not part of this segment")
        if self._pages[position] is None:
            self._count += 1
        self._pages[position] = page

    def __delitem__(self, index):
        self[index]  # KeyError for a page not held
        self._pages[self.position(index)] = None
        self._count -= 1

    def __iter__(self):
        return compress(self.indices, map(is_not, self._pages, repeat(None)))

    def __len__(self):
        return self._count

    def clear(self):
        self._pages = [None] * len(self._pages)
        self._count = 0


class OwedPages(MutableSet):
    """The pages of a segment not yet delivered: one flag byte per
    page, by position in the segment's sorted indices."""

    __slots__ = ("_stash", "_flags", "_count")

    def __init__(self, stash):
        self._stash = stash
        self._flags = bytearray(b"\x01") * len(stash.indices)
        self._count = len(stash.indices)

    @classmethod
    def _from_iterable(cls, iterable):
        return set(iterable)

    def __contains__(self, index):
        position = self._stash.position(index)
        return position >= 0 and self._flags[position] == 1

    def __iter__(self):
        return compress(self._stash.indices, self._flags)

    def __len__(self):
        return self._count

    def take_above(self, index, count):
        """Up to ``count`` owed indices above ``index``, ascending, each
        no longer owed."""
        indices = self._stash.indices
        flags = self._flags
        taken = []
        position = flags.find(1, bisect_right(indices, index))
        while position >= 0 and len(taken) < count:
            flags[position] = 0
            taken.append(indices[position])
            position = flags.find(1, position + 1)
        self._count -= len(taken)
        return taken

    def add(self, index):
        position = self._stash.position(index)
        if position < 0:
            raise KeyError(f"page {index} is not part of this segment")
        if not self._flags[position]:
            self._flags[position] = 1
            self._count += 1

    def discard(self, index):
        position = self._stash.position(index)
        if position >= 0 and self._flags[position]:
            self._flags[position] = 0
            self._count -= 1

    def clear(self):
        self._flags = bytearray(len(self._flags))
        self._count = 0


class ImaginarySegment:
    """The backer-side object: a stash of pages promised to a receiver.

    ``owed`` tracks pages not yet delivered; prefetch selection draws
    from it in ascending page order ("nearby contiguous pages", §4).
    Delivery is idempotent — a page may be re-requested if a demand
    fault raced with a prefetched delivery still in flight.
    """

    def __init__(self, backing_port, pages, segment_id=None, label=None,
                 trace_ctx=None):
        self.segment_id = segment_id if segment_id is not None else next(_segment_ids)
        self.backing_port = backing_port
        self.label = label or f"imag-{self.segment_id}"
        #: Causal context of the shipment that created this segment
        #: (None when untraced); propagated through :attr:`handle`.
        self.trace_ctx = trace_ctx
        #: page index -> Page (the cached data; mapped, not copied).
        self.stash = PageStash(pages)
        self.owed = OwedPages(self.stash)
        self.requests = 0
        self.pages_delivered = 0
        self.dead = False
        #: Per-region prefetch window stamped by an adaptive transfer
        #: plan (None = no plan override); the backer widens batched
        #: replies to at least this many pages.
        self.window = None
        #: Simulated times bracketing the residual-dependency window:
        #: stamped by the BackingServer at creation and when the last
        #: owed page drains (demand fault, prefetch, or flusher push).
        self.created_at = None
        self.drained_at = None
        #: page index -> content id, stamped at creation when the host
        #: runs a content store (None otherwise); travels on handles.
        self.content_ids = None

    def __repr__(self):
        return (
            f"<ImaginarySegment {self.label} owed={len(self.owed)}"
            f"/{len(self.stash)}>"
        )

    @property
    def handle(self):
        ctx = self.trace_ctx
        return ImaginaryHandle(
            self.segment_id, self.backing_port,
            trace_id=ctx.trace_id if ctx is not None else None,
            content_ids=self.content_ids,
        )

    @property
    def fully_delivered(self):
        return not self.owed

    def take_batch(self, indices, window=0):
        """Pages for one Imaginary Read Request, single-page or batched.

        Returns a dict with every demanded page, topped up to
        ``window`` total pages with still-owed pages at the nearest
        higher indices than the lowest demanded page — the paper's
        "additional contiguous page(s)" policy (§4), generalised from
        one demanded page to a batch.  The dict lists the demanded
        pages first, then the top-up, each ascending.  Counts as a
        single request.  Raises KeyError if any demanded page was never
        part of the segment.
        """
        demanded = sorted(set(indices))
        stash = self.stash
        pages = list(map(stash.get, demanded))
        if None in pages:
            raise KeyError(
                f"page {demanded[pages.index(None)]} is not part of "
                f"segment {self.segment_id}"
            )
        self.requests += 1
        result = dict(zip(demanded, pages))
        owed = self.owed
        for index in demanded:
            owed.discard(index)
        fill = window - len(result)
        if fill > 0 and demanded:
            for candidate in owed.take_above(demanded[0], fill):
                result[candidate] = stash[candidate]
        self.pages_delivered += len(result)
        return result

    def die(self):
        """Imaginary Segment Death: all references are gone (§2.2)."""
        self.dead = True
        self.stash.clear()
        self.owed.clear()

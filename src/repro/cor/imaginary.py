"""Imaginary segments: memory owed through an IPC port."""

import bisect
from itertools import count, islice

_segment_ids = count(1)


class ImaginaryHandle:
    """What a receiver holds: enough to route page requests.

    Stored as the ``handle`` of an
    :class:`~repro.accent.vm.address_space.ImaginaryMapping` and inside
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
        self.stash = dict(pages)
        self._sorted_indices = sorted(self.stash)
        self.owed = set(self.stash)
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
        for index in demanded:
            if index not in self.stash:
                raise KeyError(
                    f"page {index} is not part of segment {self.segment_id}"
                )
        self.requests += 1
        result = {}
        for index in demanded:
            result[index] = self.stash[index]
            self.owed.discard(index)
        fill = window - len(result)
        if fill > 0 and demanded:
            ordered = self._sorted_indices
            owed = self.owed
            position = bisect.bisect_right(ordered, demanded[0])
            # Walk the sorted indices in place: no copy of the tail.
            for candidate in islice(ordered, position, None):
                if candidate in owed:
                    result[candidate] = self.stash[candidate]
                    owed.discard(candidate)
                    fill -= 1
                    if not fill:
                        break
        self.pages_delivered += len(result)
        return result

    def die(self):
        """Imaginary Segment Death: all references are gone (§2.2)."""
        self.dead = True
        self.stash.clear()
        self.owed.clear()

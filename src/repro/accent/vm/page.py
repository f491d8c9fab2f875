"""Reference-counted page frames with real contents.

Pages carry actual bytes so that the migration pipeline can be verified
end-to-end: after a copy-on-reference migration, the destination process
must observe exactly the bytes the source process wrote.  Sharing with a
reference count implements Accent's copy-on-write message transfer.
"""

import hashlib

from repro.accent.constants import PAGE_SIZE

_ZERO = bytes(PAGE_SIZE)

#: Bytes of a page content id (the content-addressed store's key).
CONTENT_ID_BYTES = 16


def content_id_of(data):
    """The content id of ``data``: a 16-byte blake2b digest.

    Content ids name page *bytes*, not page locations — two pages with
    equal contents (fork siblings, zero pages, shared code) share one
    id, which is what lets the cluster store dedup them on the wire and
    serve them from any holder (docs/content-store.md).
    """
    return hashlib.blake2b(data, digest_size=CONTENT_ID_BYTES).digest()


#: The (precomputed) content id of an all-zero page.
ZERO_CONTENT_ID = content_id_of(_ZERO)


class Page:
    """One 512-byte page of data, shareable copy-on-write."""

    __slots__ = ("_data", "refs")

    def __init__(self, data=_ZERO):
        # A full page of immutable bytes is kept as it is: no padding,
        # no copy.  Anything shorter is zero-padded.
        if len(data) != PAGE_SIZE or type(data) is not bytes:
            if len(data) > PAGE_SIZE:
                raise ValueError(
                    f"page data of {len(data)} bytes exceeds {PAGE_SIZE}"
                )
            data = bytes(data) + _ZERO[len(data):]
        self._data = data
        self.refs = 1

    def __repr__(self):
        return f"<Page refs={self.refs} head={self._data[:8].hex()}>"

    @property
    def data(self):
        """The page contents (immutable bytes)."""
        return self._data

    @property
    def content_id(self):
        """Content id of the current bytes (never cached: ``write``
        mutates ``_data`` in place when the page is unshared)."""
        return content_id_of(self._data)

    @property
    def shared(self):
        """True when more than one mapping references this frame."""
        return self.refs > 1

    def share(self):
        """Add a reference (copy-on-write mapping) and return self."""
        self.refs += 1
        return self

    def release(self):
        """Drop a reference."""
        if self.refs <= 0:
            raise ValueError("release of page with no references")
        self.refs -= 1

    def write(self, offset, data):
        """Write ``data`` at ``offset``; returns the page to keep using.

        If the page is shared, the deferred copy is performed first
        (copy-on-write) and the private copy is returned — the caller
        must replace its mapping with the returned page.
        """
        if offset < 0 or offset + len(data) > PAGE_SIZE:
            raise ValueError(
                f"write of {len(data)} bytes at offset {offset} exceeds page"
            )
        return self.replace(
            self._data[:offset] + bytes(data) + self._data[offset + len(data):]
        )

    def replace(self, data):
        """Make ``data`` (a full page of immutable bytes) the contents;
        returns the page to keep using, copy-on-write as :meth:`write`."""
        if self.shared:
            self.refs -= 1
            return Page(data)
        self._data = data
        return self

    def fork_copy(self):
        """An independent deep copy (used by physical shipment)."""
        return Page(self._data)

    @staticmethod
    def zero():
        """A fresh zero-filled page (FillZero fault result)."""
        return Page()

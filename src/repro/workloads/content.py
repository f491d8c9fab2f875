"""Deterministic page contents.

Every real page of every workload carries reproducible bytes derived
from its identity, so the destination process can verify — page by page
— that migration delivered exactly the data the source held.  This is
the end-to-end correctness check of the copy-on-reference pipeline.
"""

import hashlib
from collections import defaultdict

from repro.accent.constants import PAGE_SIZE

_DIGEST_BYTES = 32
_REPEATS = PAGE_SIZE // _DIGEST_BYTES

# Both functions are pure in (workload_name, page_index) and the results
# are immutable bytes, so they memoise safely.  Job verification hashes
# the same heads once per trace step — caching turns the dominant
# sha256 cost into a dict hit.  The memo is process-wide and bounded by
# the workload catalogue (every key is a page of a catalogued layout),
# so worlds built one after another re-use it rather than re-hash.  It
# maps workload name -> {page index: bytes}: one inner dict per workload
# spares a (name, index) tuple per page.
_HEADS = defaultdict(dict)
_PAYLOADS = defaultdict(dict)


def page_payload(workload_name, page_index):
    """The full 512-byte content of one page."""
    payloads = _PAYLOADS[workload_name]
    payload = payloads.get(page_index)
    if payload is None:
        payload = payloads[page_index] = (
            page_head(workload_name, page_index) * _REPEATS
        )
    return payload


def payload_image(workload_name, page_indices):
    """The memo of ``workload_name``'s payloads (page index -> bytes),
    holding :func:`page_payload` of every index in ``page_indices``.

    A built space reads each unwritten page's bytes there (its
    ``image``) instead of keeping a ``Page`` per page.
    """
    payloads = _PAYLOADS[workload_name]
    if not all(map(payloads.__contains__, page_indices)):
        # A layout not seen before in this process.
        for index in page_indices:
            page_payload(workload_name, index)
    return payloads


def page_head(workload_name, page_index):
    """The leading 32 bytes (enough to verify identity cheaply)."""
    heads = _HEADS[workload_name]
    head = heads.get(page_index)
    if head is None:
        material = f"{workload_name}:{page_index}".encode("utf-8")
        head = heads[page_index] = hashlib.sha256(material).digest()
    return head


#: Marker bytes a remote write stamps at the start of a written page.
WRITE_MARKER = b"remote-write-marker/"

_ZERO = bytes(PAGE_SIZE)
_WRITTEN_ZERO = WRITE_MARKER + _ZERO[len(WRITE_MARKER):]


def written_head(workload_name, page_index):
    """Expected head after the remote body wrote its marker."""
    head = page_head(workload_name, page_index)
    return WRITE_MARKER + head[len(WRITE_MARKER):]


class WrittenPages:
    """One world's stamped page contents, by workload and page index.

    A page that holds its workload payload always stamps to the same
    512 bytes, so every such page of the world shares one ``bytes``
    object instead of a private copy per write (a written zero page is
    one constant).  The table belongs to a world, not to the process: a
    process-wide one would keep every finished world's stamped pages
    alive.
    """

    __slots__ = ("_pages",)

    def __init__(self):
        # workload name -> {page index: stamped bytes}
        self._pages = defaultdict(dict)

    def stamp(self, workload_name, page_index, data):
        """The contents of a page holding ``data`` once the marker is
        written over its start; the shared object wherever one exists."""
        if data.startswith(WRITE_MARKER):
            return data  # stamping is idempotent: the bytes stay as they are
        if data == _ZERO:
            return _WRITTEN_ZERO
        if data != page_payload(workload_name, page_index):
            return WRITE_MARKER + data[len(WRITE_MARKER):]
        pages = self._pages[workload_name]
        written = pages.get(page_index)
        if written is None:
            written = pages[page_index] = WRITE_MARKER + data[len(WRITE_MARKER):]
        return written

"""The local paging disk.

One disk arm per host (a :class:`~repro.sim.Resource` of capacity 1) plus
a page store.  Page-outs for imaginary data go to the local disk at the
site that touched the page (paper §2.2), so both hosts have one.

An image is a :class:`~repro.accent.vm.page.Page` or, for a page that
holds its space's image bytes (``AddressSpace.disk_image``), those
bytes alone; a read hands back a ``Page`` either way, so an unmodified
build-time page costs the disk no ``Page`` while it sits there.
"""

from repro.accent.vm.page import Page
from repro.sim import Resource


class PagingDisk:
    """Per-host backing store for paged-out memory."""

    def __init__(self, engine, calibration, name="disk"):
        self.engine = engine
        self.calibration = calibration
        self.name = name
        self.arm = Resource(engine, capacity=1, name=f"{name}-arm")
        #: space_id -> {page_index: Page or bytes}: one inner dict per
        #: space, so an image costs no tuple key and a space drops in
        #: one pop.
        self._store = {}
        self.reads = 0
        self.writes = 0

    def __repr__(self):
        pages = sum(len(images) for images in self._store.values())
        return f"<PagingDisk {self.name} pages={pages}>"

    def store_instant(self, space_id, page_index, page):
        """Place a page image on disk without simulated time (builder path).

        Pre-migration state construction uses this to position each
        workload's non-resident pages; the disk time for having written
        them happened before the measurement interval begins.
        """
        self._store.setdefault(space_id, {})[page_index] = page

    def store_images(self, space_id, images):
        """Place a space's images on disk in one call, without simulated
        time (builder path, as :meth:`store_instant`).  ``images`` maps
        page index to image or is an iterable of ``(index, image)``
        pairs."""
        store = self._store.get(space_id, {})
        store.update(images)
        if store:
            self._store[space_id] = store

    def holds(self, space_id, page_index):
        """Whether a page image is on this disk."""
        return page_index in self._store.get(space_id, ())

    def read(self, space_id, page_index):
        """Generator: read a page, charging disk service time; returns
        a :class:`Page` (a fresh one around an image kept as bytes)."""
        with self.arm.held() as req:
            yield req
            yield self.engine.timeout(self.calibration.disk_service_s)
        self.reads += 1
        try:
            image = self._store[space_id][page_index]
        except KeyError:
            raise DiskError(
                f"no page image for space {space_id} page {page_index}"
            ) from None
        return Page(image) if type(image) is bytes else image

    def write(self, space_id, page_index, page):
        """Generator: write a page image out, charging disk service time."""
        with self.arm.held() as req:
            yield req
            yield self.engine.timeout(self.calibration.disk_service_s)
        self.writes += 1
        self.store_instant(space_id, page_index, page)

    def drop_space(self, space_id):
        """Discard all page images of one address space."""
        return len(self._store.pop(space_id, ()))


class DiskError(Exception):
    """Read of a page image that is not on this disk."""

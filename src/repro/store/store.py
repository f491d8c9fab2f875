"""Per-host content stores and the cluster directory.

A :class:`ContentStore` is one host's cache of page *contents* keyed by
content id; it is volatile (a crash empties it).  The
:class:`StoreDirectory` is the world-level view of who holds what —
the idealised equivalent of the port registry: in the real system it
would be a gossip/DHT layer, here it is exact shared knowledge, which
is the right abstraction level for a discrete-event model (the
*protocol* consequences of a stale entry — a miss reply, a crashed
holder — are still simulated through the fallback chain).
"""

from repro.accent.vm.page import Page, ZERO_CONTENT_ID

#: Zero-filled bytes, pre-seeded in every store under ZERO_CONTENT_ID.
_ZERO_DATA = bytes(Page.zero().data)


class ContentStore:
    """One host's content-addressed page cache.

    Stores immutable page bytes under their content id.  Every store is
    pre-seeded with the zero page, so all-zero pages dedup on the wire
    from the first shipment and FillZero-equivalent contents are always
    a local hit.
    """

    def __init__(self, host, directory):
        self.host = host
        self.directory = directory
        #: content id -> immutable page bytes.
        self._contents = {ZERO_CONTENT_ID: _ZERO_DATA}
        directory.add_holder(ZERO_CONTENT_ID, host.name)

    def __repr__(self):
        return f"<ContentStore {self.host.name} entries={len(self._contents)}>"

    def __len__(self):
        return len(self._contents)

    def has(self, content_id):
        """True when this host holds the bytes for ``content_id``."""
        return content_id in self._contents

    def put(self, content_id, data):
        """Register page bytes under their id (idempotent).

        Also records this host as a holder in the directory, so remote
        resolvers can route faults here.
        """
        if content_id not in self._contents:
            self._contents[content_id] = bytes(data)
        self.directory.add_holder(content_id, self.host.name)

    def put_page(self, page):
        """Register one :class:`Page`'s current bytes; returns its id."""
        content_id = page.content_id
        self.put(content_id, page.data)
        return content_id

    def get_page(self, content_id):
        """A fresh :class:`Page` holding the stored bytes (KeyError if
        absent).  Always a new frame — the store's copy is never
        aliased into an address space, so later writes cannot corrupt
        the cache."""
        return Page(self._contents[content_id])

    def clear(self):
        """Drop everything (crash path): contents are volatile."""
        self._contents = {ZERO_CONTENT_ID: _ZERO_DATA}
        self.directory.drop_holder(self.host.name)
        self.directory.add_holder(ZERO_CONTENT_ID, self.host.name)


class StoreDirectory:
    """Cluster-wide map of content id -> holding hosts.

    Host distance is the absolute difference of the hosts' creation
    indices — a linear-rack stand-in for real topology that is exact,
    cheap, and deterministic; nearest-source selection orders
    candidates by ``(distance, host name)``.
    """

    def __init__(self, hosts):
        #: name -> Host, in creation order (dicts preserve it).
        self.hosts = dict(hosts)
        self._index = {name: i for i, name in enumerate(self.hosts)}
        #: content id -> set of holder host names.
        self._holders = {}
        #: host name -> StoreServer request port.
        self.server_ports = {}

    def __repr__(self):
        return (
            f"<StoreDirectory hosts={len(self.hosts)} "
            f"ids={len(self._holders)}>"
        )

    def register_server(self, host_name, port):
        """Record the host's StoreServer request port for resolvers."""
        self.server_ports[host_name] = port

    def add_holder(self, content_id, host_name):
        """Record that ``host_name`` now holds ``content_id``."""
        self._holders.setdefault(content_id, set()).add(host_name)

    def drop_holder(self, host_name):
        """Forget every entry naming ``host_name`` (crash path)."""
        for holders in self._holders.values():
            holders.discard(host_name)

    def holders(self, content_id):
        """Holder host names for ``content_id`` (may be empty)."""
        return self._holders.get(content_id, ())

    def distance(self, a, b):
        """Linear-rack distance between two host names."""
        return abs(self._index[a] - self._index[b])

    def nearest_holders(self, from_host, content_ids, exclude=()):
        """Live host names holding *all* of ``content_ids``, nearest
        first (ties broken by name for determinism)."""
        common = None
        for content_id in content_ids:
            holders = self._holders.get(content_id)
            if not holders:
                return []
            common = set(holders) if common is None else common & holders
            if not common:
                return []
        if common is None:
            return []
        candidates = [
            name for name in common
            if name != from_host
            and name not in exclude
            and not self.hosts[name].crashed
        ]
        candidates.sort(key=lambda name: (self.distance(from_host, name), name))
        return candidates

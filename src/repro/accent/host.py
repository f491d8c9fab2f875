"""One simulated machine of the testbed."""

from repro.accent.disk import PagingDisk
from repro.accent.kernel import Kernel
from repro.accent.pager import Pager
from repro.accent.vm.physical import PhysicalMemory
from repro.sim import Resource
from repro.store.source import PageResolver


class Host:
    """A Perq workstation: kernel, pager, disk, frames, and (once the
    network layer attaches one) a NetMsgServer."""

    def __init__(self, engine, name, calibration, registry, metrics,
                 written_pages):
        self.engine = engine
        self.name = name
        self.calibration = calibration
        self.registry = registry
        self.metrics = metrics
        #: The world's shared stamped page contents
        #: (:class:`~repro.workloads.content.WrittenPages`).
        self.written_pages = written_pages
        self.physical = PhysicalMemory(calibration.frame_count)
        self.disk = PagingDisk(engine, calibration, name=f"{name}-disk")
        #: The user-level CPU: workload compute slices contend here, so
        #: co-located processes genuinely slow one another down (the
        #: premise of the §6 automatic-migration experiments).
        self.cpu = Resource(engine, capacity=1, name=f"{name}-cpu")
        self._spaces = {}
        #: Attached by repro.net when the host joins a network.
        self.nms = None
        #: True while a fault-plan crash has this machine down; a
        #: crashed host neither sends nor receives fragments.
        self.crashed = False
        #: The world's FaultInjector, when one is attached (the pager
        #: only arms its reply deadline in fault-injected worlds).
        self.fault_injector = None
        #: The residual-dependency flusher daemon, when enabled.
        self.flusher = None
        #: This host's content-addressed page cache, attached by
        #: ``TestbedWorld.enable_store`` (None = store off).
        self.store = None
        #: The unified page-source resolver — *every* page fetch on
        #: this host routes through it; origin-only until a store
        #: directory is attached.
        self.resolver = PageResolver(self)
        self.pager = Pager(self)
        self.kernel = Kernel(self)

    def __repr__(self):
        state = " CRASHED" if self.crashed else ""
        # A closed host (see :meth:`close`) has no kernel left to count.
        count = "-" if self.kernel is None else len(self.kernel.processes)
        return f"<Host {self.name}{state} processes={count}>"

    # -- fault injection -----------------------------------------------------------
    def crash(self):
        """Take the machine down: all its traffic drops from now on."""
        self.crashed = True
        # The content cache is volatile memory: a crash empties it and
        # withdraws this host from the store directory, so resolvers
        # stop routing faults here.
        if self.store is not None:
            self.store.clear()

    def recover(self):
        """Bring the machine back (volatile state was already lost)."""
        self.crashed = False

    def close(self):
        """Let go of the machine's parts once its world has ended.

        The kernel, pager, resolver, NetMsgServer and the rest each hold
        this host, so while it holds them every one of them is in a
        reference cycle.  Afterwards the host keeps its name, its
        calibration and its memory accounting, and whatever still holds
        it (a job's last host, say) reads those.
        """
        self.kernel = self.pager = self.resolver = self.nms = None
        self.store = self.flusher = self.fault_injector = None
        self.registry = None
        self._spaces.clear()

    # -- address-space registry --------------------------------------------------
    def register_space(self, space):
        """Track an address space so eviction can resolve its pages."""
        self._spaces[space.space_id] = space

    def unregister_space(self, space):
        """Forget a destroyed or excised address space."""
        self._spaces.pop(space.space_id, None)

    def space_by_id(self, space_id):
        """The registered space with this id (KeyError if unknown)."""
        return self._spaces[space_id]

    # -- conveniences --------------------------------------------------------------
    def create_port(self, name=None, backlog=None):
        """Allocate a port homed at this host."""
        return self.registry.create(self, name=name, backlog=backlog)

"""The declarative transfer-plan layer of the strategy API.

A :class:`~repro.migration.strategy.Strategy` no longer mutates the
RIMAS message imperatively; it *describes* what should happen to each
region as a :class:`TransferPlan` — a list of :class:`RegionDecision`
rows ("ship these pages physically", "pass those as IOUs with a
4-page prefetch window") — and the :class:`MigrationManager` executes
the plan.  Separating decision from mechanism is what lets the
``adaptive`` strategy pick per-region treatment from workload touch
statistics, and what lets the manager charge carve costs, stamp
per-region prefetch windows into IOU segments, and pipeline the
context shipment without every strategy reimplementing the mechanics.

:class:`TransferOptions` is the single options record the public entry
points (``Testbed.migrate``/``migrate_precopy``/``migrate_chain``, the
CLI's ``--prefetch/--batch/--pipeline`` flags, the stress harness and
the load balancer) all share; see docs/transfer-plans.md.  Each takes
it as ``options=`` (an instance or a dict), and an explicit
``strategy=`` argument, where one is taken, overrides its strategy.
"""

from dataclasses import dataclass, replace

from repro.accent.ipc.message import RegionSection

#: RegionDecision actions.
SHIP = "ship"
IOU = "iou"


@dataclass(frozen=True)
class TransferOptions:
    """Uniform transfer knobs accepted by every migration entry point.

    ``strategy``
        Strategy name (or instance) deciding per-region treatment.
    ``prefetch``
        Backer-side knob: extra contiguous pages returned per
        single-page Imaginary Read Request (the paper's 0/1/3/7/15).
    ``batch``
        Requester-side window: pages targeted per batched Imaginary
        Read Request.  ``1`` keeps the pre-batching per-page fault
        path, timing-identical to the original protocol.
    ``pipeline``
        Reply/shipment pipeline depth: how many reply parts a backer
        streams per batched request, and whether the Core and RIMAS
        context messages ship concurrently.  ``1`` keeps the serial
        whole-message behaviour.
    ``store``
        Enable the cluster content-addressed page store: per-host
        content caches, multi-source imaginary-fault service through
        the PageSource resolver, and content ids on IOUs.  ``False``
        keeps every trial byte-identical to the pre-store protocol.
    ``dedup``
        Additionally dedup pages on the wire: shipments replace pages
        the destination already holds with content references.
        Implies the store.
    """

    strategy: object = "pure-iou"
    prefetch: int = 0
    batch: int = 1
    pipeline: int = 1
    store: bool = False
    dedup: bool = False

    def __post_init__(self):
        if self.prefetch < 0:
            raise ValueError(f"prefetch must be >= 0, got {self.prefetch}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.pipeline < 1:
            raise ValueError(f"pipeline must be >= 1, got {self.pipeline}")

    @property
    def batched(self):
        """True when the batched/pipelined residual-fault path engages."""
        return self.batch > 1 or self.pipeline > 1

    @property
    def store_enabled(self):
        """True when the content store engages (dedup implies store)."""
        return self.store or self.dedup

    @classmethod
    def coerce(cls, options=None):
        """Normalise ``options`` into a :class:`TransferOptions`.

        ``None`` gives the defaults, an instance is returned as is and
        a dict supplies keyword arguments.  Entry points that also take
        a ``strategy`` apply it afterwards with :meth:`with_strategy`,
        so an explicit strategy always wins over the options' field.
        """
        if options is None:
            return cls()
        if isinstance(options, cls):
            return options
        if isinstance(options, dict):
            return cls(**options)
        raise TypeError(
            f"options must be TransferOptions, dict or None, "
            f"got {type(options).__name__}"
        )

    def with_strategy(self, strategy):
        """A copy of these options under a different strategy."""
        return replace(self, strategy=strategy)


class RegionDecision:
    """One row of a transfer plan: what to do with a set of pages.

    ``action`` is :data:`SHIP` (transmit physically at migration time)
    or :data:`IOU` (leave the pages owed; they travel later on demand,
    by flusher push, or inside a prefetch window).  ``indices`` names
    the page subset this row governs; ``None`` means "every region
    page not claimed by an earlier row" — at most one such default row
    is allowed per plan.  ``prefetch_window`` (IOU rows only) is the
    per-region page window the backer targets when a batched fault
    lands in this region, overriding the requester's window when
    larger.
    """

    def __init__(self, action, indices=None, label=None,
                 prefetch_window=None):
        if action not in (SHIP, IOU):
            raise ValueError(f"action must be {SHIP!r} or {IOU!r}, got {action!r}")
        if prefetch_window is not None:
            if action is not IOU and action != IOU:
                raise ValueError("prefetch_window only applies to IOU rows")
            if prefetch_window < 1:
                raise ValueError(
                    f"prefetch_window must be >= 1, got {prefetch_window}"
                )
        self.action = action
        self.indices = None if indices is None else frozenset(indices)
        self.label = label
        self.prefetch_window = prefetch_window

    def __repr__(self):
        count = "rest" if self.indices is None else len(self.indices)
        return (
            f"<RegionDecision {self.action} pages={count} "
            f"label={self.label!r}>"
        )


class TransferPlan:
    """A declarative description of one context transfer.

    ``decisions`` partition the RIMAS region's pages into SHIP/IOU
    subsets (empty for the uniform strategies, which only set
    ``no_ious``).  ``no_ious`` maps onto the message's NoIOUs bit:
    True forces physical shipment of everything, False requests IOU
    caching, None leaves the bit untouched.  ``carve`` charges the
    resident-set carve cost (proportional to the owed remainder) when
    the plan splits a region — the fragmentation penalty of §4.2.2.
    """

    def __init__(self, decisions=(), no_ious=None, carve=False):
        self.decisions = list(decisions)
        defaults = [d for d in self.decisions if d.indices is None]
        if len(defaults) > 1:
            raise ValueError("a plan may carry at most one default decision")
        self.no_ious = no_ious
        self.carve = carve

    def __repr__(self):
        return (
            f"<TransferPlan decisions={len(self.decisions)} "
            f"no_ious={self.no_ious} carve={self.carve}>"
        )

    def execute(self, manager, rimas):
        """Generator: apply this plan to the RIMAS message.

        Event-for-event compatible with the imperative ``prepare``
        path it replaces: uniform plans yield nothing; splitting plans
        yield exactly one carve timeout before splicing the region
        section, so ``batch=1, pipeline=1`` trials replay the original
        timings bit for bit.
        """
        if self.no_ious is not None:
            rimas.no_ious = self.no_ious
        if not self.decisions:
            return
        position = None
        region = None
        for index, section in enumerate(rimas.sections):
            if isinstance(section, RegionSection):
                position = index
                region = section
                break
        if region is None:
            return

        claimed = set()
        assignments = []  # (decision, pages dict) in decision order
        default_row = None
        for decision in self.decisions:
            if decision.indices is None:
                default_row = decision
                assignments.append((decision, None))
                continue
            pages = {
                i: p for i, p in region.pages.items()
                if i in decision.indices and i not in claimed
            }
            claimed.update(pages)
            assignments.append((decision, pages))
        remainder = {
            i: p for i, p in region.pages.items() if i not in claimed
        }
        if default_row is None and remainder:
            # Unclaimed pages default to IOU shipment, matching the
            # split strategies' "everything else is owed" semantics.
            default_row = RegionDecision(IOU, label="plan-owed")
            assignments.append((default_row, remainder))

        owed_count = 0
        replacement = []
        for decision, pages in assignments:
            if pages is None:
                pages = remainder
            if not pages:
                continue
            section = RegionSection(
                pages,
                force_copy=decision.action == SHIP,
                label=decision.label or f"plan-{decision.action}",
            )
            if decision.action == IOU:
                owed_count += len(pages)
                section.transfer_window = decision.prefetch_window
            replacement.append(section)

        if self.carve:
            # Carving scattered shipped pages out of the collapsed
            # chunk fragments the remainder; the cost scales with the
            # owed pages (Table 4-5's anomalous Lisp rows).
            yield manager.engine.timeout(
                owed_count * manager.host.calibration.rs_carve_per_owed_page_s
            )
        rimas.sections[position:position + 1] = replacement


class PlanContext:
    """Everything a strategy may consult while planning a transfer.

    Wraps the manager, the excised RIMAS message, and the trial's
    :class:`TransferOptions`; exposes the touch statistics the kernel
    stamped into the RIMAS meta at excision so strategies can reason
    about the workload without reaching into kernel state.
    """

    def __init__(self, manager, rimas, options=None):
        self.manager = manager
        self.rimas = rimas
        self.options = options if options is not None else TransferOptions()

    @property
    def calibration(self):
        """The source host's cost table."""
        return self.manager.host.calibration

    @property
    def engine(self):
        """The simulation engine (for ``now``)."""
        return self.manager.engine

    @property
    def meta(self):
        """The RIMAS meta dict (resident set, touch times, excise time)."""
        return self.rimas.meta

    @property
    def region(self):
        """The first real-memory section of the RIMAS, or None."""
        return self.rimas.first_section(RegionSection)

    @property
    def page_indices(self):
        """All page indices of the RIMAS region (empty if none)."""
        region = self.region
        return set(region.pages) if region is not None else set()

    @property
    def resident_indices(self):
        """Pages resident in physical memory at excision time."""
        return set(self.meta.get("resident_indices", ()))

    @property
    def last_touch(self):
        """page index -> last reference time (None if never touched)."""
        return self.meta.get("last_touch", {})

    @property
    def excised_at(self):
        """Simulated time of the excision."""
        return self.meta.get("excised_at", self.engine.now)

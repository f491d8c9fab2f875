"""The trial matrix: every (workload, strategy, prefetch) cell, cached.

One full paper reproduction touches 77 cells (7 workloads × pure-copy
plus {pure-IOU, RS} × prefetch {0,1,3,7,15}).  All tables, figures and
claim checks read from the same matrix so each cell simulates once.
"""

from repro.migration.strategy import PURE_COPY, PURE_IOU, RESIDENT_SET
from repro.testbed import Testbed
from repro.workloads.registry import WORKLOADS

#: Prefetch values the paper sweeps (Figures 4-1..4-4).
PREFETCH_VALUES = (0, 1, 3, 7, 15)

#: Strategies that take a prefetch parameter.
LAZY_STRATEGIES = (PURE_IOU, RESIDENT_SET)

#: Paper presentation order.
WORKLOAD_ORDER = tuple(WORKLOADS)


class TrialMatrix:
    """Runs and caches migration trials."""

    def __init__(self, seed=1987, calibration=None):
        self.testbed = Testbed(seed=seed, calibration=calibration)
        self._cache = {}

    def result(self, workload, strategy, prefetch=0):
        """The (cached) :class:`~repro.testbed.MigrationResult` for a cell.

        Pure-copy ignores prefetch (there are no imaginary faults), so
        all its prefetch values share one cell.
        """
        if strategy == PURE_COPY:
            prefetch = 0
        key = (str(workload), strategy, prefetch)
        if key not in self._cache:
            self._cache[key] = self.testbed.migrate(
                workload, strategy=strategy, options={"prefetch": prefetch}
            )
        return self._cache[key]

    def copy(self, workload):
        """The pure-copy cell for ``workload``."""
        return self.result(workload, PURE_COPY)

    def iou(self, workload, prefetch=0):
        """The pure-IOU cell for ``workload`` at ``prefetch``."""
        return self.result(workload, PURE_IOU, prefetch)

    def rs(self, workload, prefetch=0):
        """The resident-set cell for ``workload`` at ``prefetch``."""
        return self.result(workload, RESIDENT_SET, prefetch)

    def cells(self, workloads=WORKLOAD_ORDER, prefetches=PREFETCH_VALUES):
        """Iterate every cell of the full paper matrix."""
        for workload in workloads:
            yield self.copy(workload)
            for strategy in LAZY_STRATEGIES:
                for prefetch in prefetches:
                    yield self.result(workload, strategy, prefetch)

    def run_all(self):
        """Force-fill the whole matrix; returns the number of cells."""
        return sum(1 for _ in self.cells())

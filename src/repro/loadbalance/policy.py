"""Migration policies.

A policy looks at the load snapshot and the job population and either
returns a :class:`MigrationDecision` or ``None``.  The interesting one
is :class:`BreakevenPolicy`, which operationalises the paper's §4.3.4
finding: pure-IOU wins end-to-end while the process will touch less
than about a quarter of its real memory; beyond that, pure-copy — and
sequential programs should ask their backer for deep prefetch.
"""

from dataclasses import dataclass

from repro.migration.strategy import PURE_COPY, PURE_IOU, WORKING_SET
from repro.workloads.spec import Locality


@dataclass(frozen=True)
class MigrationDecision:
    """One act of rebalancing."""

    job_name: str
    source: str
    dest: str
    strategy: str
    prefetch: int

    def __str__(self):
        return (
            f"{self.job_name}: {self.source} -> {self.dest} "
            f"[{self.strategy}, pf={self.prefetch}]"
        )


class NoMigrationPolicy:
    """Baseline: never migrate."""

    name = "no-migration"

    def decide(self, loads, jobs):
        """Always None: the do-nothing baseline."""
        return None


class _ImbalancePolicy:
    """Shared logic: find an imbalance and a movable job."""

    #: Minimum load-score gap before moving anything.
    gap = 1.5

    def decide(self, loads, jobs):
        if len(loads) < 2:
            return None
        busiest = max(loads.values(), key=lambda load: load.score)
        idlest = min(loads.values(), key=lambda load: load.score)
        if busiest.score - idlest.score < self.gap:
            return None
        candidates = [
            job
            for job in jobs
            if not job.finished
            and not getattr(job, "failed", False)
            and not getattr(job, "migrating", False)
            and job.current_host is not None
            and job.current_host.name == busiest.host_name
            and job.remaining_steps > 0
        ]
        if len(candidates) < 2:
            # Don't strip the busiest host of its only job.
            return None
        job = self.pick_job(candidates)
        strategy, prefetch = self.pick_strategy(job)
        return MigrationDecision(
            job_name=job.name,
            source=busiest.host_name,
            dest=idlest.host_name,
            strategy=strategy,
            prefetch=prefetch,
        )

    def pick_job(self, candidates):
        """Choose which candidate job to move."""
        raise NotImplementedError

    def pick_strategy(self, job):
        """Choose (strategy name, prefetch) for the chosen job."""
        raise NotImplementedError


class EagerCopyPolicy(_ImbalancePolicy):
    """Naive: always pure-copy, move the job with the most work left."""

    name = "eager-copy"

    def pick_job(self, candidates):
        return max(candidates, key=lambda job: job.remaining_steps)

    def pick_strategy(self, job):
        return PURE_COPY, 0


class BreakevenPolicy(_ImbalancePolicy):
    """The paper-informed policy.

    * Job choice: most remaining work (the move buys the most overlap),
      ties broken toward the smallest real memory (cheapest to move).
    * Strategy: pure-IOU if the job will touch under ~25% of its real
      memory at the new site, else pure-copy (§4.3.4's breakeven).
    * Prefetch: deep (7) for sequential access patterns, shallow (1)
      otherwise — one page always helps, more only with locality
      (§4.3.3/§4.4.2).
    """

    name = "breakeven-lazy"

    def __init__(self, breakeven=0.25, use_working_set=False):
        self.breakeven = breakeven
        #: Above the breakeven, ship the kernel-tracked working set
        #: (hot pages pre-shipped, cold ones owed) instead of the whole
        #: real memory — the WS-strategy extension applied to policy.
        self.use_working_set = use_working_set
        if use_working_set:
            self.name = "breakeven-ws"

    def pick_job(self, candidates):
        return max(
            candidates,
            key=lambda job: (job.remaining_steps, -job.spec.real_pages),
        )

    def pick_strategy(self, job):
        expected_fraction = job.remaining_touched_pages / job.spec.real_pages
        if expected_fraction < self.breakeven:
            strategy = PURE_IOU
        elif self.use_working_set:
            strategy = WORKING_SET
        else:
            strategy = PURE_COPY
        prefetch = 7 if job.spec.locality is Locality.SEQUENTIAL else 1
        if strategy == PURE_COPY:
            prefetch = 0
        return strategy, prefetch


#: The policies by the names ``repro balance --policy`` takes.
POLICIES = {
    "none": NoMigrationPolicy,
    "eager-copy": EagerCopyPolicy,
    "breakeven": BreakevenPolicy,
}

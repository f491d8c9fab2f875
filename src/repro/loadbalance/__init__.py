"""Automatic migration strategies and load metrics (paper §6).

The paper's future-work section asks for "automatic migration
strategies appropriate for such systems" and "good load metrics which
specifically take into account the fact that a process virtual address
space may be physically dispersed among several computational hosts".
This package supplies both:

* :mod:`repro.loadbalance.metrics` — a per-host load snapshot that
  counts runnable jobs, CPU queueing *and* the pages a host still backs
  for processes that have moved away.
* :mod:`repro.loadbalance.policy` — pluggable policies, including a
  breakeven-aware one that picks pure-IOU or pure-copy per process
  using the paper's ~25%-of-RealMem crossover.
* :mod:`repro.loadbalance.balancer` — the balancer server plus a
  scenario runner that launches a job mix on one host and measures the
  makespan with and without automatic migration.
"""

from repro.loadbalance.balancer import LoadBalancer, Scenario, ScenarioResult
from repro.loadbalance.job import ManagedJob
from repro.loadbalance.metrics import HostLoad, snapshot_loads
from repro.loadbalance.policy import (
    BreakevenPolicy,
    EagerCopyPolicy,
    MigrationDecision,
    NoMigrationPolicy,
    POLICIES,
)

__all__ = [
    "BreakevenPolicy",
    "EagerCopyPolicy",
    "HostLoad",
    "LoadBalancer",
    "ManagedJob",
    "MigrationDecision",
    "NoMigrationPolicy",
    "POLICIES",
    "Scenario",
    "ScenarioResult",
    "snapshot_loads",
]

"""The FaultInjector: executes one FaultPlan inside one world.

The injector is the plan's runtime half.  It installs itself as every
link's fault model (links ask :meth:`should_drop` per fragment), runs
one engine process per scheduled crash/recovery, and counts what it
broke in the world's metrics registry:

* ``link_drops_total{reason}`` — fragments eaten, by cause
  (``loss`` / ``partition`` / ``crash``).
* ``host_crashes_total{host}`` / ``host_recoveries_total{host}``.

Determinism: loss draws come from one named RNG stream handed in by
the world (derived from the master seed), and crash scripts are plain
timeout-driven processes, so a seeded run replays its failures exactly.
"""


class FaultInjector:
    """Seeded, simulated-time fault engine for one world."""

    def __init__(self, plan, engine, rng, hosts, links, registry):
        self.plan = plan
        self.engine = engine
        self.rng = rng
        #: host name -> Host.
        self.hosts = dict(hosts)
        self.registry = registry
        self._drops = registry.counter("link_drops_total", labels=("reason",))
        self._crashes = registry.counter("host_crashes_total", labels=("host",))
        self._recoveries = registry.counter(
            "host_recoveries_total", labels=("host",)
        )
        for link in links:
            link.faults = self
        for host in self.hosts.values():
            host.fault_injector = self
        for crash in plan.crashes:
            if crash.host not in self.hosts:
                from repro.faults.plan import FaultPlanError

                raise FaultPlanError(
                    f"crash names unknown host {crash.host!r}; "
                    f"world has {sorted(self.hosts)}"
                )
            self.engine.process(
                self._crash_script(crash), name=f"fault-crash-{crash.host}"
            )

    def __repr__(self):
        crashed = sorted(
            name for name, host in self.hosts.items() if host.crashed
        )
        return f"<FaultInjector plan={self.plan!r} crashed={crashed}>"

    # -- crash scripts -----------------------------------------------------------
    def _crash_script(self, crash):
        host = self.hosts[crash.host]
        if crash.at > self.engine.now:
            yield self.engine.timeout(crash.at - self.engine.now)
        host.crash()
        self._crashes.inc(1, host=crash.host)
        if crash.recover_at is not None:
            yield self.engine.timeout(crash.recover_at - self.engine.now)
            host.recover()
            self._recoveries.inc(1, host=crash.host)

    # -- per-fragment drop decision ----------------------------------------------
    def should_drop(self, source_host, dest_host, now):
        """Reason string if this fragment dies on the wire, else None.

        Checked in severity order — a crashed endpoint loses the
        fragment regardless of loss rates, a partition regardless of
        the RNG — so the loss stream is only consulted (and advanced)
        when a probabilistic rule actually governs the fragment.
        """
        if source_host.crashed or dest_host.crashed:
            return "crash"
        for partition in self.plan.partitions:
            if partition.severs(source_host.name, dest_host.name, now):
                return "partition"
        for rule in self.plan.loss:
            if rule.matches(source_host.name, dest_host.name, now):
                if self.rng.random() < rule.rate:
                    return "loss"
                return None
        return None

    def record_drop(self, reason):
        """Count one eaten fragment (called by the link)."""
        self._drops.inc(1, reason=reason)

"""Load metrics aware of dispersed address spaces (§6)."""

from dataclasses import dataclass


@dataclass(frozen=True)
class HostLoad:
    """One host's load at a sampling instant."""

    host_name: str
    #: Jobs currently executing on this host.
    running_jobs: int
    #: Processes queued for the CPU right now.
    cpu_queue: int
    #: Pages this host still backs for processes running elsewhere —
    #: remote faults will keep landing here (the dispersal term the
    #: paper says load metrics must include).
    backed_pages: int
    #: Aggregate request throughput of serving jobs on this host
    #: (requests per simulated second; 0.0 for batch jobs).  An
    #: *optional* policy signal — deliberately not in :attr:`score`, so
    #: existing policies decide exactly as before; a latency-aware
    #: policy can weigh it explicitly.
    requests_per_s: float = 0.0

    @property
    def score(self):
        """Scalar load: jobs dominate; queueing and backing duty add a
        fractional burden (a host backing thousands of owed pages is
        not actually idle)."""
        return (
            self.running_jobs
            + 0.5 * self.cpu_queue
            + self.backed_pages / 4096.0
        )


def snapshot_loads(hosts, jobs):
    """Sample every host; returns {host_name: HostLoad}.

    ``jobs`` are :class:`~repro.loadbalance.job.ManagedJob` (or
    :class:`~repro.serve.server.ServingJob`) instances; a job counts
    against the host it currently runs on, and any per-job
    ``requests_per_s`` it exposes aggregates into the host's serving
    load.
    """
    running = {}
    request_rates = {}
    for job in jobs:
        if (
            job.current_host is not None
            and not job.finished
            and not getattr(job, "failed", False)  # killed
        ):
            host_name = job.current_host.name
            running[host_name] = running.get(host_name, 0) + 1
            rate = getattr(job, "requests_per_s", 0.0)
            if rate:
                request_rates[host_name] = (
                    request_rates.get(host_name, 0.0) + rate
                )
    loads = {}
    for name, host in hosts.items():
        backed = sum(
            len(segment.owed)
            for segment in host.nms.backing.segments.values()
        )
        loads[name] = HostLoad(
            host_name=name,
            running_jobs=running.get(name, 0),
            cpu_queue=host.cpu.queued,
            backed_pages=backed,
            requests_per_s=request_rates.get(name, 0.0),
        )
    return loads

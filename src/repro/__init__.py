"""repro — a reproduction of Zayas, *Attacking the Process Migration
Bottleneck* (SOSP 1987).

The package simulates the Accent distributed-OS testbed on which the
paper's copy-on-reference process-migration facility was built and
evaluated, and regenerates every table and figure of the paper's
evaluation section.

Layering (bottom to top):

``repro.sim``
    Deterministic discrete-event simulation kernel.
``repro.accent``
    The Accent substrate: virtual memory (512-byte pages, sparse address
    spaces, copy-on-write, accessibility maps), IPC (ports, rights,
    messages), paging disk, Pager/Scheduler, kernel and hosts.
``repro.cor``
    The copy-on-reference facility: imaginary segments, backing ports,
    prefetch policies.
``repro.net``
    Network substrate: links and the NetMsgServer.
``repro.migration``
    ExciseProcess/InsertProcess, Core/RIMAS context messages, the
    MigrationManager and the three transfer strategies.
``repro.workloads``
    The paper's seven representative processes as workload descriptors
    plus reference-trace generators.
``repro.metrics`` / ``repro.experiments``
    Instrumentation and the per-table/figure experiment harness.

Quickstart
----------
>>> from repro import Testbed, WORKLOADS
>>> bed = Testbed(seed=1987)
>>> result = bed.migrate("minprog", strategy="pure-iou")
>>> result.verified          # page contents intact after migration
True
"""

__version__ = "1.0.0"

# Public names are resolved lazily (PEP 562) so that importing low-level
# subpackages (e.g. repro.sim) never pulls in the whole stack.
_LAZY = {
    "Calibration": ("repro.calibration", "Calibration"),
    "ChainResult": ("repro.testbed", "ChainResult"),
    "MigrationResult": ("repro.testbed", "MigrationResult"),
    "PrecopyResult": ("repro.testbed", "PrecopyResult"),
    "PURE_COPY": ("repro.migration.strategy", "PURE_COPY"),
    "PURE_IOU": ("repro.migration.strategy", "PURE_IOU"),
    "RESIDENT_SET": ("repro.migration.strategy", "RESIDENT_SET"),
    "WORKING_SET": ("repro.migration.strategy", "WORKING_SET"),
    "Strategy": ("repro.migration.strategy", "Strategy"),
    "Testbed": ("repro.testbed", "Testbed"),
    "WORKLOADS": ("repro.workloads.registry", "WORKLOADS"),
    "WorkloadSpec": ("repro.workloads.spec", "WorkloadSpec"),
    "workload_by_name": ("repro.workloads.registry", "workload_by_name"),
}

__all__ = sorted(_LAZY) + ["__version__"]


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value


def __dir__():
    return __all__

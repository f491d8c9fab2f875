"""Pin on the heap a built process's page mapping holds per real page.

A space keeps its pages as columns, with a ``Page`` only where one is
needed, so building a catalogued workload costs its mapping a few dozen
bytes per real page.  ``tracemalloc`` counts what the second build of a
workload on a fresh host leaves allocated by the address-space, page
and builder modules; the first build fills the process-wide payload
memo and the engine's free lists.  Frames (``PhysicalMemory``) and disk
images (``PagingDisk``) are allocated and counted elsewhere.

A page entry object plus a ``Page`` per page, kept in a dict and a
sorted index list, cost 180-212 bytes per real page here.
"""

import gc
import tracemalloc

import pytest

from repro.accent.constants import PAGE_SIZE
from repro.testbed import Testbed
from repro.workloads.builder import build_process
from repro.workloads.registry import WORKLOADS

#: Bytes of page mapping per real page a build may leave allocated.
BOUND = 56

MAPPING_MODULES = (
    "*/repro/accent/vm/address_space.py",
    "*/repro/accent/vm/page.py",
    "*/repro/workloads/builder.py",
)


def mapping_bytes_per_page(name):
    spec = WORKLOADS[name]
    world = Testbed(seed=1987).world()
    build_process(world.source, spec, world.streams)
    gc.collect()
    tracemalloc.start()
    try:
        build_process(world.source, spec, world.streams, name="second")
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    traces = snapshot.filter_traces(
        [tracemalloc.Filter(True, pattern) for pattern in MAPPING_MODULES]
    )
    held = sum(stat.size for stat in traces.statistics("filename"))
    return held / (spec.real_bytes // PAGE_SIZE)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_build_holds_few_bytes_per_real_page(name):
    per_page = mapping_bytes_per_page(name)
    assert per_page <= BOUND, f"{name}: {per_page:.1f} B per real page"

"""Equal page contents are one object, and the memos stay bounded.

A write step stamps the same marker over the same payload wherever a
workload runs, so every page of a world holding those bytes shares one
``bytes`` object (the world's :class:`WrittenPages`).  The process-wide
payload memo is bounded by the workload catalogue: a second world built
from the same workloads adds nothing to it.
"""

from collections import defaultdict

from repro.cluster.stress import StressConfig, run_stress
from repro import testbed
from repro.workloads import content
from repro.workloads.content import WRITE_MARKER

SHAPE = dict(
    hosts=4, procs=8, seed=7, migrations=8, workloads=("minprog", "chess"),
)


def _live_pages(spaces, hosts):
    """The bytes of every page ``spaces`` and ``hosts`` (their kernels'
    processes and their disks) hold."""
    spaces = list(spaces)
    for host in hosts:
        spaces.extend(p.space for p in host.kernel.processes.values())
        for images in host.disk._store.values():
            for image in images.values():
                yield image if type(image) is bytes else image.data
    for space in spaces:
        for index in space.real_page_indices():
            yield space.page_bytes(index)


def test_equal_live_pages_share_one_bytes_object(monkeypatch):
    # A closed host lets go of its kernel, so read the hosts' pages as
    # the world closes, and the jobs' from the result.
    held = []
    close = testbed.TestbedWorld.close

    def closing(world):
        held.extend(_live_pages((), world.hosts.values()))
        close(world)

    monkeypatch.setattr(testbed.TestbedWorld, "close", closing)
    result = run_stress(StressConfig(**SHAPE))
    assert result.verified
    spaces = [job.process.space for job in result.jobs]
    by_contents = defaultdict(set)
    for data in held + list(_live_pages(spaces, ())):
        by_contents[data].add(id(data))
    stamped = [data for data in by_contents if data.startswith(WRITE_MARKER)]
    assert stamped, "the shape must stamp pages"
    copied = [data[:32] for data, ids in by_contents.items() if len(ids) > 1]
    assert copied == []


def _memo_sizes():
    return [
        sum(len(pages) for pages in memo.values())
        for memo in (content._HEADS, content._PAYLOADS)
    ]


def test_second_world_does_not_grow_the_content_memo():
    first = run_stress(StressConfig(**SHAPE))
    sizes = _memo_sizes()
    second = run_stress(StressConfig(**SHAPE))
    assert _memo_sizes() == sizes
    tables = [
        {id(host.written_pages) for host in run.jobs[0].world.hosts.values()}
        for run in (first, second)
    ]
    # One stamped-page table per world, shared by its hosts.
    assert [len(ids) for ids in tables] == [1, 1]
    assert tables[0] != tables[1]

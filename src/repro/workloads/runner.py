"""Remote execution: replay a reference trace through the kernel.

The body interleaves CPU time with memory references.  Every reference
to a page that holds workload data verifies its contents against the
deterministic pattern the source wrote — the end-to-end proof that
copy-on-reference migration delivered the right bytes — and every write
stamps a marker (breaking copy-on-write sharing where it exists).
:func:`cpu_slice` and :func:`reference` are the step every workload
body is built from: this trace replay, the cluster's managed job and
the serving job.
"""

from repro.accent.constants import PAGE_SIZE
from repro.workloads.content import page_head, written_head


class RemoteRunResult:
    """What happened while the migrated process ran remotely."""

    def __init__(self, workload_name):
        self.workload_name = workload_name
        self.steps_executed = 0
        #: (page_index, expected_head, actual_head) for corrupt pages.
        self.mismatches = []

    def __repr__(self):
        return (
            f"<RemoteRunResult {self.workload_name} steps={self.steps_executed} "
            f"mismatches={len(self.mismatches)}>"
        )

    @property
    def verified(self):
        """True when every referenced page held the expected bytes."""
        return self.steps_executed > 0 and not self.mismatches


def cpu_slice(host, seconds):
    """Generator: compute for ``seconds`` on ``host``'s CPU (co-located
    processes queue for it; uncontended it is a pure timeout)."""
    if seconds > 0:
        with host.cpu.held() as grant:
            yield grant
            yield host.engine.timeout(seconds)


def reference(kernel, process, name, index, write, verify, mismatches):
    """Generator: touch page ``index`` of ``process``, verify, stamp.

    With ``verify`` the page must hold workload ``name``'s
    ``page_head`` or the exact ``written_head`` a write stamps; any
    other head lands in ``mismatches`` as ``(index, expected, actual)``.
    A write stamps ``WRITE_MARKER`` over the page's start; the bytes come
    from the world's :class:`~repro.workloads.content.WrittenPages`, so
    equal stamped pages share one object.  Verification schedules no
    event.
    """
    cost = kernel.touch(process, index, write=write)
    if cost is not None:
        yield from cost
    space = process.space
    if verify:
        expected = page_head(name, index)
        actual = space.peek(index * PAGE_SIZE, len(expected))
        if actual != expected and actual != written_head(name, index):
            mismatches.append((index, expected, actual))
    if write:
        space.replace_page(index, kernel.host.written_pages.stamp(
            name, index, space.page_bytes(index)
        ))


def remote_body(host, process, trace, result, terminate=True):
    """Generator: run the trace on ``host`` as ``process``.

    Yields simulation events; finishes by terminating the process
    (sending Imaginary Segment Death to any remaining backers) unless
    ``terminate`` is False.
    """
    kernel = host.kernel
    name = process.blueprint or result.workload_name
    slice_s = trace.compute_slice_s
    for page_index, write, kind in trace.steps.references():
        yield from cpu_slice(host, slice_s)
        yield from reference(
            kernel, process, name, page_index, write, kind != "zero",
            result.mismatches,
        )
        result.steps_executed += 1
    if terminate:
        yield from kernel.terminate(process.name)

"""Fitzgerald's IPC/VM-integration study (paper §2.1).

"Fitzgerald's study reveals that up to 99.98% of data passed between
processes in a system-building application did not have to be
physically copied."  This module reproduces that experiment: a
system-build pipeline (reader → preprocessor → compiler → linker) on
one host passes a large mapped-file image through IPC messages.  Each
stage maps the received region into its own address space (the kernel
send path shares the pages copy-on-write), reads it, writes a few
pages — paying the deferred copy for exactly those — and passes the
image on.
"""

from collections import namedtuple

from repro.accent.constants import PAGE_SIZE
from repro.accent.ipc.message import InlineSection, Message, RegionSection
from repro.accent.process import AccentProcess
from repro.accent.vm.address_space import AddressSpace
from repro.accent.vm.page import Page

#: Pipeline stage names, in order.
STAGES = ("reader", "preprocessor", "compiler", "linker")

BuildReport = namedtuple(
    "BuildReport",
    "logical_bytes physically_copied_bytes avoided_copy_fraction "
    "cow_breaks messages elapsed_s",
)
BuildReport.__doc__ = "Outcome of one simulated system build."


def run_system_build(world, file_pages=2048, writes_per_stage=(0, 1, 1, 0)):
    """Run the pipeline on ``world``'s source host; returns a report.

    ``file_pages`` is the size of the source image each stage passes on
    (2048 pages = 1 MB); ``writes_per_stage`` is how many pages each
    stage modifies (modifications force the deferred per-page copies).
    """
    if len(writes_per_stage) != len(STAGES):
        raise ValueError(f"need {len(STAGES)} write counts")
    host = world.source
    engine = world.engine
    kernel = host.kernel

    ports = {name: host.create_port(name=name) for name in STAGES}
    done = engine.event()

    file_image = {
        index: Page(b"%6d" % index) for index in range(file_pages)
    }

    def map_into_space(name, region):
        """Map the received image into a fresh stage address space."""
        space = AddressSpace(name=name)
        space.validate(0, file_pages * PAGE_SIZE)
        process = AccentProcess(name=name, space=space)
        kernel.register(process)
        kernel.install_run(
            space, list(region.pages), list(region.pages.values())
        )
        return process

    def stage(name, successor, writes):
        message = yield ports[name].receive()
        region = message.first_section(RegionSection)
        process = map_into_space(name, region)
        space = process.space
        # Modify a few pages through the real reference path: the
        # kernel charges the deferred copy, poke performs it.
        for page_index in range(writes):
            cost = kernel.touch(process, page_index, write=True)
            if cost is not None:
                yield from cost
            space.poke(page_index * PAGE_SIZE, b"edited-by-" + name.encode())
        if successor is None:
            done.succeed()
            return
        forward = Message(
            ports[successor],
            f"build.{successor}",
            sections=[
                InlineSection(b"stage-control", label="control"),
                RegionSection(
                    {index: space.page(index) for index in range(file_pages)},
                    label=f"{name}-output",
                ),
            ],
        )
        yield from kernel.send(forward)

    for position, name in enumerate(STAGES):
        successor = STAGES[position + 1] if position + 1 < len(STAGES) else None
        engine.process(
            stage(name, successor, writes_per_stage[position]),
            name=f"stage-{name}",
        )

    def kick_off():
        first = Message(
            ports[STAGES[0]],
            "build.reader",
            sections=[
                InlineSection(b"begin", label="control"),
                RegionSection(file_image, label="source-image"),
            ],
        )
        yield from kernel.send(first)

    engine.process(kick_off())
    engine.run(until=done)
    stats = kernel.stats
    return BuildReport(
        logical_bytes=stats.logical_bytes,
        physically_copied_bytes=stats.physically_copied_bytes,
        avoided_copy_fraction=stats.avoided_copy_fraction,
        cow_breaks=stats.cow_breaks,
        messages=stats.messages,
        elapsed_s=engine.now,
    )

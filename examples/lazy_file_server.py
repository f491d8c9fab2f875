#!/usr/bin/env python3
"""Copy-on-reference beyond migration: a lazy remote file server.

The paper closes §2 with: "Accent's copy-on-reference facility can be
used by any application wishing to take advantage of lazy shipment of
data."  This example does exactly that, with no MigrationManager in
sight: a file server on host *alpha* holds a 256 KB "file" and hands a
client on host *beta* an IOU for it.  The client maps the IOU into its
address space and reads a handful of records; only the touched pages
ever cross the wire.

For contrast, the same read pattern is run against an eagerly-shipped
copy of the whole file.

Run:  python examples/lazy_file_server.py
"""

from repro.accent.constants import PAGE_SIZE
from repro.accent.ipc.message import IOUSection, Message, RegionSection
from repro.accent.process import AccentProcess
from repro.accent.vm.address_space import AddressSpace
from repro.accent.vm.page import Page
from repro.testbed import Testbed

FILE_PAGES = 512          # a 256 KB mapped file
RECORDS_READ = 12         # the client only looks at a few records


def file_page(index):
    return Page(f"record-{index:06d}".encode().ljust(32, b".") * 16)


def run_trial(lazy):
    world = Testbed(seed=2024).world()
    engine = world.engine
    server_host, client_host = world.source, world.dest

    pages = {i: file_page(i) for i in range(FILE_PAGES)}
    inbox = client_host.create_port(name="client-inbox")

    if lazy:
        # The server's backing service hands out an IOU for the file.
        segment = server_host.nms.backing.create_segment(
            pages, label="mapped-file"
        )
        section = IOUSection(segment.handle, pages.keys())
    else:
        # Eager: ship all 512 pages right now (NoIOUs semantics).
        section = RegionSection(pages, force_copy=True)

    offer = Message(inbox, "file.mapped", sections=[section])

    # Client process: map the file and read scattered records.
    space = AddressSpace(name="client")
    client = AccentProcess(name="client", space=space)
    client_host.kernel.register(client)
    read_log = []

    def client_body():
        message = yield inbox.receive()
        iou = message.first_section(IOUSection)
        if iou is not None:
            space.map_imaginary(0, FILE_PAGES * PAGE_SIZE, iou.handle)
        else:
            space.validate(0, FILE_PAGES * PAGE_SIZE)
            pages = message.first_section(RegionSection).pages
            client_host.kernel.install_run(
                space, list(pages), list(pages.values())
            )
        # Read every 40th record.
        for index in range(0, RECORDS_READ * 40, 40):
            cost = client_host.kernel.touch(client, index)
            if cost is not None:
                yield from cost
            record = space.peek(index * PAGE_SIZE, 13)
            read_log.append(record.decode())

    def server_body():
        yield from server_host.kernel.send(offer)

    engine.process(server_body())
    client_proc = engine.process(client_body())
    engine.run(until=client_proc)

    return {
        "mode": "lazy (copy-on-reference)" if lazy else "eager (full copy)",
        "elapsed_s": engine.now,
        "bytes_on_wire": world.metrics.total_link_bytes,
        "pages_crossed": world.metrics.total_link_bytes // PAGE_SIZE,
        "records": read_log,
    }


def main():
    eager = run_trial(lazy=False)
    lazy = run_trial(lazy=True)
    assert eager["records"] == lazy["records"], "lazy delivery corrupted data!"

    print(f"Client read {RECORDS_READ} records out of a {FILE_PAGES}-page file\n")
    for trial in (eager, lazy):
        print(
            f"{trial['mode']:>26}: {trial['elapsed_s']:6.2f}s elapsed, "
            f"{trial['bytes_on_wire']:>9,} bytes on the wire"
        )
    saving = 1 - lazy["bytes_on_wire"] / eager["bytes_on_wire"]
    speedup = eager["elapsed_s"] / lazy["elapsed_s"]
    print(
        f"\nLazy shipment read identical data {speedup:.0f}x sooner and "
        f"moved {saving:.0%} fewer bytes."
    )
    print(f"First record: {lazy['records'][0]!r}")


if __name__ == "__main__":
    main()

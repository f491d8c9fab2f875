"""Materialise a workload's pre-migration state on a host.

The builder constructs — with no simulated time, since it all happened
before the measurement interval — the process exactly as the paper's
Table 4-1/4-2 snapshots describe it: a sparse validated region, real
pages (with verifiable contents) arranged in ``spec.real_runs``
contiguous runs, the resident set in physical memory and everything
else on the local paging disk.
"""

from array import array
from dataclasses import dataclass

from repro.accent.ipc.port import PortRight, RECEIVE, SEND
from repro.accent.process import AccentProcess
from repro.accent.vm.address_space import AddressSpace, Residency
from repro.workloads.content import payload_image
from repro.workloads.layout import make_layout
from repro.workloads.trace import build_trace


@dataclass
class BuiltWorkload:
    """A ready-to-migrate process plus its plan and trace."""

    spec: object
    process: object
    plan: object
    trace: object


def build_process(host, spec, streams, name=None):
    """Create the process on ``host``; returns a :class:`BuiltWorkload`."""
    rng = streams.stream(f"workload:{spec.name}")
    plan = make_layout(spec, rng)
    trace = build_trace(spec, plan, rng)

    # The pages hold their workload's memoised payloads, so the space
    # reads their bytes from that image and keeps no Page for them.
    indices = plan.real_indices
    image = payload_image(spec.name, indices)
    space = AddressSpace(name=name or spec.name, image=image)
    space.validate(plan.region_start, plan.region_size)
    host.register_space(space)

    # One pass in index order draws each page's pre-migration reference
    # recency: working-set pages were touched within the last τ; the
    # rest of the resident set earlier (it is a disk cache); paged-out
    # data long ago.  Three bulk calls then enter the pages, claim the
    # resident set's frames in index order and write the rest's bytes
    # to the paging disk.
    now = host.engine.now
    window = host.calibration.ws_window_s
    draw = rng.random
    resident = plan.resident
    recent = plan.recent
    on_disk = Residency.ON_DISK
    in_memory = Residency.RESIDENT
    residencies = []
    touches = array("d")
    frames = array("I")
    paged_out = array("I")
    for index in indices:
        if index in resident:
            frames.append(index)
            residencies.append(in_memory)
            if index in recent:
                ago = draw() * 0.2 * window
            else:
                ago = window * (1.5 + 4.0 * draw())
        else:
            paged_out.append(index)
            residencies.append(on_disk)
            ago = window * (10.0 + 40.0 * draw())
        touches.append(now - ago)
    space.install_run(indices, residency=residencies, touches=touches)
    if host.physical.claim(space.space_id, frames):
        raise RuntimeError(
            f"{spec.name}: frame pool too small for its resident set"
        )
    host.disk.store_images(
        space.space_id, zip(paged_out, map(image.__getitem__, paged_out))
    )

    # A self port (Receive) and a service port (Send) exercise the
    # transparent port-right transfer of ExciseProcess (§3.1).
    self_port = host.create_port(name=f"{spec.name}-self")
    service_port = host.create_port(name=f"{spec.name}-service")
    rights = [
        PortRight(self_port, RECEIVE),
        PortRight(service_port, SEND),
    ]

    process = AccentProcess(
        name=name or spec.name,
        space=space,
        port_rights=rights,
        map_entries=spec.map_entries,
        blueprint=spec.name,
    )
    host.kernel.register(process)
    _check_footprint(spec, space)
    return BuiltWorkload(spec=spec, process=process, plan=plan, trace=trace)


def _check_footprint(spec, space):
    """The built space must reproduce Table 4-1/4-2 exactly."""
    if space.real_bytes != spec.real_bytes:
        raise AssertionError(
            f"{spec.name}: built real={space.real_bytes} "
            f"expected {spec.real_bytes}"
        )
    if space.total_bytes != spec.total_bytes:
        raise AssertionError(
            f"{spec.name}: built total={space.total_bytes} "
            f"expected {spec.total_bytes}"
        )
    if space.resident_bytes() != spec.resident_bytes:
        raise AssertionError(
            f"{spec.name}: built RS={space.resident_bytes()} "
            f"expected {spec.resident_bytes}"
        )
    if space.run_count() != spec.real_runs:
        raise AssertionError(
            f"{spec.name}: built runs={space.run_count()} "
            f"expected {spec.real_runs}"
        )

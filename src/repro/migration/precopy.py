"""Pre-copying migration (Theimer's V system, paper §5).

The related-work baseline the paper contrasts with copy-on-reference:
hide transfer cost from the *process* by iteratively copying the
address space while it keeps running at the source, then stop it and
ship only the pages dirtied since the last round.  Downtime shrinks,
but both hosts still pay the full transfer cost — and re-dirtied pages
are shipped more than once (Theimer measured network overruns from
exactly this traffic).

We model the still-running source process as a dirtying rate (pages per
second, defaulting to the workload's write intensity).  Dirty pages are
rewritten at the source (copy-on-write breaks and all) and reshipped;
the destination manager merges the freshest copy of every page before
InsertProcess runs.
"""

from collections import namedtuple

from repro.accent.ipc.message import Message, RegionSection
from repro.faults.errors import TransportError

#: Message op for an iterative pre-copy round.
OP_PRECOPY_ROUND = "migrate.precopy.round"

PrecopyRound = namedtuple("PrecopyRound", "pages seconds")
PrecopyRound.__doc__ = "One iterative copy round: page count and elapsed time."


def default_dirty_rate(spec):
    """Pages dirtied per second while the process runs at the source.

    Approximated from the workload's own write behaviour: it writes
    ``touched_pages × write_fraction`` pages over ``compute_s`` of CPU.
    Short-lived processes therefore dirty fast relative to a copy
    round, which is what made pre-copy hard in practice.
    """
    writes = spec.touched_pages * spec.write_fraction
    return writes / max(spec.compute_s, 0.5)


def precopy_migrate(
    manager,
    process_name,
    dest_manager,
    dirty_rate_pps,
    streams,
    stop_threshold=32,
    max_rounds=5,
):
    """Generator: migrate with iterative pre-copy.

    Returns the list of :class:`PrecopyRound`; phase marks are stamped
    like :meth:`MigrationManager.migrate`, plus ``downtime.start`` when
    the process is finally stopped (Table: downtime = trial end of the
    transfer pipeline minus that mark).  A transport failure raises
    :class:`~repro.migration.manager.MigrationAborted` with the process
    running at the source, as :meth:`MigrationManager.migrate` does.
    """
    host = manager.host
    engine = manager.engine
    kernel = host.kernel
    metrics = host.metrics
    obs = metrics.obs
    rng = streams.stream(f"precopy:{process_name}")

    process = kernel.lookup(process_name)
    space = process.space
    all_indices = space.real_page_indices()

    root = obs.tracer.span(
        "migrate",
        process=process_name,
        strategy="pre-copy",
        source=host.name,
        dest=dest_manager.host.name,
    )
    obs.migration_roots[process_name] = root

    rounds = []
    round_indices = list(all_indices)
    precopy_span = root.child("precopy")
    obs.push_phase(precopy_span)
    metrics.mark("precopy.start")
    while True:
        started = engine.now
        round_span = precopy_span.child(
            f"round {len(rounds) + 1}", pages=len(round_indices)
        )
        # By-value semantics: the kernel send path maps these pages
        # copy-on-write into the message (no manual sharing needed).
        pages = {
            index: space.page_table[index].page for index in round_indices
        }
        message = Message(
            dest_manager.port,
            OP_PRECOPY_ROUND,
            sections=[RegionSection(pages, force_copy=True, label="precopy")],
            meta={"process_name": process_name},
        )
        try:
            yield from kernel.send(message)
        except TransportError as error:
            # The process never stopped and still runs here, so the
            # rollback only discards the peer's partial stash.
            round_span.finish()
            obs.pop_phase(precopy_span)
            yield from manager._rollback(process_name, dest_manager, error)
        round_span.finish()
        elapsed = engine.now - started
        rounds.append(PrecopyRound(len(round_indices), elapsed))

        # The process kept running: some pages are dirty again.
        dirtied_count = min(len(all_indices), int(dirty_rate_pps * elapsed))
        if dirtied_count <= stop_threshold or len(rounds) >= max_rounds:
            final_dirty = sorted(rng.sample(all_indices, dirtied_count))
            break
        round_indices = sorted(rng.sample(all_indices, dirtied_count))
        _redirty(space, round_indices)

    precopy_span.finish()
    obs.pop_phase(precopy_span)

    # Stop the process: everything from here is downtime.
    metrics.mark("downtime.start")
    _redirty(space, final_dirty)
    core, rimas = yield from manager._excise(process_name, dest_manager, root)

    # Final RIMAS: only the pages dirtied since the last round travel;
    # the destination merges its pre-copied stash for the rest.
    region = rimas.first_section(RegionSection)
    position = rimas.sections.index(region)
    dirty = set(final_dirty)
    final_pages = {
        index: page for index, page in region.pages.items() if index in dirty
    }
    rimas.sections[position] = RegionSection(
        final_pages, force_copy=True, label="precopy-final"
    )
    rimas.no_ious = True
    rimas.meta["precopy"] = True

    transfer_span = root.child("transfer")
    obs.push_phase(transfer_span)
    try:
        with transfer_span.child("core"):
            metrics.mark("core.start")
            yield engine.timeout(host.calibration.migration_setup_s)
            yield from kernel.send(core)
            metrics.mark("core.end")
        with transfer_span.child("rimas"):
            metrics.mark("rimas.start")
            yield from kernel.send(rimas)
            metrics.mark("rimas.end")
    except TransportError as error:
        transfer_span.finish()
        obs.pop_phase(transfer_span)
        # Reinsert the whole space, not just the final dirty delta.
        rimas.sections[position] = region
        yield from manager._rollback(
            process_name, dest_manager, error, core, rimas
        )
    transfer_span.finish()
    obs.pop_phase(transfer_span)
    return rounds


def _redirty(space, indices):
    """The still-running process writes these pages (content-neutral).

    Writing through the normal page path breaks any copy-on-write
    sharing left over from earlier rounds, so each round really ships
    the freshest frame.
    """
    for index in indices:
        entry = space.page_table[index]
        entry.page = entry.page.write(0, entry.page.data[:1])

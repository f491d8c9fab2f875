"""The residual-dependency flusher's pacing, backlog and failure paths."""

from repro.accent.kernel import Kernel
from repro.cor.flusher import ResidualFlusher
from repro.faults import FaultPlan
from repro.testbed import Testbed


def _plan(batch_pages, interval_s, crashes=()):
    return FaultPlan.from_dict({
        "crashes": list(crashes),
        "flush": {
            "enabled": True, "batch_pages": batch_pages,
            "interval_s": interval_s,
        },
    })


def test_every_host_gets_a_flusher_paced_by_the_plan():
    world = Testbed(seed=7, faults=_plan(4, 0.5)).world()
    for host in world.hosts.values():
        assert isinstance(host.flusher, ResidualFlusher)
        assert repr(host.flusher) == (
            f"<ResidualFlusher {host.name} batch=4 interval=0.5>"
        )
        assert host.flusher.backlog_pages() == 0


def test_sampled_backlog_drains_to_zero():
    result = Testbed(seed=7, faults=_plan(4, 0.5), sample_period=0.5).migrate(
        "chess", strategy="pure-iou"
    )
    assert result.outcome == "completed" and result.verified
    series = result.obs.telemetry.series
    backlog = series["host.alpha.flusher_backlog"]
    assert max(backlog) > 0
    assert backlog[-1] == 0
    assert set(series["host.beta.flusher_backlog"]) == {0}


def test_push_to_a_crashed_destination_stops_the_pump():
    result = Testbed(
        seed=7, faults=_plan(4, 0.5, [{"host": "beta", "at": 20.0}])
    ).migrate("chess", strategy="pure-iou")
    assert result.outcome == "killed"
    family = result.obs.registry.get("flush_failures_total")
    assert [child.value for _, child in family.items()] == [1]


def test_push_landing_after_the_process_exits_is_dropped(monkeypatch):
    # minprog finishes while pushes of 4 pages are still on the wire.
    late = []
    absorb = ResidualFlusher._absorb

    def spying(flusher, message):
        name = message.meta["process_name"]
        if name not in flusher.host.kernel.processes:
            late.append(name)
        return (yield from absorb(flusher, message))

    monkeypatch.setattr(ResidualFlusher, "_absorb", spying)
    result = Testbed(seed=7, faults=_plan(4, 0.05)).migrate(
        "minprog", strategy="pure-iou"
    )
    assert result.outcome == "completed" and result.verified
    assert late == ["minprog"]


def test_push_installed_during_excise_ships_with_the_amap(monkeypatch):
    # With eager one-page pushes, pages land on beta while it is still
    # excising minprog for the hop to gamma.  The AMap must be read with
    # the pages and IOUs, or a page it calls imaginary ships as real and
    # insertion at gamma finds no IOU for it.
    excising = set()
    during = []
    excise = Kernel.excise_process
    absorb = ResidualFlusher._absorb

    def tracked(kernel, name):
        excising.add((kernel.host.name, name))
        try:
            return (yield from excise(kernel, name))
        finally:
            excising.discard((kernel.host.name, name))

    def spying(flusher, message):
        key = (flusher.host.name, message.meta["process_name"])
        if key in excising:
            during.append(key)
        return (yield from absorb(flusher, message))

    monkeypatch.setattr(Kernel, "excise_process", tracked)
    monkeypatch.setattr(ResidualFlusher, "_absorb", spying)
    result = Testbed(faults=_plan(1, 0.0)).migrate_chain(
        "minprog", path=("alpha", "beta", "gamma")
    )
    assert ("beta", "minprog") in during
    assert result.outcome == "completed" and result.verified

"""Differential oracle: the two-lane queue vs the original flat heap.

Randomized schedule programs are pre-generated (so execution draws no
randomness) and replayed against both the production
:class:`~repro.sim.engine.Engine` and the
:class:`~tests.sim.refqueue.ReferenceEngine`, which keeps the original
flat ``(time, priority, seq)`` heap.  The flat heap is the *definition*
of the engine's total order, so entry-for-entry agreement of the
dispatch logs proves the two-lane rewrite preserved it exactly.

Each program exercises the hostile cases:

* same-timestamp bursts across URGENT / NORMAL / DEFERRED priorities,
* re-entrant scheduling from inside event callbacks,
* zero-delay events spawned while the same instant is being drained,
* cancels of near-lane entries, far-lane entries, and entries cancelled
  *after* rolling from the far-lane heap into a near-lane FIFO,
* ``Engine.serial`` draws interleaved with dispatch,
* all three run modes (drain, horizon, until-event) including resumed
  runs, plus ``run(until=now)`` with same-instant events pending,
* every dispatch variant: no instruments, a ``kind_log``, an
  observer, and an engine built under the sampling profiler; the
  ``kind_log`` and observer streams must match the reference's too.

Run with a pinned seed to reproduce a failure from the log line alone:

    pytest tests/sim/test_queue_oracle.py -p no:cacheprovider -k <seed>
"""

import random
from contextlib import nullcontext

import pytest

from repro.obs.prof import EngineProfiler, profiled
from repro.sim.engine import DEFERRED, Engine, URGENT
from repro.sim.events import Event, Timeout
from repro.sim.errors import SimulationError
from tests.sim.refqueue import ReferenceEngine

SEEDS = [101, 202, 303, 404, 505]
CASES_PER_SEED = 200
#: Dispatch variants beyond the plain (hook-free) one; the plain cases
#: keep their bare ``[seed]`` ids.
HOOKED = ["kind_log", "observer", "profiled"]
VARIANT_CASES = [
    pytest.param(seed, "plain", id=str(seed)) for seed in SEEDS
] + [
    pytest.param(seed, variant, id=f"{variant}-{seed}")
    for variant in HOOKED for seed in SEEDS
]

#: Small discrete delay palette so same-timestamp collisions abound.
DELAYS = [0.0, 0.0, 0.0, 0.1, 0.1, 0.2, 0.2, 0.5, 1.0, 3.0]
PRIORITIES = [None, None, None, URGENT, DEFERRED]
MAX_DEPTH = 4


def make_plan(rng):
    """Pre-generate one schedule program as a tree of node dicts.

    Execution must not consume randomness (a diverging schedule would
    consume it differently per engine and obscure the first mismatch),
    so every decision is drawn here.
    """
    labels = iter(range(10**6))

    def node(depth):
        kind = rng.choice(
            ["timeout", "timeout", "timeout", "succeed", "defer", "pair"]
        )
        children = []
        if depth < MAX_DEPTH:
            for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 3])):
                children.append(node(depth + 1))
        cancel_index = None
        if children and rng.random() < 0.2:
            cancel_index = rng.randrange(len(children))
        return {
            "label": next(labels),
            "kind": kind,
            "delay": rng.choice(DELAYS),
            "priority": rng.choice(PRIORITIES),
            # pair: does the canceller share the target's instant
            # (near-lane cancel after the roll) or strictly precede it
            # (far-lane cancel)?
            "same_instant_cancel": rng.random() < 0.5,
            "children": children,
            "cancel_index": cancel_index,
            "serial_kind": rng.choice([None, None, "alpha", "beta"]),
        }

    return [node(0) for _ in range(rng.randrange(3, 9))]


def _fire(engine, node, event, log):
    """Callback run when a node's event dispatches: log + re-entrancy."""
    log.append(("fire", node["label"], engine.now))
    kind = node["serial_kind"]
    if kind is not None:
        log.append(("serial", kind, engine.serial(kind)))
    spawned = [_spawn(engine, child, log) for child in node["children"]]
    index = node["cancel_index"]
    if index is not None:
        victim = spawned[index]
        if victim is not None and victim.callbacks is not None:
            victim.cancel()
            log.append(("cancel", node["children"][index]["label"]))


def _spawn(engine, node, log):
    """Materialise one plan node on ``engine``; returns its event.

    The returned event is the one whose dispatch means "this node
    fired" — the cancellable handle for a parent's ``cancel_index``.
    """
    kind = node["kind"]
    if kind == "timeout":
        target = Timeout(engine, node["delay"], node["label"])
    elif kind == "succeed":
        target = Event(engine)
        target.succeed(node["label"], priority=node["priority"])
    elif kind == "defer":
        target = engine.defer(node["label"])
    else:  # pair: a canceller that kills the target when it fires
        delay = node["delay"] or 0.2
        if node["same_instant_cancel"]:
            # Created first, same timestamp: the canceller precedes the
            # target in seq order, so it dispatches first at the shared
            # instant — cancelling a target that has already rolled
            # from the far-lane heap into a near-lane FIFO.
            canceller = Timeout(engine, delay)
        else:
            canceller = Timeout(engine, delay / 2)
        target = Timeout(engine, delay, node["label"])

        def cancel_target(_event, target=target, label=node["label"]):
            if target.callbacks is not None:
                target.cancel()
                log.append(("pair-cancel", label, engine.now))

        canceller.callbacks.append(cancel_target)
    target.callbacks.append(
        lambda event, node=node: _fire(engine, node, event, log)
    )
    return target


def run_case(engine, plan, mode):
    """Replay ``plan`` on ``engine``; return the observable log."""
    log = []
    roots = [_spawn(engine, node, log) for node in plan]
    if mode == 0:
        engine.run()
    elif mode == 1:
        engine.run(until=0.7)
        log.append(("clock", engine.now))
        engine.run()
    elif mode == 3:
        # Same-instant roots are pending in the near lane, but nothing
        # is due strictly before the horizon.
        engine.run(until=engine.now)
        assert engine.dispatched == 0
        log.append(("clock", engine.now))
        engine.run()
    else:
        try:
            value = engine.run(until=roots[0])
            log.append(("until-value", value))
        except SimulationError:
            # roots[0] was cancelled before it could dispatch — the
            # run exhausted the queue without processing the target.
            log.append(("until-deadlock",))
        engine.run()
    log.append(("clock", engine.now))
    log.append(("dispatched", engine.dispatched))
    return log


def run_variant(make_engine, plan, mode, variant):
    """:func:`run_case` under one dispatch variant; the variant's hook
    stream (empty for ``plain`` and ``profiled``) ends the log."""
    stream = []
    profiler = EngineProfiler()
    with profiled(profiler) if variant == "profiled" else nullcontext():
        engine = make_engine()
    if variant == "kind_log":
        engine.kind_log = stream
    elif variant == "observer":
        engine.add_observer(
            lambda now, event: stream.append(
                (now, type(event).__name__, event._value))
        )
    log = run_case(engine, plan, mode)
    if variant == "profiled":
        assert profiler.report()["events"] == engine.dispatched
    log.append((variant, stream))
    return log


@pytest.mark.parametrize("seed,variant", VARIANT_CASES)
def test_dispatch_order_matches_reference(seed, variant):
    """≥200 randomized schedules per seed, identical logs end to end."""
    rng = random.Random(seed)
    for case in range(CASES_PER_SEED):
        plan = make_plan(rng)
        mode = case % 4
        fast_log = run_variant(Engine, plan, mode, variant)
        ref_log = run_variant(ReferenceEngine, plan, mode, variant)
        assert fast_log == ref_log, (
            f"divergence at seed={seed} variant={variant} case={case} "
            f"mode={mode}: first mismatch "
            f"{next((a, b) for a, b in zip(fast_log, ref_log) if a != b)}"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_step_by_step_peek_matches_reference(seed):
    """Single-step dispatch and peek() agree while draining."""
    rng = random.Random(seed)
    for _ in range(20):
        plan = make_plan(rng)
        fast, ref = Engine(), ReferenceEngine()
        fast_log, ref_log = [], []
        fast_roots = [_spawn(fast, node, fast_log) for node in plan]
        ref_roots = [_spawn(ref, node, ref_log) for node in plan]
        assert len(fast_roots) == len(ref_roots)
        while True:
            # peek() may disagree transiently when the instant at the
            # top holds only cancelled entries (documented), but never
            # on a live queue head after a completed step.
            try:
                fast.step()
            except Exception as fast_error:  # noqa: BLE001 - compared below
                with pytest.raises(type(fast_error)):
                    ref.step()
                break
            ref.step()
            assert fast.now == ref.now
            assert fast.dispatched == ref.dispatched
            assert fast_log == ref_log
            if not fast._cancelled and not ref._cancelled:
                assert fast.peek() == ref.peek()


def test_same_instant_priority_burst_order():
    """A dense burst at one instant replays in (priority, seq) order."""
    for burst in range(1, 40):
        fast, ref = Engine(), ReferenceEngine()
        logs = ([], [])
        for engine, log in zip((fast, ref), logs):
            def kickoff(engine=engine, log=log):
                yield engine.timeout(0.5)
                for i in range(burst):
                    ev = Event(engine)
                    ev.succeed(i, priority=(i % 3))
                    ev.callbacks.append(
                        lambda e: log.append((e._value, engine.now))
                    )
                # Re-entrant zero-delay traffic behind the burst.
                tail = engine.defer(("tail", burst))
                tail.callbacks.append(
                    lambda e: log.append((e._value, engine.now))
                )
            engine.process(kickoff())
            engine.run()
        assert logs[0] == logs[1]
        assert len(logs[0]) == burst + 1


def test_serial_streams_match_reference():
    """World-scoped serial ids are insensitive to the queue swap."""
    rng = random.Random(7)
    plan = make_plan(rng)
    fast_log = run_case(Engine(), plan, 0)
    ref_log = run_case(ReferenceEngine(), plan, 0)
    fast_serials = [entry for entry in fast_log if entry[0] == "serial"]
    ref_serials = [entry for entry in ref_log if entry[0] == "serial"]
    assert fast_serials == ref_serials

"""Host-time engine profiler: where does the *simulator's* time go?

Everything else in ``repro.obs`` measures simulated seconds.  This
module measures wall-clock seconds spent inside the engine's dispatch
loop, attributed per (event kind, handler) bucket and rolled up into
the simulator's subsystems (migration, net, pager, flusher, scheduler,
serve, telemetry, ...).  It exists to make engine-performance work
trustworthy: the ROADMAP's "as fast as the hardware allows" item needs
to know which handler to make faster before touching any of them.

Design constraints, in order:

1. **Zero overhead when off.**  The profiler is opt-in
   (``repro profile`` / :func:`profiled`).  Disabled — the default —
   the engine's fast dispatch loop runs untouched; the only residue
   is one attribute read per ``Engine.run`` call.
2. **Zero perturbation when on.**  The profiler owns no loop: a
   profiled engine runs its one dispatch loop (``Engine._loop``),
   which calls the profiler's pre-dispatch, post-dispatch, roll and
   cancelled-skip hooks; they only *read* wall clocks, queue depths
   and handler names.  Event order, simulated
   time, exported traces and determinism hashes are byte-identical
   with the profiler on or off (pinned by test).
3. **Account for everything.**  The hooks' timestamps tile the whole
   ``run()`` interval: every nanosecond lands in a dispatch bucket,
   the far-lane roll row or the profiler's own named ``profiler``
   bucket, so attributed time covers ≥95% (in practice ≥99%) of
   measured engine wall time.

Export targets: a text top-N table (:func:`render_profile`) and a
speedscope-format flamegraph (:func:`write_speedscope`) loadable at
https://www.speedscope.app or with ``speedscope FILE``.
"""

import json
import re
import sys
from time import perf_counter

from repro.sim.process import Process

_allocated_blocks = sys.getallocatedblocks

#: Ordered (subsystem, substrings) rules mapping handler names — the
#: simulated-process names resolved from each event's callbacks — onto
#: the simulator's subsystems.  First hit wins; rules are ordered so
#: the more specific name fragments match before the generic ones
#: (``-nms-backer`` serves pages, so it must claim its handlers before
#: the bare ``-nms`` net rule sees them).
_SUBSYSTEM_RULES = (
    ("telemetry", ("telemetry-",)),
    ("flusher", ("-flusher", "-pump-", "-push-", "flush")),
    ("pager", ("-pager", "-imag-batch", "-nms-backer", "backer")),
    ("net", ("frag-", "send-", "-nms")),
    ("serve", ("serve-", "client-", "retry-", "s#-")),
    ("scheduler", ("stress-arrivals", "serve-arrivals", "follow-",
                   "migrate-", "balancer", "move-")),
    ("migration", ("-migmgr", "-ship-core", "-ship-rimas", "trial-",
                   "precopy-", "chain-", "insert", "excise")),
    ("faults", ("fault-crash-",)),
    ("workload", ("job-", "stage-", "p#", "c#")),
)


def classify_handler(name):
    """The subsystem a handler (process) name belongs to."""
    for subsystem, fragments in _SUBSYSTEM_RULES:
        for fragment in fragments:
            if fragment in name:
                return subsystem
    return "other"


_DIGITS = re.compile(r"\d+")


def normalize(name):
    """Collapse per-instance ids so buckets stay low-cardinality:
    ``follow-p03`` and ``follow-p17`` both become ``follow-p#``."""
    return _DIGITS.sub("#", name)


class EngineProfiler:
    """Wall-clock cost attribution for one or more engines.

    One profiler may observe several engines (a sweep builds a fresh
    world per trial); buckets accumulate across all of them.  Not
    thread-safe — the simulator is single-threaded by construction.
    """

    def __init__(self):
        #: (event kind, handler) -> [dispatches, self seconds, net
        #: allocated blocks].  Handler names are normalised.
        self.buckets = {}
        #: Wall seconds inside ``Engine.run`` dispatch loops.
        self.run_wall_s = 0.0
        #: The profiler's own bookkeeping time (a named cost center —
        #: it is part of the measured wall time, so it must be
        #: attributed like everything else).
        self.overhead_s = 0.0
        # Event-queue operation costs, split per lane of the two-lane
        # queue.  Near-lane pops are timed by the pre-dispatch hook (a
        # subset of the enclosing handler's bucket, reported
        # separately for visibility); far-lane pops happen during
        # *rolls* — between events — so their time is attributed to a
        # dedicated ``queue/far-lane roll`` cost center.  Pushes are
        # timed via the schedule wrapper installed by :meth:`attach`.
        self.near_pops = 0
        self.near_pop_s = 0.0
        self.near_pushes = 0
        self.near_push_s = 0.0
        self.far_pops = 0
        self.far_pop_s = 0.0
        self.far_pushes = 0
        self.far_push_s = 0.0
        self.rolls = 0
        #: Cancelled entries dropped at pop time (never dispatched).
        self.queue_skipped = 0
        #: Deepest each lane — and the queue as a whole — ever got.
        self.peak_near_depth = 0
        self.peak_far_depth = 0
        self.peak_queue_depth = 0
        self.engines = 0
        self.run_calls = 0
        self.events = 0
        # raw handler name -> (normalised label, subsystem): interning
        # keeps per-dispatch attribution to two dict hits.
        self._labels = {}
        # Per-dispatch state handed from the pre- to the post-dispatch
        # hook, and the timeline mark (see the dispatch hooks).
        self._callbacks = None
        self._blocks = 0
        self._mark = 0.0

    def __repr__(self):
        return (
            f"<EngineProfiler engines={self.engines} events={self.events} "
            f"wall={self.run_wall_s:.3f}s>"
        )

    # -- legacy whole-queue totals ----------------------------------------------
    @property
    def queue_pushes(self):
        """Pushes across both lanes (legacy whole-queue total)."""
        return self.near_pushes + self.far_pushes

    @property
    def queue_push_s(self):
        return self.near_push_s + self.far_push_s

    @property
    def queue_pops(self):
        """Pops across both lanes: near-lane dispatch pops plus
        far-lane entries moved during rolls."""
        return self.near_pops + self.far_pops

    @property
    def queue_pop_s(self):
        return self.near_pop_s + self.far_pop_s

    # -- attachment -------------------------------------------------------------
    def attach(self, engine):
        """Adopt ``engine``: hook its dispatch, time its pushes and runs.

        ``Engine.__init__`` calls this while :class:`profiled` is
        active, so each engine is adopted exactly once, before its first
        push.  As ``engine.profiler`` it has the engine's dispatch loop
        call the dispatch hooks below.  The ``schedule`` and ``run``
        wrappers call the original methods unchanged, so scheduling
        semantics (ordering, validation, lane routing) are identical.
        The schedule wrapper classifies each push by replaying the
        routing test (same-instant → near lane, strictly future →
        far-lane heap) and records depth peaks — exact, since a lane
        grows only by a push or (the near lane) a roll, which
        :meth:`on_roll` measures.  The run wrapper opens and closes the
        timeline the dispatch hooks tile.
        """
        self.engines += 1
        engine.profiler = self
        cls = type(engine)
        profiler = self

        def schedule(event, delay=0.0, priority=None):
            t0 = perf_counter()
            cls.schedule(engine, event, delay, priority)
            elapsed = perf_counter() - t0
            near_depth = (len(engine._lane_urgent) + len(engine._lane_normal)
                          + len(engine._lane_deferred))
            far_depth = len(engine._heap)
            now = engine._now
            if delay == 0.0 or now + delay == now:
                profiler.near_pushes += 1
                profiler.near_push_s += elapsed
                if near_depth > profiler.peak_near_depth:
                    profiler.peak_near_depth = near_depth
            else:
                profiler.far_pushes += 1
                profiler.far_push_s += elapsed
                if far_depth > profiler.peak_far_depth:
                    profiler.peak_far_depth = far_depth
            if near_depth + far_depth > profiler.peak_queue_depth:
                profiler.peak_queue_depth = near_depth + far_depth

        def run(until=None):
            profiler.run_calls += 1
            dispatched = engine.dispatched
            entered = profiler._mark = perf_counter()
            try:
                return cls.run(engine, until)
            finally:
                exited = perf_counter()
                profiler.events += engine.dispatched - dispatched
                profiler.overhead_s += exited - profiler._mark
                profiler.run_wall_s += exited - entered

        engine.schedule = schedule
        engine.run = run

    # -- attribution ------------------------------------------------------------
    def _bucket_key(self, event, callbacks):
        """(event kind, handler label, subsystem) for one dispatch.

        The handler is the simulated process the event resumes — the
        first ``Process._resume`` callback's owner — falling back to
        the event's own identity (a finishing Process, a Condition
        check, a bare observer callable).
        """
        name = None
        if callbacks:
            for callback in callbacks:
                owner = getattr(callback, "__self__", None)
                if isinstance(owner, Process):
                    name = owner.name
                    break
            else:
                owner = getattr(callbacks[0], "__self__", None)
                if owner is not None:
                    name = type(owner).__name__
                else:
                    name = getattr(
                        callbacks[0], "__qualname__", "(callable)"
                    )
        elif isinstance(event, Process):
            name = event.name
        else:
            name = "(no handler)"
        cached = self._labels.get(name)
        if cached is None:
            label = normalize(name)
            cached = self._labels[name] = (label, classify_handler(label))
        return event.__class__.__name__, cached[0], cached[1]

    # -- dispatch hooks (called by Engine._loop) --------------------------------
    # ``_mark`` is where the unattributed part of the current run()
    # starts: the run wrapper sets it at entry, and each clock read
    # below charges the time since the mark to one cost center and
    # moves it.  The run's wall time is thereby tiled exactly by the
    # dispatch buckets, the far-lane roll row and the profiler's own
    # bookkeeping row.
    def pre_dispatch(self, event):
        """Before ``event``'s callbacks run: time its near-lane pop.

        The pop stays unattributed (it is a subset of the bucket the
        post-dispatch hook charges); ``near_pop_s`` reports it
        separately for visibility.
        """
        self.near_pops += 1
        self.near_pop_s += perf_counter() - self._mark
        # The callbacks list is consumed by dispatch; keep a reference
        # so the handler can be named afterwards, outside the timed
        # window.
        self._callbacks = event.callbacks
        self._blocks = _allocated_blocks()

    def post_dispatch(self, now, event):
        """After ``event``'s callbacks and observers: charge pop plus
        dispatch to its bucket; the bookkeeping that follows is the
        profiler's own overhead."""
        t = perf_counter()
        allocated = _allocated_blocks() - self._blocks
        key = self._bucket_key(event, self._callbacks)
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = self.buckets[key] = [0, 0.0, 0]
        bucket[0] += 1
        bucket[1] += t - self._mark
        bucket[2] += allocated
        self._mark = perf_counter()
        self.overhead_s += self._mark - t

    def on_roll(self, engine):
        """After a roll: charge it to the ``queue/far-lane roll`` cost
        center (rolls happen *between* events, so no handler bucket
        could own them).  The near lane was empty before the roll, so
        its depth now is the number of entries rolled."""
        t = perf_counter()
        self.far_pop_s += t - self._mark
        self._mark = t
        self.rolls += 1
        rolled = (len(engine._lane_urgent) + len(engine._lane_normal)
                  + len(engine._lane_deferred))
        self.far_pops += rolled
        if rolled > self.peak_near_depth:
            self.peak_near_depth = rolled

    def on_skip(self, event):
        """A cancelled entry was popped and dropped; its pop time is
        charged with whatever the next clock read closes."""
        self.near_pops += 1
        self.queue_skipped += 1

    # -- reporting --------------------------------------------------------------
    def cost_centers(self):
        """Buckets as dicts, most expensive first, with shares of the
        measured engine wall time."""
        total = self.run_wall_s or 1.0
        rows = [
            {
                "subsystem": subsystem,
                "handler": handler,
                "event": kind,
                "count": count,
                "self_s": self_s,
                "share": self_s / total,
                "alloc_blocks": alloc,
            }
            for (kind, handler, subsystem), (count, self_s, alloc)
            in self.buckets.items()
        ]
        if self.far_pop_s:
            # Rolls happen between events, so no handler bucket can own
            # them; a named row keeps the timeline tiling exactly.
            rows.append({
                "subsystem": "queue",
                "handler": "far-lane roll",
                "event": "-",
                "count": self.rolls,
                "self_s": self.far_pop_s,
                "share": self.far_pop_s / total,
                "alloc_blocks": 0,
            })
        if self.overhead_s:
            rows.append({
                "subsystem": "profiler",
                "handler": "bookkeeping",
                "event": "-",
                "count": self.run_calls,
                "self_s": self.overhead_s,
                "share": self.overhead_s / total,
                "alloc_blocks": 0,
            })
        rows.sort(key=lambda row: (-row["self_s"], row["handler"],
                                   row["event"]))
        return rows

    def subsystems(self):
        """Wall seconds rolled up per subsystem, most expensive first."""
        totals = {}
        for row in self.cost_centers():
            totals[row["subsystem"]] = (
                totals.get(row["subsystem"], 0.0) + row["self_s"]
            )
        return dict(
            sorted(totals.items(), key=lambda item: -item[1])
        )

    @property
    def attributed_s(self):
        """Seconds attributed to named cost centers (incl. the
        far-lane roll and profiler rows)."""
        return (
            sum(self_s for _, self_s, _ in self.buckets.values())
            + self.far_pop_s
            + self.overhead_s
        )

    @property
    def coverage(self):
        """Attributed share of the measured engine wall time."""
        if self.run_wall_s <= 0:
            return 1.0
        return min(1.0, self.attributed_s / self.run_wall_s)

    def report(self, command=None, command_wall_s=None, exit_code=None):
        """The machine-readable profile (``repro profile --json``)."""
        events_per_s = (
            self.events / self.run_wall_s if self.run_wall_s > 0 else 0.0
        )
        data = {
            "engines": self.engines,
            "run_calls": self.run_calls,
            "events": self.events,
            "engine_wall_s": self.run_wall_s,
            "events_per_s": events_per_s,
            "attributed_s": self.attributed_s,
            "coverage": self.coverage,
            "queue": {
                "pushes": self.queue_pushes,
                "push_s": self.queue_push_s,
                "pops": self.queue_pops,
                "pop_s": self.queue_pop_s,
                "peak_depth": self.peak_queue_depth,
                "skipped": self.queue_skipped,
                "near": {
                    "pushes": self.near_pushes,
                    "push_s": self.near_push_s,
                    "pops": self.near_pops,
                    "pop_s": self.near_pop_s,
                    "peak_depth": self.peak_near_depth,
                },
                "far": {
                    "pushes": self.far_pushes,
                    "push_s": self.far_push_s,
                    "pops": self.far_pops,
                    "pop_s": self.far_pop_s,
                    "peak_depth": self.peak_far_depth,
                    "rolls": self.rolls,
                },
            },
            "subsystems": self.subsystems(),
            "cost_centers": self.cost_centers(),
        }
        if command is not None:
            data["command"] = list(command)
        if command_wall_s is not None:
            data["command_wall_s"] = command_wall_s
        if exit_code is not None:
            data["exit_code"] = exit_code
        return data


class profiled:
    """Context manager installing ``profiler`` as the build-time hook.

    Every :class:`~repro.sim.engine.Engine` constructed inside the
    ``with`` block is attached to the profiler (see
    :meth:`EngineProfiler.attach`); engines built before or after are
    untouched.  Nests safely (restores whatever hook was active on
    exit).
    """

    def __init__(self, profiler):
        self.profiler = profiler
        self._previous = None

    def __enter__(self):
        from repro.sim import engine as engine_module

        self._previous = engine_module.PROFILER
        engine_module.PROFILER = self.profiler
        return self.profiler

    def __exit__(self, *exc):
        from repro.sim import engine as engine_module

        engine_module.PROFILER = self._previous
        return False


# -- rendering -------------------------------------------------------------------
def render_profile(report, top=15):
    """Human-readable top-N cost-center table for one profile report."""
    lines = []
    events = report["events"]
    wall = report["engine_wall_s"]
    if not events:
        lines.append("no engine activity recorded (the command never "
                     "ran a simulation)")
        return "\n".join(lines)
    lines.append(
        f"engine wall time  {wall:.3f}s over {report['run_calls']} run(s), "
        f"{report['engines']} engine(s)"
    )
    lines.append(
        f"events dispatched {events:,}  "
        f"({report['events_per_s']:,.0f} events/s host)"
    )
    queue = report["queue"]
    lines.append(
        f"event queue       {queue['pushes']:,} pushes "
        f"({queue['push_s'] * 1e3:.1f}ms), {queue['pops']:,} pops "
        f"({queue['pop_s'] * 1e3:.1f}ms), peak depth {queue['peak_depth']}"
    )
    near, far = queue.get("near"), queue.get("far")
    if near and far:
        lines.append(
            f"  near lane       {near['pushes']:,} pushes, "
            f"{near['pops']:,} pops, peak depth {near['peak_depth']}"
        )
        lines.append(
            f"  far lane        {far['pushes']:,} pushes, "
            f"{far['pops']:,} pops over {far['rolls']:,} rolls, "
            f"peak depth {far['peak_depth']}"
        )
    lines.append(
        f"attributed        {report['attributed_s']:.3f}s "
        f"({100 * report['coverage']:.1f}% of engine wall time)"
    )
    lines.append("")
    lines.append(f"{'subsystem':<12} {'handler':<26} {'event':<10} "
                 f"{'count':>9} {'self':>9}  {'share':>6} {'allocs':>9}")
    for row in report["cost_centers"][:top]:
        lines.append(
            f"{row['subsystem']:<12} {row['handler']:<26.26} "
            f"{row['event']:<10.10} {row['count']:>9,} "
            f"{row['self_s'] * 1e3:>7.1f}ms  {100 * row['share']:>5.1f}% "
            f"{row['alloc_blocks']:>9,}"
        )
    remaining = len(report["cost_centers"]) - top
    if remaining > 0:
        lines.append(f"... {remaining} more cost center(s); use --json "
                     "for the full list")
    lines.append("")
    lines.append("per-subsystem rollup:")
    for subsystem, seconds in report["subsystems"].items():
        share = seconds / wall if wall else 0.0
        lines.append(f"  {subsystem:<12} {seconds * 1e3:>9.1f}ms  "
                     f"{100 * share:>5.1f}%")
    return "\n".join(lines)


def build_speedscope(report, name="repro profile"):
    """The speedscope file object for one profile report.

    One weighted sample per cost center, with a
    subsystem → handler → event-kind stack, so the flamegraph rolls up
    by subsystem at the root.
    """
    frames = []
    frame_ids = {}

    def frame(label):
        fid = frame_ids.get(label)
        if fid is None:
            fid = frame_ids[label] = len(frames)
            frames.append({"name": label})
        return fid

    samples = []
    weights = []
    for row in report["cost_centers"]:
        stack = [frame(row["subsystem"]), frame(row["handler"])]
        if row["event"] != "-":
            stack.append(frame(f"{row['handler']} [{row['event']}]"))
        samples.append(stack)
        weights.append(round(row["self_s"] * 1e6, 3))
    total = round(sum(weights), 3)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": "microseconds",
            "startValue": 0,
            "endValue": total,
            "samples": samples,
            "weights": weights,
        }],
        "name": name,
        "activeProfileIndex": 0,
        "exporter": "repro.obs.prof",
    }


def write_speedscope(path, report, name="repro profile"):
    """Write the speedscope flamegraph for ``report`` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(build_speedscope(report, name=name), handle,
                  sort_keys=True, indent=1)
        handle.write("\n")
    return path

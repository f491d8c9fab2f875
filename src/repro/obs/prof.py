"""Host-time engine profiler: where does the *simulator's* time go?

Everything else in ``repro.obs`` measures simulated seconds; this
module samples the host's.  While a command runs, a daemon thread reads
the profiled thread's stack every :data:`INTERVAL_S` seconds and keeps
its ``repro`` frames, outermost first, each named by its declared layer
(:mod:`repro.obs.layers`) and ``module:function``.  Standard-library
time is credited to the ``repro`` frame that called it.  Innermost
frames give the per-layer shares and per-function buckets; whole stacks
give the speedscope flamegraph (https://www.speedscope.app).

The profiler installs nothing in the engine.  An
:class:`~repro.sim.engine.Engine` built while :func:`profiled` is
active appends itself to ``EngineProfiler.engines``, whose own
``dispatched`` and ``wall_s`` counters give the event count and engine
wall time.  The sampler only reads stacks, so simulated outputs are
byte-identical with profiling on or off; its cost is measured in
docs/observability.md.
"""

import json
import sys
import threading
import time
from contextlib import contextmanager

from repro.obs.layers import LAYERS, LayerMap
from repro.sim import engine as engine_module

#: Seconds between stack samples.
INTERVAL_S = 0.002


class EngineProfiler:
    """Stack samples of one thread, plus the engines it built.

    One profiler may observe several engines (a sweep builds a fresh
    world per trial); samples and counters accumulate across all of
    them.  Engines are held until the profiler is dropped.
    """

    def __init__(self):
        #: Engines built while :func:`profiled` was active.
        self.engines = []
        #: Sampled stack -> samples.  A stack is a tuple of
        #: ``(layer, "module:function")`` pairs, outermost first.
        self.stacks = {}
        #: Samples that found no ``repro`` frame.
        self.outside = 0
        self._layer_of = LayerMap()
        # id(code) -> (code, (layer, name) or None outside ``repro``):
        # a code object hashes all its constants, so key by id, pinned.
        self._names = {}
        self._stop = threading.Event()
        self._thread = None
        self._switch = None

    def __repr__(self):
        return (f"<EngineProfiler engines={len(self.engines)} "
                f"stacks={len(self.stacks)}>")

    def start(self):
        """Sample the calling thread until :meth:`stop`.  The switch
        interval drops to the sampling period meanwhile, so that thread
        yields the interpreter lock often enough for samples to land."""
        self._switch = sys.getswitchinterval()
        sys.setswitchinterval(INTERVAL_S)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample, args=(threading.get_ident(),),
            name="engine-profiler", daemon=True,
        )
        self._thread.start()

    def stop(self):
        """End sampling and restore the switch interval."""
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("engine profiler's sampler did not stop")
        sys.setswitchinterval(self._switch)

    def _sample(self, ident):
        current_frames = sys._current_frames
        stopped = self._stop.is_set
        sleep = time.sleep
        names = self._names
        layer_of = self._layer_of
        stacks = self.stacks
        while True:
            sleep(INTERVAL_S)
            if stopped():
                return  # no sample of the stopping thread
            frame = current_frames().get(ident)
            stack = []
            while frame is not None:
                code = frame.f_code
                entry = names.get(id(code))
                if entry is None:
                    layer = layer_of(code.co_filename)
                    entry = names[id(code)] = (code, layer and (
                        layer,
                        f"{frame.f_globals.get('__name__')}:{code.co_name}",
                    ))
                if entry[1]:
                    stack.append(entry[1])
                frame = frame.f_back
            if stack:
                stack.reverse()
                key = tuple(stack)
                stacks[key] = stacks.get(key, 0) + 1
            else:
                self.outside += 1
            frame = None  # hold no frame (and its locals) while asleep

    def report(self, **extra):
        """The machine-readable profile (``repro profile --json``).

        ``layers`` maps every declared layer to its share of the
        samples that found a ``repro`` frame (the shares sum to 1);
        ``functions`` buckets those samples by their innermost frame,
        most sampled first; ``coverage`` is their share of all samples.
        ``extra`` (the wrapped command, say) is merged in as given.
        """
        in_program = sum(self.stacks.values())
        per_layer = dict.fromkeys(LAYERS, 0)
        per_function = {}
        for stack, count in self.stacks.items():
            innermost = stack[-1]
            per_layer[innermost[0]] += count
            per_function[innermost] = per_function.get(innermost, 0) + count
        share = 1.0 / in_program if in_program else 0.0
        events = sum(engine.dispatched for engine in self.engines)
        wall_s = sum(engine.wall_s for engine in self.engines)
        return {
            "engines": len(self.engines),
            "events": events,
            "engine_wall_s": wall_s,
            "events_per_s": events / wall_s if wall_s > 0 else 0.0,
            "interval_s": INTERVAL_S,
            "samples": in_program + self.outside,
            "coverage": in_program / (in_program + self.outside)
            if in_program else 0.0,
            "layers": {
                layer: count * share for layer, count in per_layer.items()
            },
            "functions": [
                {"layer": layer, "function": function, "samples": count,
                 "share": count * share}
                for (layer, function), count in sorted(
                    per_function.items(), key=lambda item: (-item[1], item[0])
                )
            ],
            "stacks": [
                {"stack": [list(frame) for frame in stack], "samples": count}
                for stack, count in self.stacks.items()
            ],
            **extra,
        }


@contextmanager
def profiled(profiler):
    """Sample the ``with`` block with ``profiler``.

    Every :class:`~repro.sim.engine.Engine` constructed inside the block
    is appended to ``profiler.engines``; engines built before or after
    are untouched.  Nests safely (restores whatever list was active).
    """
    previous = engine_module.PROFILED
    engine_module.PROFILED = profiler.engines
    profiler.start()
    try:
        yield profiler
    finally:
        profiler.stop()
        engine_module.PROFILED = previous


# -- rendering -------------------------------------------------------------------
def render_profile(report, top=15):
    """Human-readable per-layer and top-N function tables."""
    lines = [
        f"engine wall time  {report['engine_wall_s']:.3f}s over "
        f"{report['engines']} engine(s), {report['events']:,} events "
        f"dispatched ({report['events_per_s']:,.0f} events/s host)",
        f"sampled           {report['samples']:,} stacks "
        f"({report['interval_s'] * 1e3:g}ms period); coverage "
        f"{100 * report['coverage']:.1f}% (samples in repro code)",
    ]
    if not report["functions"]:
        return "\n".join(lines)
    lines += ["", "per-layer host share:"]
    for layer, share in sorted(report["layers"].items(),
                               key=lambda item: -item[1]):
        if share:
            lines.append(f"  {layer:<10} {100 * share:>5.1f}%")
    lines += ["", f"{'layer':<10} {'function':<48} {'samples':>8} "
                  f"{'share':>6}"]
    for row in report["functions"][:top]:
        lines.append(
            f"{row['layer']:<10} {row['function']:<48.48} "
            f"{row['samples']:>8,} {100 * row['share']:>5.1f}%"
        )
    remaining = len(report["functions"]) - top
    if remaining > 0:
        lines.append(f"... {remaining} more function(s); use --json "
                     "for the full list")
    return "\n".join(lines)


def build_speedscope(report, name="repro profile"):
    """The speedscope file object for one profile report: one weighted
    sample per distinct sampled stack, outermost frame first."""
    frame_ids = {}
    samples = [
        [frame_ids.setdefault(f"{function} [{layer}]", len(frame_ids))
         for layer, function in row["stack"]]
        for row in report["stacks"]
    ]
    period_ms = report["interval_s"] * 1e3
    weights = [round(row["samples"] * period_ms, 6)
               for row in report["stacks"]]
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": [{"name": label} for label in frame_ids]},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": "milliseconds",
            "startValue": 0,
            "endValue": round(sum(weights), 6),
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

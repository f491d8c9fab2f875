"""Host-time probes the benchmark installs from outside the program.

Nothing under ``src/`` knows about them.  :class:`Probes` wraps a few
public entry points for the length of one run: ``Testbed.world`` and
``build_process`` (set-up), ``Engine.run`` (the event loop) and
``MetricsCollector.mark`` (migration phase boundaries).
:class:`StackSampler` is the traced run's per-layer instrument.
"""

import os
import sys
import threading
import time

#: Migration phases whose simulated duration the mark probe sums.
MARKED_PHASES = ("excise", "insert")


def pin_to_one_core():
    """Keep this process on one core for the rest of its life.

    A move between cores mid-run costs the moved process its caches; on
    a shared host such moves add to the run-to-run spread.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class PhaseTimer:
    """Self time per wrapped call name, plus every span kept in memory.

    A span's self time is its duration minus the time its nested spans
    cover, so the phase totals never count a second twice.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: name -> self seconds.
        self.totals = {}
        #: (name, start, end, depth) per finished call, in finish order.
        self.spans = []
        self._stack = []

    def wrap(self, name, func):
        """``func`` with every call timed under ``name``."""
        clock = self.clock
        stack = self._stack
        totals = self.totals
        spans = self.spans

        def timed(*args, **kwargs):
            start = clock()
            nested = [0.0]
            stack.append(nested)
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                totals[name] = totals.get(name, 0.0) + elapsed - nested[0]
                if stack:
                    stack[-1][0] += elapsed
                spans.append((name, start, end, len(stack)))

        return timed


class Probes:
    """Context manager: wraps the program's entry points for one run.

    ``timer.totals`` holds host self-seconds under ``setup_world``,
    ``setup_build`` and ``run``; ``events`` counts dispatched simulation
    events; ``phase_s`` sums the simulated seconds between each
    migration's ``excise``/``insert`` start and end marks, paired per
    simulated process so concurrent migrations do not mix.
    """

    def __init__(self):
        self.timer = PhaseTimer()
        self.events = 0
        self.phase_s = dict.fromkeys(MARKED_PHASES, 0.0)
        self._opened = {}
        self._saved = []

    def __enter__(self):
        from repro.metrics.collector import MetricsCollector
        from repro.sim.engine import Engine
        from repro.testbed import Testbed
        from repro.workloads import builder

        timer = self.timer
        self._patch(Testbed, "world", timer.wrap("setup_world", Testbed.world))
        build = builder.build_process
        timed_build = timer.wrap("setup_build", build)
        # Callers bind the name at import, so patch every module holding it.
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and (
                getattr(module, "build_process", None) is build
            ):
                self._patch(module, "build_process", timed_build)
        self._patch(Engine, "run", timer.wrap("run", self._counting(Engine.run)))
        self._patch(MetricsCollector, "mark", self._pairing(MetricsCollector.mark))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)
        return False

    def _patch(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _counting(self, run):
        def counted(engine, *args, **kwargs):
            before = engine.dispatched
            try:
                return run(engine, *args, **kwargs)
            finally:
                self.events += engine.dispatched - before

        return counted

    def _pairing(self, mark):
        opened = self._opened
        totals = self.phase_s

        def paired(collector, name):
            mark(collector, name)
            phase, _, edge = name.rpartition(".")
            if phase in totals:
                engine = collector.engine
                key = (engine.active_process, phase)
                if edge == "start":
                    opened[key] = engine.now
                elif key in opened:
                    totals[phase] += engine.now - opened.pop(key)

        return paired


class StackSampler:
    """Credits the main thread's innermost program frame to its layer.

    A daemon thread wakes every ``interval`` seconds, reads the main
    thread's stack and walks outwards to the first frame whose file
    ``layer_of`` maps to a layer.  The interpreter's switch interval is
    lowered to the same period while sampling, so the main thread hands
    over the lock often enough for the wake-ups to land on time.
    """

    def __init__(self, layer_of, interval=0.002):
        self.layer_of = layer_of
        self.interval = interval
        #: layer -> samples.
        self.counts = {}
        #: Samples that found no program frame (benchmark code, start-up).
        self.outside = 0
        self._stop = threading.Event()
        self._thread = None
        self._switch = None

    def start(self):
        self._switch = sys.getswitchinterval()
        sys.setswitchinterval(self.interval)
        self._thread = threading.Thread(
            target=self._loop, args=(threading.main_thread().ident,),
            name="stack-sampler", daemon=True,
        )
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("stack sampler did not stop")
        sys.setswitchinterval(self._switch)

    def _loop(self, ident):
        current_frames = sys._current_frames
        layer_of = self.layer_of
        counts = self.counts
        sleep = time.sleep
        interval = self.interval
        stopped = self._stop.is_set
        while not stopped():
            sleep(interval)
            frame = current_frames().get(ident)
            while frame is not None:
                layer = layer_of(frame.f_code.co_filename)
                if layer is not None:
                    counts[layer] = counts.get(layer, 0) + 1
                    break
                frame = frame.f_back
            else:
                self.outside += 1
            frame = None  # hold no frame (and its locals) while asleep

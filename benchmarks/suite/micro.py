"""Micro metrics: host time of five primitives of the simulation substrate.

Each primitive is a plain function of prepared input, so the timing
covers only the primitive.  :func:`measure_all` reports the median of
``repeats`` timings of each, scaled to the unit its metric name ends in.
"""

import random
import time
from statistics import median

from repro.accent.constants import PAGE_SIZE
from repro.accent.vm.address_space import AddressSpace
from repro.accent.vm.intervals import IntervalMap
from repro.accent.vm.page import Page
from repro.sim import Engine, Store


def thousand_timeouts():
    """Schedule and process 1,000 timeouts."""
    engine = Engine()
    for i in range(1000):
        engine.timeout(i * 0.001)
    engine.run()
    return engine.now


def ping_pong(rounds=200):
    """Two coroutine processes bouncing a message through two Stores."""
    engine = Engine()
    a_to_b, b_to_a = Store(engine), Store(engine)

    def ping():
        for _ in range(rounds):
            yield a_to_b.put("ball")
            yield b_to_a.get()

    def pong():
        for _ in range(rounds):
            yield a_to_b.get()
            yield b_to_a.put("ball")

    engine.process(ping())
    engine.process(pong())
    engine.run()
    return engine.now


def churn_ops(seed=42, count=500):
    """Random (start, length, value) IntervalMap insertions."""
    rng = random.Random(seed)
    return [
        (rng.randrange(10_000), rng.randrange(1, 64), rng.randrange(3))
        for _ in range(count)
    ]


def interval_churn(ops):
    """Insert ``ops`` into a fresh IntervalMap."""
    imap = IntervalMap()
    for start, length, value in ops:
        imap.add(start, start + length, value)
    return len(imap)


def lisp_scale_space(seed=7, pages=4000):
    """A 4 GB address space with ``pages`` scattered real pages."""
    space = AddressSpace()
    space.validate(0, 4 * 1024**3)
    rng = random.Random(seed)
    for index in sorted(rng.sample(range(1_000_000), pages)):
        space.install_page(index, Page())
    return space


def amap_build(space):
    """Build the accessibility map of ``space``."""
    return space.amap()


def page_cow():
    """Share a page, then break the share with a write."""
    page = Page(b"original")
    page.share()
    private = page.write(0, b"modified")
    page.release()
    return private


def _median_seconds(func, args, repeats, inner):
    clock = time.perf_counter
    samples = []
    for _ in range(repeats):
        start = clock()
        for _ in range(inner):
            func(*args)
        samples.append((clock() - start) / inner)
    return median(samples)


def measure_all(repeats=15):
    """``{metric: value}`` for the five primitives (median of ``repeats``)."""
    ops = churn_ops()
    space = lisp_scale_space()
    if not (
        interval_churn(ops) > 0
        and amap_build(space).real_bytes == 4000 * PAGE_SIZE
        and page_cow().data[:8] == b"modified"
    ):
        raise RuntimeError("a micro primitive returned a wrong result")
    return {
        "sim.timeouts_1k_us": 1e6 * _median_seconds(thousand_timeouts, (), repeats, 2),
        "sim.ping_pong_us": 1e6 * _median_seconds(ping_pong, (), repeats, 2),
        "vm.amap_build_ms": 1e3 * _median_seconds(amap_build, (space,), repeats, 1),
        "vm.interval_churn_us": 1e6 * _median_seconds(interval_churn, (ops,), repeats, 4),
        "vm.page_cow_us": 1e6 * _median_seconds(page_cow, (), repeats, 1000),
    }

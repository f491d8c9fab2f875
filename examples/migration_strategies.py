#!/usr/bin/env python3
"""Strategy × prefetch sweep for one workload (Figures 4-1/4-2 style).

Runs the full lazy-transfer design space for a chosen representative —
pure-IOU and resident-set shipment with 0/1/3/7/15 pages of prefetch —
against the pure-copy baseline, and draws the paper's end-to-end
speedup chart as ASCII bars.

Run:  python examples/migration_strategies.py [workload]
      (try pm-start for the breakeven behaviour, lisp-t for huge wins)
"""

import sys

from repro import PURE_COPY, PURE_IOU, RESIDENT_SET, Testbed

PREFETCHES = (0, 1, 3, 7, 15)


def bar(value, scale=0.6, width=36):
    """Signed horizontal bar centred on zero."""
    half = width // 2
    magnitude = min(half, int(abs(value) * scale))
    if value >= 0:
        return " " * half + "#" * magnitude
    return " " * (half - magnitude) + "-" * magnitude


def main():
    workload = sys.argv[1] if len(sys.argv) > 1 else "pm-start"
    bed = Testbed(seed=1987)

    baseline = bed.migrate(workload, strategy=PURE_COPY)
    base_te = baseline.transfer_plus_exec_s
    print(
        f"{workload}: pure-copy transfer {baseline.transfer_s:.1f}s + "
        f"remote exec {baseline.exec_s:.1f}s = {base_te:.1f}s\n"
    )
    print("end-to-end % speedup over pure-copy (negative = slowdown)")
    print(f"{'trial':>12} {'speedup':>9}  {'slowdown <':^18}|{'> speedup':^18}")

    for strategy in (PURE_IOU, RESIDENT_SET):
        for prefetch in PREFETCHES:
            result = bed.migrate(
                workload, strategy=strategy, options={"prefetch": prefetch}
            )
            speedup = 100.0 * (base_te - result.transfer_plus_exec_s) / base_te
            label = f"{'iou' if strategy == PURE_IOU else 'rs'}-pf{prefetch}"
            hit = result.prefetch_hit_ratio
            suffix = f"  (hit {hit:.0%})" if hit is not None else ""
            print(f"{label:>12} {speedup:>8.1f}%  {bar(speedup)}{suffix}")
        print()

    print(
        "Notes: prefetch of one page always helps; deep prefetch helps\n"
        "sequential programs (Pasmac) and hurts scattered ones (Lisp);\n"
        "resident sets rarely pay their way (paper §4.3.4)."
    )


if __name__ == "__main__":
    main()

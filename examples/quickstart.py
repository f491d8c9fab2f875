#!/usr/bin/env python3
"""Quickstart: migrate one process under all three transfer strategies.

Builds the paper's Minprog representative on host *alpha*, migrates it
to host *beta* under pure-copy, pure-IOU and resident-set transfer, and
prints the numbers the paper's evaluation is about: how long the
address-space transfer took, how long the program ran remotely, what
crossed the wire — and whether every page the program touched held
exactly the bytes it held before migration.

Run:  python examples/quickstart.py [workload]
"""

import sys

from repro import PURE_COPY, PURE_IOU, RESIDENT_SET, Testbed


def main():
    workload = sys.argv[1] if len(sys.argv) > 1 else "minprog"
    bed = Testbed(seed=1987)

    print(f"Migrating {workload!r} from alpha to beta\n")
    header = (
        f"{'strategy':>14}  {'transfer':>9}  {'remote exec':>11}  "
        f"{'bytes moved':>11}  {'msg time':>9}  {'verified':>8}"
    )
    print(header)
    print("-" * len(header))

    for strategy in (PURE_COPY, PURE_IOU, RESIDENT_SET):
        result = bed.migrate(workload, strategy=strategy)
        print(
            f"{strategy:>14}  {result.transfer_s:>8.2f}s  "
            f"{result.exec_s:>10.2f}s  {result.bytes_total:>11,}  "
            f"{result.message_handling_s:>8.2f}s  "
            f"{'yes' if result.verified else 'NO':>8}"
        )

    iou = bed.migrate(workload, strategy=PURE_IOU)
    copy = bed.migrate(workload, strategy=PURE_COPY)
    ratio = copy.transfer_s / iou.transfer_s
    print(
        f"\nCopy-on-reference shipped the address space {ratio:,.0f}x "
        f"faster than pure-copy,"
    )
    print(
        f"moving only {100 * iou.fraction_of_real_transferred:.1f}% of the "
        f"process's real memory ({iou.pages_demand} pages, on demand)."
    )


if __name__ == "__main__":
    main()

"""Record the CLI transcripts.

Usage::

    PYTHONPATH=src python -m tests.transcripts.regen

Only run this when a change to the CLI's output is *intentional*, and
say why in the commit message.  A regeneration that "fixes" a failing
replay without such a change hides a regression.
"""

import json
import tempfile

from tests.transcripts import CASES, TRANSCRIPTS, run_case


def main():
    recorded = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as directory:
            recorded[name] = run_case(name, directory)
    with open(TRANSCRIPTS, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    steps = sum(len(steps) for steps in recorded.values())
    print(f"{TRANSCRIPTS}: {len(recorded)} cases, {steps} steps")


if __name__ == "__main__":
    main()

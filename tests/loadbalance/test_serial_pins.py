"""Pin the serial balancer's exact outcomes.

Serial balancing (``Scenario.run(policy)`` with no ``inflight_cap``)
moves one job at a time.  Its trace is deliberately not in the golden
corpus; instead this test pins, per mix and policy, the makespan's
``repr``, every executed decision and every job's finish time.  The
mixes are the ones ``test_scenario.py`` exercises, under every policy,
plus loss and transfer-knob variants of the first mix.

Regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python -m tests.loadbalance.test_serial_pins
"""

import json
import os

import pytest

from repro.faults import FaultPlan, LossRule
from repro.loadbalance import (
    BreakevenPolicy,
    EagerCopyPolicy,
    NoMigrationPolicy,
    Scenario,
)

PINS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "serial_pins.json"
)

MIXES = {
    "giants": (["chess", "chess", "pm-mid", "minprog"], 3),
    "lisp": (["lisp-del", "lisp-del", "lisp-t"], 2),
    "pm": (["pm-mid", "pm-mid", "pm-end"], 2),
}

POLICIES = {
    "none": NoMigrationPolicy,
    "eager": EagerCopyPolicy,
    "breakeven": BreakevenPolicy,
    "breakeven-ws": lambda: BreakevenPolicy(use_working_set=True),
}

#: Extra variants of the "giants" mix under the breakeven policy.
VARIANTS = {
    "loss": {"faults": FaultPlan(loss=[LossRule(rate=0.05)])},
    "batched": {"options": {"batch": 8, "pipeline": 4}},
    "dedup": {"options": {"dedup": True}},
}


def cases():
    for mix in MIXES:
        for policy in POLICIES:
            yield f"{mix}/{policy}", mix, policy, {}
    for variant, kwargs in VARIANTS.items():
        yield f"giants/breakeven/{variant}", "giants", "breakeven", kwargs


CASES = {case_id: rest for case_id, *rest in cases()}


def outcome(mix, policy, kwargs):
    """The pinned view of one serial run."""
    workloads, hosts = MIXES[mix]
    result = Scenario(workloads, hosts=hosts, seed=1987, **kwargs).run(
        POLICIES[policy]()
    )
    return {
        "makespan_s": repr(result.makespan_s),
        "migrations": [str(decision) for decision in result.migrations],
        "finish_times": {
            name: repr(at) for name, at in result.finish_times.items()
        },
        "verified": result.verified,
    }


@pytest.fixture(scope="module")
def pins():
    with open(PINS_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_serial_balance_replays_pinned_outcome(pins, case_id):
    assert outcome(*CASES[case_id]) == pins[case_id]


def main():
    pinned = {case_id: outcome(*rest) for case_id, rest in CASES.items()}
    with open(PINS_PATH, "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{PINS_PATH}: {len(pinned)} cases")


if __name__ == "__main__":
    main()

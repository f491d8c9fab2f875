"""Fault plans: deterministic schedules of injected failures.

A :class:`FaultPlan` describes *what goes wrong and when* in one
simulated world — per-link fragment loss, link partitions over time
windows, host crashes and recoveries, and the residual-dependency
flusher configuration.  Plans are plain data: they load from JSON
(``repro migrate ... --faults PLAN.json``), round-trip through
:meth:`FaultPlan.to_dict`, and carry no simulation state, so the same
plan can drive many independent worlds.

Randomness (the per-fragment loss draw) comes from one named stream of
the world's :class:`~repro.sim.rng.SeededStreams`, so a seeded run
replays its drops exactly.
"""

import json
from dataclasses import dataclass
from typing import Optional


class FaultPlanError(Exception):
    """A malformed fault plan (bad JSON shape, impossible schedule)."""


def _window_open(start, end, now):
    """Whether ``now`` falls inside the [start, end) event window."""
    return now >= start and (end is None or now < end)


@dataclass(frozen=True)
class LossRule:
    """Drop each matching fragment with probability ``rate``.

    ``source``/``dest`` of ``None`` match any host; the window is
    ``[start, end)`` with ``end=None`` meaning forever.
    """

    rate: float
    source: Optional[str] = None
    dest: Optional[str] = None
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError(f"loss rate must be in [0, 1], got {self.rate}")
        if self.end is not None and self.end < self.start:
            raise FaultPlanError(
                f"loss window ends ({self.end}) before it starts ({self.start})"
            )

    def matches(self, source_name, dest_name, now):
        """Whether this rule governs a fragment on the wire right now."""
        if self.source is not None and self.source != source_name:
            return False
        if self.dest is not None and self.dest != dest_name:
            return False
        return _window_open(self.start, self.end, now)


@dataclass(frozen=True)
class Partition:
    """Sever all traffic between hosts ``a`` and ``b`` during a window.

    Partitions are symmetric: fragments in either direction are lost.
    """

    a: str
    b: str
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self):
        if self.end is not None and self.end < self.start:
            raise FaultPlanError(
                f"partition ends ({self.end}) before it starts ({self.start})"
            )

    def severs(self, source_name, dest_name, now):
        """Whether this partition eats a fragment on the wire now."""
        pair = {source_name, dest_name}
        return pair == {self.a, self.b} and _window_open(self.start, self.end, now)


@dataclass(frozen=True)
class Crash:
    """Host ``host`` dies at ``at``; optionally rejoins at ``recover_at``.

    A crashed host neither sends nor receives: every fragment touching
    it is dropped, which the reliable transport eventually surfaces as
    a :class:`~repro.faults.errors.TransportError`.
    """

    host: str
    at: float
    recover_at: Optional[float] = None

    def __post_init__(self):
        if self.at < 0:
            raise FaultPlanError(f"crash time must be >= 0, got {self.at}")
        if self.recover_at is not None and self.recover_at <= self.at:
            raise FaultPlanError(
                f"recovery ({self.recover_at}) must follow the crash ({self.at})"
            )


@dataclass(frozen=True)
class FlushConfig:
    """Residual-dependency flusher knobs (see :mod:`repro.cor.flusher`)."""

    enabled: bool = False
    batch_pages: int = 16
    interval_s: float = 0.05

    def __post_init__(self):
        if self.batch_pages < 1:
            raise FaultPlanError(
                f"flush batch must be >= 1 page, got {self.batch_pages}"
            )
        if self.interval_s < 0:
            raise FaultPlanError(
                f"flush interval must be >= 0, got {self.interval_s}"
            )


class FaultPlan:
    """One complete failure schedule for a simulated world."""

    #: Name of the SeededStreams stream the loss draws come from.
    RNG_STREAM = "faults"

    def __init__(self, loss=(), partitions=(), crashes=(), flush=None):
        self.loss = tuple(loss)
        self.partitions = tuple(partitions)
        self.crashes = tuple(crashes)
        self.flush = flush or FlushConfig()

    def __repr__(self):
        return (
            f"<FaultPlan loss={len(self.loss)} partitions={len(self.partitions)} "
            f"crashes={len(self.crashes)} flush={self.flush.enabled}>"
        )

    @property
    def empty(self):
        """True when the plan injects nothing (flusher may still run)."""
        return not (self.loss or self.partitions or self.crashes)

    # -- (de)serialisation -------------------------------------------------------
    @classmethod
    def from_dict(cls, data):
        """Build a plan from the JSON-shaped mapping ``data``."""
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault plan must be an object, got {type(data).__name__}")
        known = {"loss", "partitions", "crashes", "flush"}
        unknown = set(data) - known
        if unknown:
            raise FaultPlanError(
                f"unknown fault-plan keys {sorted(unknown)}; expected {sorted(known)}"
            )
        try:
            loss = [LossRule(**entry) for entry in data.get("loss", ())]
            partitions = [Partition(**entry) for entry in data.get("partitions", ())]
            crashes = [Crash(**entry) for entry in data.get("crashes", ())]
            flush_data = data.get("flush")
            flush = FlushConfig(**flush_data) if flush_data else None
        except TypeError as error:
            raise FaultPlanError(f"malformed fault plan entry: {error}") from None
        return cls(loss=loss, partitions=partitions, crashes=crashes, flush=flush)

    @classmethod
    def from_json(cls, path):
        """Load a plan from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as error:
                raise FaultPlanError(f"{path}: invalid JSON: {error}") from None
        return cls.from_dict(data)

    def to_dict(self):
        """The JSON-shaped mapping this plan round-trips through."""
        return {
            "loss": [vars(rule).copy() for rule in self.loss],
            "partitions": [vars(part).copy() for part in self.partitions],
            "crashes": [vars(crash).copy() for crash in self.crashes],
            "flush": vars(self.flush).copy(),
        }

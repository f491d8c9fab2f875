"""The fault-injection survey behind ``repro faults``.

A baseline trial, one trial per fragment-loss rate, and for each crash
time of the source a pair of trials, without and with the
residual-dependency flusher: the kill-vs-survive contrast of the
copy-on-reference caveat.
"""

from repro.faults.plan import Crash, FaultPlan, FlushConfig, LossRule
from repro.testbed import Testbed


class FaultSurvey:
    """The survey's plans, built (and so validated) up front; :meth:`run`
    runs one two-host trial per plan."""

    def __init__(self, workload="chess", strategy="pure-iou", seed=1987,
                 loss_rates=(0.05,), crash_times=(30.0,), flush_batch=64,
                 flush_interval=0.005):
        self.workload, self.strategy, self.seed = workload, strategy, seed
        flush = FlushConfig(
            enabled=True, batch_pages=flush_batch, interval_s=flush_interval,
        )
        #: ``(label, FaultPlan)`` per trial, in run order.
        self.plans = [("baseline", FaultPlan())] + [
            (f"loss={rate:g}", FaultPlan(loss=[LossRule(rate=rate)]))
            for rate in loss_rates
        ]
        for at in crash_times:
            crash = Crash(host="alpha", at=at)  # the trials' source host
            self.plans.append((f"crash@{at:g}", FaultPlan(crashes=[crash])))
            self.plans.append(
                (f"crash@{at:g}+flush", FaultPlan(crashes=[crash], flush=flush))
            )
        #: Per-trial report dicts and ``(label, obs)`` pairs, once run.
        self.trials, self.runs = [], []

    def run(self, instrument=False):
        """Run every trial in its own testbed; returns this survey."""
        for label, plan in self.plans:
            result = Testbed(
                seed=self.seed, instrument=instrument, faults=plan,
            ).migrate(self.workload, strategy=self.strategy)
            self.runs.append((label, result.obs))
            self.trials.append({
                "trial": label,
                "outcome": result.outcome,
                "drops": result.link_drops,
                "retransmits": result.retransmits,
                "duplicates": result.duplicates,
                "aborts": result.aborts,
                "kills": result.residual_kills,
                "flushed": result.flushed_pages,
                "verified": result.verified,
            })
        return self

    @property
    def ok(self):
        """A clean baseline, and every flushed crash trial survived."""
        return self.trials[0]["outcome"] == "completed" and all(
            row["outcome"] == "completed"
            for row in self.trials if row["trial"].endswith("+flush")
        )

    def to_dict(self):
        """Plain-data report: the ``--json`` form."""
        return {"workload": self.workload, "strategy": self.strategy,
                "seed": self.seed, "trials": self.trials}

    def report_rows(self):
        """A header and one row per trial; no run-metadata block."""
        return [
            f"{self.workload} under {self.strategy}, seed {self.seed}",
            f"{'trial':>18}  {'outcome':>9}  {'drops':>6}  {'retx':>5}  "
            f"{'dup':>4}  {'flushed':>7}  {'verified':>8}",
        ] + [
            f"{row['trial']:>18}  {row['outcome']:>9}  {row['drops']:>6}  "
            f"{row['retransmits']:>5}  {row['duplicates']:>4}  "
            f"{row['flushed']:>7}  {str(row['verified']):>8}"
            for row in self.trials
        ]

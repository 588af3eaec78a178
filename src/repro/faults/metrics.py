"""Availability and recovery metrics for faulted runs.

A :class:`RecoveryTracker` partitions a run into *before / during /
after* phases around the fault window and accumulates, per phase, a
latency histogram plus windowed completion counts.  Its
:meth:`RecoveryTracker.report` distils the three numbers the RAS
evaluation cares about:

* **availability** — completed / offered operations over the whole run;
* **p99 during vs after** — the tail the fault inflicts and whether it
  subsides;
* **recovery time** — how long after the fault clears until windowed
  throughput is back within ``recovery_threshold`` of the pre-fault
  baseline (inf if it never recovers within the run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..sim.stats import LatencyHistogram

__all__ = ["FaultRecoveryReport", "RecoveryTracker"]


@dataclass
class FaultRecoveryReport:
    """The headline RAS numbers of one faulted run."""

    offered_ops: int
    completed_ops: int
    failed_ops: int
    availability: float
    p99_before_ns: float
    p99_during_ns: float
    p99_after_ns: float
    baseline_throughput_ops_per_s: float
    during_throughput_ops_per_s: float
    recovery_ns: float
    fault_start_ns: float
    fault_end_ns: float
    #: Overload accounting (populated when the run tracked deadlines).
    deadline_misses: int = 0
    good_ops: int = 0
    goodput_ops_per_s: float = 0.0
    #: completed/failed/deadline-missed counts per phase.
    phase_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: True when the run propagated deadlines (enables goodput rows).
    deadline_tracking: bool = False

    @staticmethod
    def _us(value_ns: float) -> str:
        """Format a latency in microseconds; NaN renders as n/a."""
        if math.isnan(value_ns):
            return "n/a (no samples)"
        return f"{value_ns / 1e3:.1f} us"

    def rows(self) -> List[Tuple[str, str]]:
        """(quantity, value) pairs for ascii_table rendering."""
        recovery = (
            "never (within run)"
            if math.isinf(self.recovery_ns)
            else f"{self.recovery_ns / 1e6:.2f} ms"
        )
        rows = [
            ("offered ops", f"{self.offered_ops}"),
            ("completed ops", f"{self.completed_ops}"),
            ("failed/shed ops", f"{self.failed_ops}"),
            ("availability", f"{self.availability * 100:.3f}%"),
            ("p99 before fault", self._us(self.p99_before_ns)),
            ("p99 during fault", self._us(self.p99_during_ns)),
            ("p99 after fault", self._us(self.p99_after_ns)),
            (
                "throughput during/baseline",
                f"{self.during_throughput_ops_per_s:.0f} / "
                f"{self.baseline_throughput_ops_per_s:.0f} ops/s",
            ),
            ("recovery time", recovery),
        ]
        if self.deadline_tracking:
            rows.extend(
                [
                    ("in-deadline (good) ops", f"{self.good_ops}"),
                    ("deadline misses", f"{self.deadline_misses}"),
                    ("goodput", f"{self.goodput_ops_per_s:.0f} ops/s"),
                ]
            )
        return rows

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready snapshot (inf/NaN become None)."""

        def _num(value: float) -> Optional[float]:
            return None if math.isinf(value) or math.isnan(value) else value

        return {
            "offered_ops": self.offered_ops,
            "completed_ops": self.completed_ops,
            "failed_ops": self.failed_ops,
            "availability": self.availability,
            "p99_before_ns": _num(self.p99_before_ns),
            "p99_during_ns": _num(self.p99_during_ns),
            "p99_after_ns": _num(self.p99_after_ns),
            "baseline_throughput_ops_per_s": self.baseline_throughput_ops_per_s,
            "during_throughput_ops_per_s": self.during_throughput_ops_per_s,
            "recovery_ns": _num(self.recovery_ns),
            "fault_start_ns": self.fault_start_ns,
            "fault_end_ns": _num(self.fault_end_ns),
            "deadline_misses": self.deadline_misses,
            "good_ops": self.good_ops,
            "goodput_ops_per_s": self.goodput_ops_per_s,
            "phase_counts": self.phase_counts,
            "deadline_tracking": self.deadline_tracking,
        }


class RecoveryTracker:
    """Collects per-phase latencies and windowed throughput."""

    def __init__(
        self,
        fault_start_ns: float,
        fault_end_ns: float,
        window_ns: float,
        recovery_threshold: float = 0.9,
    ) -> None:
        if fault_end_ns < fault_start_ns:
            raise ConfigurationError("fault window end precedes start")
        if window_ns <= 0:
            raise ConfigurationError("window_ns must be positive")
        if not 0.0 < recovery_threshold <= 1.0:
            raise ConfigurationError("recovery_threshold must be in (0, 1]")
        self.fault_start_ns = fault_start_ns
        self.fault_end_ns = fault_end_ns
        self.window_ns = window_ns
        self.recovery_threshold = recovery_threshold
        self.offered = 0
        self.completed = 0
        self.failed = 0
        self._latency: Dict[str, LatencyHistogram] = {
            phase: LatencyHistogram(min_value=50.0)
            for phase in ("before", "during", "after")
        }
        #: completions per time window (window index -> ops).
        self._windows: Dict[int, int] = {}
        self._last_ns = 0.0
        #: per-phase completed/failed/deadline-missed breakdown.
        self.phase_counts: Dict[str, Dict[str, int]] = {
            phase: {"completed": 0, "failed": 0, "deadline_missed": 0}
            for phase in ("before", "during", "after")
        }
        self.deadline_misses = 0
        self.good = 0
        self._deadline_tracking = False

    def phase_of(self, now_ns: float) -> str:
        """Which phase of the run a completion at ``now_ns`` belongs to."""
        if now_ns < self.fault_start_ns:
            return "before"
        if now_ns < self.fault_end_ns:
            return "during"
        return "after"

    def record(
        self,
        now_ns: float,
        latency_ns: float,
        ok: bool = True,
        deadline_missed: Optional[bool] = None,
    ) -> None:
        """Account one operation finishing (or being shed) at ``now_ns``.

        ``deadline_missed`` is tri-state: ``None`` means the run does
        not propagate deadlines (legacy behaviour, no goodput rows in
        the report); ``True``/``False`` marks a completed operation as
        late/on-time and switches the report into goodput accounting.
        """
        self.offered += 1
        self._last_ns = max(self._last_ns, now_ns)
        phase = self.phase_of(now_ns)
        if deadline_missed is not None:
            self._deadline_tracking = True
        if ok:
            self.completed += 1
            self._latency[phase].record(max(latency_ns, 1.0))
            index = int(now_ns // self.window_ns)
            self._windows[index] = self._windows.get(index, 0) + 1
            self.phase_counts[phase]["completed"] += 1
            if deadline_missed:
                self.deadline_misses += 1
                self.phase_counts[phase]["deadline_missed"] += 1
            else:
                self.good += 1
        else:
            self.failed += 1
            self.phase_counts[phase]["failed"] += 1

    def latency(self, phase: str) -> LatencyHistogram:
        """The latency histogram of one phase (before/during/after)."""
        return self._latency[phase]

    # -- derived metrics ---------------------------------------------------

    def _window_throughput(self, index: int) -> float:
        return self._windows.get(index, 0) / (self.window_ns / 1e9)

    def _baseline_throughput(self) -> float:
        """Mean windowed throughput over windows fully before the fault."""
        last_full = int(self.fault_start_ns // self.window_ns)
        values = [self._window_throughput(i) for i in range(last_full)]
        values = [v for v in values if v > 0]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def _during_throughput(self) -> float:
        if not math.isfinite(self.fault_end_ns):
            lo, hi = self.fault_start_ns, self._last_ns
        else:
            lo, hi = self.fault_start_ns, self.fault_end_ns
        if hi <= lo:
            return 0.0
        ops = sum(
            count
            for index, count in self._windows.items()
            if lo <= index * self.window_ns < hi
        )
        return ops / ((hi - lo) / 1e9)

    def recovery_ns(self) -> float:
        """Time from fault end until throughput re-reaches the baseline.

        Measured at window granularity: the first window starting at or
        after the fault end whose throughput is at least
        ``recovery_threshold`` x the pre-fault baseline.  ``0`` when the
        very first post-fault window already qualifies; ``inf`` when no
        window within the run does (or the fault never ends).
        """
        baseline = self._baseline_throughput()
        if baseline <= 0:
            return math.inf
        if not math.isfinite(self.fault_end_ns):
            return math.inf
        first = int(math.ceil(self.fault_end_ns / self.window_ns))
        last = int(self._last_ns // self.window_ns)
        target = self.recovery_threshold * baseline
        for index in range(first, last + 1):
            if self._window_throughput(index) >= target:
                return max(0.0, (index + 1) * self.window_ns - self.fault_end_ns)
        return math.inf

    def goodput_ops_per_s(self) -> float:
        """In-deadline completions per second over the run so far."""
        if self._last_ns <= 0:
            return 0.0
        return self.good / (self._last_ns / 1e9)

    def report(self) -> FaultRecoveryReport:
        """Summarize the run into a :class:`FaultRecoveryReport`."""
        availability = self.completed / self.offered if self.offered else 0.0
        return FaultRecoveryReport(
            offered_ops=self.offered,
            completed_ops=self.completed,
            failed_ops=self.failed,
            availability=availability,
            p99_before_ns=self._latency["before"].percentile(99),
            p99_during_ns=self._latency["during"].percentile(99),
            p99_after_ns=self._latency["after"].percentile(99),
            baseline_throughput_ops_per_s=self._baseline_throughput(),
            during_throughput_ops_per_s=self._during_throughput(),
            recovery_ns=self.recovery_ns(),
            fault_start_ns=self.fault_start_ns,
            fault_end_ns=self.fault_end_ns,
            deadline_misses=self.deadline_misses,
            good_ops=self.good,
            goodput_ops_per_s=self.goodput_ops_per_s(),
            phase_counts={p: dict(c) for p, c in self.phase_counts.items()},
            deadline_tracking=self._deadline_tracking,
        )

"""Overload accounting: offered vs admitted vs *useful* work.

Throughput alone hides overload damage — a collapsing system can still
complete plenty of operations, just too late to matter.  The metric
that matters is **goodput**: completions that made their deadline.
:class:`OverloadMetrics` tracks the full funnel

    offered → admitted → completed → completed-in-deadline (goodput)

with every loss accounted to a named reason (queue-full, rate,
capacity-loss shedding, doomed-work shedding, expiry), so a run can
show *where* its overload defense spent the excess load.  The run's
:class:`~repro.overload.policy.OverloadController` is the only writer.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim.stats import LatencyHistogram

__all__ = ["OverloadMetrics"]


class OverloadMetrics:
    """The offered → goodput funnel of one run."""

    def __init__(self) -> None:
        self.offered = 0
        self.admitted = 0
        self.completed = 0
        self.deadline_misses = 0
        #: Completions that made their deadline (the goodput numerator).
        self.good = 0
        #: Rejections at admission, by reason.
        self.rejected: Dict[str, int] = {}
        #: Work abandoned after admission, by reason.
        self.shed: Dict[str, int] = {}
        #: Latency of completed work (admission wait + service).
        self.latency = LatencyHistogram(min_value=50.0)

    # -- derived -----------------------------------------------------------

    @property
    def total_rejected(self) -> int:
        """All admission rejections."""
        return sum(self.rejected.values())

    @property
    def total_shed(self) -> int:
        """All post-admission sheds."""
        return sum(self.shed.values())

    def shed_rate(self) -> float:
        """(rejected + shed) / offered — the fraction of load refused."""
        if self.offered == 0:
            return 0.0
        return (self.total_rejected + self.total_shed) / self.offered

    def deadline_miss_rate(self) -> float:
        """Deadline-missing completions / offered work.

        Measured against *offered* load so controlled and uncontrolled
        runs are comparable: shedding a request is not a miss, it is a
        cheap early refusal.
        """
        if self.offered == 0:
            return 0.0
        return self.deadline_misses / self.offered

    def goodput_ops_per_s(self, elapsed_ns: float) -> float:
        """In-deadline completions per second over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        return self.good / (elapsed_ns / 1e9)

    def register_into(
        self,
        registry,
        prefix: str = "overload",
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Export the funnel and the latency histogram through a registry.

        Funnel counts become ``<prefix>_<stage>_total`` counters (loss
        reasons labelled ``reason=``); the completed-work latency
        flattens through the registry's histogram convention.  Sampling
        is lazy — nothing is touched until snapshot time.
        """
        # Imported here: repro.obs.registry imports repro.sim.stats,
        # which sits below this module; runtime import avoids a cycle.
        from ..obs.registry import Sample, histogram_samples

        base = dict(labels or {})

        def collect():
            for stage in ("offered", "admitted", "completed", "good",
                          "deadline_misses"):
                yield Sample(
                    f"{prefix}_{stage}_total", "counter", dict(base),
                    float(getattr(self, stage)),
                )
            for reason, count in sorted(self.rejected.items()):
                yield Sample(
                    f"{prefix}_rejected_total", "counter",
                    {**base, "reason": reason}, float(count),
                )
            for reason, count in sorted(self.shed.items()):
                yield Sample(
                    f"{prefix}_shed_total", "counter",
                    {**base, "reason": reason}, float(count),
                )
            yield from histogram_samples(
                f"{prefix}_latency_ns", dict(base), self.latency
            )

        registry.register_collector(collect)

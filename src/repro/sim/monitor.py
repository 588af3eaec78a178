"""Bandwidth monitoring: PCM-style per-resource counters over time.

The paper reads per-channel bandwidth off Intel PCM (Fig. 10(b)/(c));
:class:`BandwidthMonitor` is the simulator-side equivalent: feed it the
:class:`~repro.sim.traffic.AllocationResult` of each allocation round
and it accumulates a :class:`~repro.sim.stats.TimeSeries` per resource
plus per-source byte totals.
"""

from __future__ import annotations

from typing import Dict, Hashable

from ..errors import SimulationError
from .stats import TimeSeries
from .traffic import AllocationResult

__all__ = ["BandwidthMonitor"]


class BandwidthMonitor:
    """Accumulates per-resource utilization/bandwidth history."""

    def __init__(self) -> None:
        self.utilization: Dict[Hashable, TimeSeries] = {}
        self.achieved: Dict[Hashable, TimeSeries] = {}
        self._source_bytes: Dict[Hashable, float] = {}
        self._last_time: float = float("-inf")

    def observe(
        self,
        now_ns: float,
        result: AllocationResult,
        interval_ns: float = 0.0,
    ) -> None:
        """Record one allocation round.

        ``interval_ns`` > 0 additionally credits each source's achieved
        rate over the interval into its byte total.
        """
        if now_ns < self._last_time:
            raise SimulationError("observations must be time-ordered")
        self._last_time = now_ns
        for resource, value in result.utilization.items():
            self.utilization.setdefault(resource, TimeSeries(str(resource))).record(
                now_ns, value
            )
        for source, rate in result.achieved.items():
            self.achieved.setdefault(source, TimeSeries(str(source))).record(
                now_ns, rate
            )
            if interval_ns > 0:
                self._source_bytes[source] = self._source_bytes.get(source, 0.0) + (
                    rate * interval_ns / 1e9
                )

    def peak_utilization(self, resource: Hashable) -> float:
        """Highest utilization seen on a resource (0 if never observed)."""
        series = self.utilization.get(resource)
        return series.peak() if series else 0.0

    def mean_utilization(self, resource: Hashable) -> float:
        """Time-weighted mean utilization of a resource."""
        series = self.utilization.get(resource)
        return series.time_weighted_mean() if series else 0.0

    def total_bytes(self, source: Hashable) -> float:
        """Bytes a source moved across all observed intervals."""
        return self._source_bytes.get(source, 0.0)

    def resources(self):
        """Resources with at least one observation."""
        return self.utilization.keys()

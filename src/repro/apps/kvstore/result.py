"""The outcome of one KeyDB run, on every KeyDB model.

It lives apart from the servers, with no dependency beyond
:mod:`repro.sim.stats`, because fig5/fig8 cache entries pickle it:
unpickling a cached point then loads neither numpy nor the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ...sim.stats import Counter, LatencyHistogram

__all__ = ["KeyDbResult"]


@dataclass
class KeyDbResult:
    """Outcome of one KeyDB run."""

    ops: int = 0
    elapsed_ns: float = 0.0
    read_latency: LatencyHistogram = field(
        default_factory=lambda: LatencyHistogram(min_value=50.0)
    )
    write_latency: LatencyHistogram = field(
        default_factory=lambda: LatencyHistogram(min_value=50.0)
    )
    counters: Counter = field(default_factory=Counter)

    @property
    def throughput_ops_per_s(self) -> float:
        """Aggregate operations per second."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.ops / (self.elapsed_ns / 1e9)

    def tail_latencies_us(self) -> Dict[str, float]:
        """p50/p95/p99/p99.9 read latencies in microseconds (Fig. 5(b))."""
        return {
            f"p{p}": self.read_latency.percentile(p) / 1000.0
            for p in (50, 95, 99, 99.9)
        }

"""Measurement primitives: histograms, percentiles, CDFs, time series.

The paper reports throughput averages, tail latencies (Fig. 5(b)), latency
CDFs (Fig. 5(c), Fig. 8(a)) and bandwidth-over-load curves (Fig. 3/4/10).
These classes are the simulator-side equivalents of the YCSB client's
percentile reporter and Intel PCM's bandwidth counters.

:class:`LatencyHistogram` uses logarithmic bucketing (HdrHistogram-style)
so that recording is O(1) and memory is bounded no matter how many samples
a long simulation produces, while relative error stays below the bucket
growth factor.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "LatencyHistogram",
    "RunningStat",
    "TimeSeries",
    "CdfPoint",
    "Counter",
]


class RunningStat:
    """Streaming mean/variance/min/max (Welford's algorithm)."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: float) -> None:
        """Add one sample."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def record_all(self, values: Sequence[float]) -> None:
        """Add each of ``values`` in order, exactly as :meth:`record` does.

        Welford's update is sequential, so the loop stays; it just runs
        on locals.  Pass a list of floats: numpy scalars are slow here.
        """
        if not values:
            return
        count, mean, m2 = self.count, self._mean, self._m2
        for value in values:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
        self.count, self._mean, self._m2 = count, mean, m2
        low, high = min(values), max(values)
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high

    def record_many(self, value: float, count: int) -> None:
        """Add ``count`` identical samples in O(1).

        Closed-form batched Welford update: a block of ``count`` copies
        of ``value`` has zero within-block variance, so folding it in is
        the parallel-merge formula with ``other._m2 == 0``.  Equivalent
        to calling :meth:`record` ``count`` times, without the loop.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if count == 1:
            self.record(value)
            return
        total = self.count + count
        delta = value - self._mean
        self._mean += delta * count / total
        self._m2 += delta * delta * self.count * count / total
        self.count = total
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples recorded so far (0 if empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance of the samples (0 if fewer than 2)."""
        return self._m2 / self.count if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStat") -> None:
        """Fold another stat into this one (parallel Welford merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunningStat(count={self.count}, mean={self.mean:.3f}, "
            f"min={self.min:.3f}, max={self.max:.3f})"
        )


@dataclass(frozen=True)
class CdfPoint:
    """One point of an empirical CDF: value and cumulative fraction."""

    value: float
    fraction: float


class LatencyHistogram:
    """Log-bucketed histogram with percentile and CDF queries.

    Parameters
    ----------
    min_value:
        Lower edge of the first bucket.  Samples below it clamp into
        bucket 0.
    growth:
        Multiplicative bucket width; relative quantile error is bounded
        by ``growth - 1`` (default 2 %).
    """

    def __init__(self, min_value: float = 1.0, growth: float = 1.02) -> None:
        if min_value <= 0:
            raise ValueError("min_value must be positive")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self._min_value = float(min_value)
        self._log_growth = math.log(growth)
        self._growth = growth
        self._buckets: Dict[int, int] = {}
        self.stat = RunningStat()

    @property
    def count(self) -> int:
        """Total number of recorded samples."""
        return self.stat.count

    def _bucket_index(self, value: float) -> int:
        if value <= self._min_value:
            return 0
        return int(math.log(value / self._min_value) / self._log_growth) + 1

    def _bucket_value(self, index: int) -> float:
        """Representative (upper-edge) value of bucket ``index``."""
        if index == 0:
            return self._min_value
        return self._min_value * math.exp(index * self._log_growth)

    def record(self, value: float, count: int = 1) -> None:
        """Record ``count`` occurrences of ``value``."""
        if count <= 0:
            raise ValueError("count must be positive")
        idx = self._bucket_index(value)
        self._buckets[idx] = self._buckets.get(idx, 0) + count
        self.stat.record_many(value, count)

    def record_all(self, values: Sequence[float]) -> None:
        """Record each of ``values`` once, in order.

        The same state as one :meth:`record` call per value: each
        distinct value is bucketed once, and the mean, variance, min and
        max follow the values in order.
        """
        buckets = self._buckets
        for value, count in collections.Counter(values).items():
            idx = self._bucket_index(value)
            buckets[idx] = buckets.get(idx, 0) + count
        self.stat.record_all(values)

    def percentile(self, p: float) -> float:
        """Return the value at percentile ``p`` (0 < p <= 100).

        An empty histogram has no percentiles: the query returns NaN
        (never a fake 0 or an index error), so downstream reports can
        render "no samples" instead of a misleading zero tail.
        """
        if not 0.0 < p <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        if self.count == 0:
            return math.nan
        target = math.ceil(self.count * p / 100.0)
        seen = 0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen >= target:
                return self._bucket_value(idx)
        return self._bucket_value(max(self._buckets))  # pragma: no cover

    def percentiles(self, ps: Sequence[float]) -> Dict[float, float]:
        """Return a ``{p: value}`` mapping for several percentiles."""
        return {p: self.percentile(p) for p in ps}

    @property
    def mean(self) -> float:
        """Exact mean of the recorded samples."""
        return self.stat.mean

    @property
    def max(self) -> float:
        """Exact maximum of the recorded samples."""
        return self.stat.max if self.count else 0.0

    @property
    def min(self) -> float:
        """Exact minimum of the recorded samples."""
        return self.stat.min if self.count else 0.0

    def cdf(self, points: int = 100) -> List[CdfPoint]:
        """Return the empirical CDF, downsampled to at most ``points``.

        The final point is always the last occupied bucket, so its
        fraction is exactly 1.0.  Selection is anchored at that last
        bucket and walks backwards in even strides, which keeps the
        output within the ``points`` bound (a truncating stride could
        otherwise emit up to twice as many).
        """
        if points <= 0:
            raise ValueError("points must be positive")
        if self.count == 0:
            return []
        indices = sorted(self._buckets)
        stride = max(1, -(-len(indices) // points))  # ceil division
        selected = {
            len(indices) - 1 - k * stride
            for k in range(-(-len(indices) // stride))
        }
        out: List[CdfPoint] = []
        seen = 0
        for rank, idx in enumerate(indices):
            seen += self._buckets[idx]
            if rank in selected:
                out.append(CdfPoint(self._bucket_value(idx), seen / self.count))
        return out

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram (with identical bucketing) into this one."""
        if (other._min_value, other._growth) != (self._min_value, self._growth):
            raise ValueError("cannot merge histograms with different bucketing")
        for idx, cnt in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + cnt
        self.stat.merge(other.stat)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LatencyHistogram(count={self.count}, mean={self.mean:.1f})"


@dataclass
class TimeSeries:
    """A sequence of ``(time, value)`` observations (PCM-style counters)."""

    name: str = ""
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        """Append one observation; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError("time series observations must be non-decreasing")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def last(self) -> Optional[Tuple[float, float]]:
        """Return the most recent observation, or None if empty."""
        if not self.times:
            return None
        return self.times[-1], self.values[-1]

    def mean(self) -> float:
        """Unweighted mean of the observed values (0 if empty)."""
        return sum(self.values) / len(self.values) if self.values else 0.0

    def time_weighted_mean(self) -> float:
        """Mean of values weighted by the interval each was in force.

        Each value ``v[i]`` is assumed to hold from ``t[i]`` until
        ``t[i+1]``; the final value gets zero weight (its interval is
        unknown), which matches sampled-counter semantics.
        """
        if len(self.times) < 2:
            return self.mean()
        total = 0.0
        span = self.times[-1] - self.times[0]
        if span <= 0:
            return self.mean()
        for i in range(len(self.times) - 1):
            total += self.values[i] * (self.times[i + 1] - self.times[i])
        return total / span

    def peak(self) -> float:
        """Maximum observed value (0 if empty)."""
        return max(self.values) if self.values else 0.0


class Counter:
    """A named bag of monotonically increasing counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters are monotonic; amount must be >= 0")
        self._counts[name] = self._counts.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0.0)

    def as_dict(self) -> Dict[str, float]:
        """A snapshot copy of all counters."""
        return dict(self._counts)

    def names(self) -> Iterable[str]:
        """The counter names seen so far."""
        return self._counts.keys()

    def register_into(
        self,
        registry,
        prefix: str,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Export this bag through a metrics registry.

        Each key becomes a ``<prefix>_total`` counter sample labelled
        ``counter=<key>`` (plus any caller labels).  Samples are drawn
        lazily at snapshot time, so registration costs nothing on the
        recording path.
        """
        # Imported here: repro.obs.registry imports this module.
        from ..obs.registry import Sample

        base = dict(labels or {})

        def collect():
            for key, value in sorted(self._counts.items()):
                yield Sample(
                    f"{prefix}_total", "counter",
                    {**base, "counter": key}, value,
                )

        registry.register_collector(collect)

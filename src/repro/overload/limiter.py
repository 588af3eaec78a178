"""Admission controllers: token bucket, concurrency limit, adaptive.

Three complementary throttles:

* :class:`TokenBucketLimiter` — caps the *rate* of admitted work.
  It is not bound to a :class:`~repro.sim.engine.Simulator`; callers
  pass their own clock, so the epoch-model apps (which keep a scalar
  ``now_ns``) can use it too.
* :class:`ConcurrencyLimiter` — caps work *in flight* (Little's law:
  at fixed service time, bounding concurrency bounds queueing delay).
* :class:`AdaptiveLimiter` — an AIMD controller that discovers the
  sustainable concurrency by probing: additively raise the limit while
  latency stays below target and the bottleneck utilization stays
  below the loaded-latency knee (§3.2), multiplicatively back off when
  either signal crosses.  This is the same shape as TCP congestion
  control / Netflix concurrency-limits, driven here by the simulator's
  own utilization and latency telemetry.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError

__all__ = ["TokenBucketLimiter", "ConcurrencyLimiter", "AdaptiveLimiter"]


class TokenBucketLimiter:
    """A clock-agnostic token bucket (tokens = admitted operations)."""

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if rate_per_s <= 0:
            raise ConfigurationError("rate_per_s must be positive")
        if burst <= 0:
            raise ConfigurationError("burst must be positive")
        self.rate_per_ns = rate_per_s / 1e9
        self.burst = burst
        self._tokens = burst
        self._last_ns = 0.0

    def _refill(self, now_ns: float) -> None:
        if now_ns > self._last_ns:
            self._tokens = min(
                self.burst, self._tokens + (now_ns - self._last_ns) * self.rate_per_ns
            )
            self._last_ns = now_ns

    def tokens(self, now_ns: float) -> float:
        """Tokens available at ``now_ns``."""
        self._refill(now_ns)
        return self._tokens

    def try_acquire(self, now_ns: float, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if available; returns success."""
        if amount < 0:
            raise ConfigurationError("cannot take a negative amount")
        self._refill(now_ns)
        if self._tokens >= amount:
            self._tokens -= amount
            return True
        return False

    def set_rate(self, rate_per_s: float) -> None:
        """Adjust the refill rate (used by adaptive control)."""
        if rate_per_s <= 0:
            raise ConfigurationError("rate_per_s must be positive")
        self.rate_per_ns = rate_per_s / 1e9


class ConcurrencyLimiter:
    """Bounds work in flight; non-blocking acquire with explicit failure."""

    def __init__(self, limit: int) -> None:
        if limit <= 0:
            raise ConfigurationError("concurrency limit must be positive")
        self.limit = limit
        self.in_flight = 0

    @property
    def available(self) -> int:
        """Slots free right now (0 when at or above the limit)."""
        return max(0, self.limit - self.in_flight)

    def try_acquire(self) -> bool:
        """Take one slot if the limit allows; returns success."""
        if self.in_flight >= self.limit:
            return False
        self.in_flight += 1
        return True

    def release(self) -> None:
        """Return one slot."""
        if self.in_flight <= 0:
            raise ConfigurationError("release without matching acquire")
        self.in_flight -= 1

    def set_limit(self, limit: int) -> None:
        """Adjust the limit (in-flight work above it drains naturally)."""
        if limit <= 0:
            raise ConfigurationError("concurrency limit must be positive")
        self.limit = limit


class AdaptiveLimiter:
    """AIMD concurrency controller tracking latency and the bandwidth knee.

    Feed it completion latencies (:meth:`observe_latency`) and the
    bottleneck utilization of the memory system
    (:meth:`observe_utilization`, e.g. the max of
    :meth:`repro.sim.traffic.AllocationResult.utilization` values or a
    path's bottleneck).  Once per ``adjust_interval_ns`` it compares the
    interval's mean latency against ``latency_target_ns`` and the last
    utilization sample against ``knee_utilization`` (from
    :meth:`repro.hw.latency.QueueingModel.knee_utilization`):

    * both below → additive increase (``limit += increase``);
    * either above → multiplicative decrease (``limit *= decrease``).

    The limit is a float internally (so small multiplicative steps
    accumulate); :attr:`limit` rounds it for use as a concurrency cap.
    """

    def __init__(
        self,
        initial_limit: int,
        min_limit: int = 1,
        max_limit: int = 4096,
        latency_target_ns: Optional[float] = None,
        knee_utilization: Optional[float] = None,
        increase: float = 1.0,
        decrease: float = 0.7,
        adjust_interval_ns: float = 1e6,
    ) -> None:
        if not 1 <= min_limit <= initial_limit <= max_limit:
            raise ConfigurationError(
                "limits must satisfy 1 <= min <= initial <= max"
            )
        if latency_target_ns is None and knee_utilization is None:
            raise ConfigurationError(
                "adaptive limiter needs a latency target or a knee utilization"
            )
        if latency_target_ns is not None and latency_target_ns <= 0:
            raise ConfigurationError("latency_target_ns must be positive")
        if knee_utilization is not None and not 0.0 < knee_utilization <= 1.0:
            raise ConfigurationError("knee_utilization must be in (0, 1]")
        if increase <= 0 or not 0.0 < decrease < 1.0:
            raise ConfigurationError("increase > 0 and 0 < decrease < 1 required")
        if adjust_interval_ns <= 0:
            raise ConfigurationError("adjust_interval_ns must be positive")
        self._limit = float(initial_limit)
        self.min_limit = min_limit
        self.max_limit = max_limit
        self.latency_target_ns = latency_target_ns
        self.knee_utilization = knee_utilization
        self.increase = increase
        self.decrease = decrease
        self.adjust_interval_ns = adjust_interval_ns
        self._interval_start_ns = 0.0
        self._latency_sum = 0.0
        self._latency_count = 0
        self._utilization = 0.0
        self.adjustments_up = 0
        self.adjustments_down = 0

    @property
    def limit(self) -> int:
        """The current concurrency limit, as an integer >= min_limit."""
        return max(self.min_limit, int(self._limit))

    def observe_latency(self, latency_ns: float, now_ns: float) -> None:
        """Record one completion latency and maybe adjust."""
        if latency_ns < 0:
            raise ConfigurationError("latency must be >= 0")
        self._latency_sum += latency_ns
        self._latency_count += 1
        self._maybe_adjust(now_ns)

    def observe_utilization(self, utilization: float, now_ns: float) -> None:
        """Record the current bottleneck utilization and maybe adjust."""
        if utilization < 0:
            raise ConfigurationError("utilization must be >= 0")
        self._utilization = utilization
        self._maybe_adjust(now_ns)

    def _overloaded(self) -> bool:
        if (
            self.latency_target_ns is not None
            and self._latency_count > 0
            and self._latency_sum / self._latency_count > self.latency_target_ns
        ):
            return True
        return (
            self.knee_utilization is not None
            and self._utilization > self.knee_utilization
        )

    def _maybe_adjust(self, now_ns: float) -> None:
        if now_ns - self._interval_start_ns < self.adjust_interval_ns:
            return
        if self._latency_count == 0 and self._utilization == 0.0:
            self._interval_start_ns = now_ns
            return
        if self._overloaded():
            self._limit = max(float(self.min_limit), self._limit * self.decrease)
            self.adjustments_down += 1
        else:
            self._limit = min(float(self.max_limit), self._limit + self.increase)
            self.adjustments_up += 1
        self._latency_sum = 0.0
        self._latency_count = 0
        self._interval_start_ns = now_ns

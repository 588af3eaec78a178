"""Admission throttles: token bucket and concurrency limit.

* :class:`TokenBucketLimiter` — caps the *rate* of admitted work.
  It is not bound to a :class:`~repro.sim.engine.Simulator`; callers
  pass their own clock, so the same bucket gates the open-loop DES
  KeyDB (``sim.now``) and ``repro serve`` (the host clock).
* :class:`ConcurrencyLimiter` — caps work *in flight* (Little's law:
  at fixed service time, bounding concurrency bounds queueing delay);
  :class:`~repro.overload.wallclock.WallClockAdmission` runs its jobs
  under one.
"""

from __future__ import annotations

from ..errors import ConfigurationError

__all__ = ["TokenBucketLimiter", "ConcurrencyLimiter"]


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


class ConcurrencyLimiter:
    """Bounds work in flight; non-blocking acquire with explicit failure."""

    def __init__(self, limit: int) -> None:
        if limit <= 0:
            raise ConfigurationError("concurrency limit must be positive")
        self.limit = limit
        self.in_flight = 0

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

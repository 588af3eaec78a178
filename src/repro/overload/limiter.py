"""The token bucket that caps the *rate* of admitted work.

:class:`TokenBucketLimiter` is not bound to a
:class:`~repro.sim.engine.Simulator`; callers pass their own clock, so
the same bucket gates the open-loop DES KeyDB (simulated nanoseconds)
and ``repro serve`` (the host clock).
"""

from __future__ import annotations

from ..errors import ConfigurationError

__all__ = ["TokenBucketLimiter"]


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

    def try_acquire(self, now_ns: float) -> bool:
        """Take one token if available; returns success."""
        self._refill(now_ns)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

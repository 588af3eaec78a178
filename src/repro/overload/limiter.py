"""The token bucket that caps the *rate* of admitted work.

:class:`TokenBucketLimiter` owns no clock; callers pass their own
time, so the same bucket gates the open-loop DES KeyDB (simulated
nanoseconds) and ``repro serve`` (the host clock).
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError

__all__ = ["TokenBucketLimiter"]


class TokenBucketLimiter:
    """A clock-agnostic token bucket (tokens = admitted operations)."""

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if not 0 < rate_per_s < math.inf:
            raise ConfigurationError("rate_per_s must be a finite number > 0")
        if not 0 < burst < math.inf:
            raise ConfigurationError("burst must be a finite number > 0")
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

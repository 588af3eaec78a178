"""The token-bucket limiter."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.overload import TokenBucketLimiter


class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucketLimiter(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            TokenBucketLimiter(1.0, 0.0)

    @pytest.mark.parametrize("rate, burst", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
    ])
    def test_validation_rejects_non_finite_values(self, rate, burst):
        with pytest.raises(ConfigurationError, match="finite"):
            TokenBucketLimiter(rate, burst)

    def test_burst_then_rate_limited(self):
        # 1000 ops/s, burst 2: two immediate admits, then dry.
        bucket = TokenBucketLimiter(1000.0, 2.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)

    def test_refills_at_rate(self):
        bucket = TokenBucketLimiter(1000.0, 2.0)  # 1 token per ms
        bucket.try_acquire(0.0), bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.5e6)  # half a token back
        assert bucket.try_acquire(1.0e6)

    def test_never_exceeds_burst(self):
        bucket = TokenBucketLimiter(1000.0, 2.0)
        assert bucket.tokens(1e12) == pytest.approx(2.0)


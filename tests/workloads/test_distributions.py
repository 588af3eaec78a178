"""Tests for key distributions."""

import time

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    LatestChooser,
    ScrambledZipfianChooser,
    UniformChooser,
    ZipfianChooser,
)
from repro.workloads.distributions import fnv_scramble, zeta


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestUniform:
    def test_keys_in_range(self, rng):
        c = UniformChooser(100)
        keys = [c.next_key(rng) for _ in range(1000)]
        assert all(0 <= k < 100 for k in keys)

    def test_roughly_uniform(self, rng):
        c = UniformChooser(10)
        counts = np.bincount([c.next_key(rng) for _ in range(10_000)], minlength=10)
        assert counts.min() > 800 and counts.max() < 1200

    def test_validation(self):
        with pytest.raises(WorkloadError):
            UniformChooser(0)

    def test_grow(self, rng):
        c = UniformChooser(10)
        c.grow(20)
        assert c.item_count == 20
        with pytest.raises(WorkloadError):
            c.grow(5)


class TestZipfian:
    def test_keys_in_range(self, rng):
        c = ZipfianChooser(1000)
        keys = [c.next_key(rng) for _ in range(5000)]
        assert all(0 <= k < 1000 for k in keys)

    def test_skew_low_keys_dominate(self, rng):
        c = ZipfianChooser(10_000)
        keys = [c.next_key(rng) for _ in range(20_000)]
        head = sum(1 for k in keys if k < 100)  # top 1 % of key space
        assert head / len(keys) > 0.3  # zipf(0.99): head gets most traffic

    def test_theta_validation(self):
        with pytest.raises(WorkloadError):
            ZipfianChooser(10, theta=1.0)
        with pytest.raises(WorkloadError):
            ZipfianChooser(10, theta=0.0)

    def test_large_keyspace_constructs_fast(self):
        # Euler-Maclaurin path: must not iterate 50M terms.
        c = ZipfianChooser(50_000_000)
        assert c.zetan > 0

    def test_zeta_approximation_accuracy(self):
        exact = ZipfianChooser(10_000)  # exact summation path
        # Compare against brute force at the boundary.
        brute = sum(1.0 / i**0.99 for i in range(1, 10_001))
        assert exact.zetan == pytest.approx(brute, rel=1e-9)

    def test_grow_recomputes(self, rng):
        c = ZipfianChooser(100)
        z_before = c.zetan
        c.grow(1000)
        assert c.zetan > z_before


class TestScrambledZipfian:
    def test_hot_keys_scattered(self, rng):
        """Scrambling must spread the hot set across the key space."""
        c = ScrambledZipfianChooser(100_000)
        keys = [c.next_key(rng) for _ in range(20_000)]
        # Hot keys should not be concentrated in the low ids.
        head = sum(1 for k in keys if k < 1000)
        assert head / len(keys) < 0.1

    def test_still_skewed(self, rng):
        """Scrambling preserves the popularity skew itself."""
        c = ScrambledZipfianChooser(100_000)
        keys = [c.next_key(rng) for _ in range(30_000)]
        values, counts = np.unique(keys, return_counts=True)
        # The most popular single key receives far more than uniform share.
        assert counts.max() > 30_000 / 100_000 * 50

    def test_deterministic_scramble(self):
        assert fnv_scramble(np.array([12345])) == fnv_scramble(np.array([12345]))


class TestLatest:
    def test_newest_keys_hottest(self, rng):
        c = LatestChooser(10_000)
        keys = [c.next_key(rng) for _ in range(10_000)]
        newest = sum(1 for k in keys if k >= 9_900)  # newest 1 %
        assert newest / len(keys) > 0.3

    def test_grow_shifts_hot_set(self, rng):
        c = LatestChooser(100)
        c.grow(200)
        keys = [c.next_key(rng) for _ in range(2000)]
        assert all(0 <= k < 200 for k in keys)
        newest = sum(1 for k in keys if k >= 190)
        assert newest / len(keys) > 0.2


class TestBlockKeys:
    @pytest.mark.parametrize(
        "make",
        [UniformChooser, ZipfianChooser, ScrambledZipfianChooser, LatestChooser],
        ids=lambda c: c.__name__,
    )
    def test_block_equals_one_at_a_time(self, make):
        c = make(20_000)
        rng = np.random.default_rng(4)
        one_by_one = [c.next_key(rng) for _ in range(3000)]
        block = c.keys(np.random.default_rng(4).random(3000))
        assert block.dtype == np.int64
        assert block.tolist() == one_by_one

    def test_per_draw_key_space_sizes(self):
        """A draw under ``counts[i]`` equals a chooser grown to that size."""
        u = np.random.default_rng(8).random(400)
        counts = np.repeat(np.arange(5_000, 5_004), 100)
        block = ScrambledZipfianChooser(5_000).keys(u, counts)
        for n in range(5_000, 5_004):
            grown = ScrambledZipfianChooser(5_000)
            grown.grow(n)
            at = counts == n
            assert block[at].tolist() == grown.keys(u[at]).tolist()


class TestZeta:
    def test_sequential_sum(self):
        total = 0.0
        for i in range(1, 10_001):
            total += 1.0 / i**0.99
            if i in (1, 2, 4_096, 10_000):
                assert zeta(i, 0.99) == total

    def test_grow_is_constant_time(self):
        # Re-summing up to 10 000 terms per grow would take seconds here.
        c = ZipfianChooser(9_000)
        start = time.perf_counter()
        for n in range(9_001, 29_001):
            c.grow(n)
        assert time.perf_counter() - start < 2.0
        assert c.zetan == ZipfianChooser(29_000).zetan


def test_fnv_scramble_matches_masked_integer_hash():
    def reference(value):
        h = 0xCBF29CE484222325
        for _ in range(8):
            h = ((h ^ (value & 0xFF)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            value >>= 8
        return h

    values = [0, 1, 255, 256, 12345, 2**40 + 17, 2**63 - 1]
    assert fnv_scramble(np.array(values, dtype=np.int64)).tolist() == [
        reference(v) for v in values
    ]

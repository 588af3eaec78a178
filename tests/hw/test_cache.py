"""Tests for the cache hierarchy simulation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw.cache import CacheHierarchy, CacheLevel, sapphire_rapids_caches
from repro.units import KIB, MIB
from repro.workloads import sequential_trace, uniform_trace, zipfian_trace


def small_hierarchy():
    return CacheHierarchy(
        levels=(
            CacheLevel("L1", 8 * 4096, 1.0),   # 8 pages
            CacheLevel("L2", 64 * 4096, 5.0),  # 64 pages
        ),
        granule_bytes=4096,
    )


class TestValidation:
    def test_level_validation(self):
        with pytest.raises(ConfigurationError):
            CacheLevel("bad", 0, 1.0)
        with pytest.raises(ConfigurationError):
            CacheLevel("bad", 100, 0.0)

    def test_levels_must_grow(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchy(
                levels=(CacheLevel("big", MIB, 1.0), CacheLevel("small", KIB, 5.0))
            )

    def test_empty_hierarchy(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchy(levels=())

    def test_memory_latency_positive(self):
        with pytest.raises(ConfigurationError):
            small_hierarchy().simulate(sequential_trace(4, 10), 0.0)


class TestSimulation:
    def test_tiny_footprint_all_l1(self):
        h = small_hierarchy()
        # 4 pages fit L1; after the first cold pass everything hits L1.
        trace = sequential_trace(4, 4000)
        result = h.simulate(trace, memory_latency_ns=97.0)
        assert result.hit_rate("L1") > 0.99
        assert result.amat_ns < 1.2

    def test_medium_footprint_spills_to_l2(self):
        h = small_hierarchy()
        trace = sequential_trace(32, 3200)  # > L1 (8), < L2 (64)
        result = h.simulate(trace, memory_latency_ns=97.0)
        assert result.hit_rate("L2") > 0.5
        assert result.miss_rate < 0.05

    def test_huge_footprint_converges_to_memory_latency(self):
        h = small_hierarchy()
        rng = np.random.default_rng(1)
        trace = uniform_trace(100_000, 20_000, rng=rng)
        result = h.simulate(trace, memory_latency_ns=97.0)
        assert result.miss_rate > 0.95
        assert result.amat_ns == pytest.approx(97.0, rel=0.06)

    def test_amat_monotone_in_footprint(self):
        h = small_hierarchy()
        amats = []
        for pages in (4, 32, 256, 4096):
            trace = sequential_trace(pages, pages * 20)
            amats.append(h.simulate(trace, 97.0).amat_ns)
        assert amats == sorted(amats)

    def test_zipfian_beats_uniform(self):
        """Skewed reuse caches better than uniform at equal footprint —
        the same property that drives Hot-Promote."""
        h = small_hierarchy()
        rng = np.random.default_rng(2)
        z = h.simulate(zipfian_trace(10_000, 20_000, rng=rng), 97.0)
        u = h.simulate(uniform_trace(10_000, 20_000, rng=rng), 97.0)
        assert z.amat_ns < u.amat_ns

    def test_cxl_memory_raises_amat_only_by_miss_share(self):
        """With a hot working set, swapping the backing store from DRAM
        (97 ns) to CXL (250 ns) barely moves AMAT — the §4.3 effect."""
        h = small_hierarchy()
        # Hot set (~96 pages) fits L2: only the Zipfian tail reaches memory.
        trace = zipfian_trace(96, 50_000, rng=np.random.default_rng(3))
        dram = h.simulate(trace, 97.0)
        cxl = h.simulate(trace, 250.42)
        assert dram.miss_rate < 0.1
        assert cxl.amat_ns / dram.amat_ns < 1.8  # far below the raw 2.58x

    def test_result_helpers(self):
        h = small_hierarchy()
        result = h.simulate(sequential_trace(4, 100), 97.0)
        d = result.as_dict()
        assert set(d) == {"hit_L1", "hit_L2", "miss", "amat_ns"}
        assert d["hit_L1"] + d["hit_L2"] + d["miss"] == pytest.approx(1.0)
        with pytest.raises(ConfigurationError):
            result.hit_rate("L9")

    def test_spr_preset(self):
        levels = sapphire_rapids_caches()
        assert [level.name for level in levels] == ["L1D", "L2", "L3"]
        assert levels[0].capacity_bytes < levels[1].capacity_bytes < levels[2].capacity_bytes

"""Tests for the tiering daemons."""

import pytest

from repro.errors import MigrationError
from repro.hw import paper_cxl_platform
from repro.mem import (
    AddressSpace,
    BindPolicy,
    HotPageSelectionDaemon,
    MemoryInventory,
    NumaBalancingDaemon,
    TppDaemon,
)
from repro.units import PAGE_SIZE


def make_space(mmem_cap_pages=None, cxl_cap_pages=None):
    platform = paper_cxl_platform(snc_enabled=False)
    dram = [n.node_id for n in platform.dram_nodes(0)]
    cxl = [n.node_id for n in platform.cxl_nodes()]
    override = {}
    if mmem_cap_pages is not None:
        override[dram[0]] = mmem_cap_pages * PAGE_SIZE
    if cxl_cap_pages is not None:
        override[cxl[0]] = cxl_cap_pages * PAGE_SIZE
    inv = MemoryInventory(platform, capacity_override=override)
    return AddressSpace(inv), dram[:1], cxl[:1]


SCAN = 100e6  # default scan period, ns


class TestDaemonFramework:
    def test_requires_both_tiers(self):
        space, dram, cxl = make_space()
        with pytest.raises(MigrationError):
            NumaBalancingDaemon(space, [], cxl)
        with pytest.raises(MigrationError):
            NumaBalancingDaemon(space, dram, [])

    def test_tick_respects_scan_period(self):
        space, dram, cxl = make_space()
        pages = space.allocate_pages(4, BindPolicy(cxl))
        for p in pages:
            p.touch(0.0)
        daemon = NumaBalancingDaemon(space, dram, cxl, scan_period_ns=SCAN)
        first = daemon.tick(0.0)
        assert len(first.promoted) == 4
        # Touch again; a tick inside the same period must do nothing.
        again = daemon.tick(SCAN / 2)
        assert again.moved_bytes == 0
        assert daemon.stats.ticks == 1

    def test_stats_accumulate(self):
        space, dram, cxl = make_space()
        pages = space.allocate_pages(2, BindPolicy(cxl))
        for p in pages:
            p.touch(0.0)
        daemon = NumaBalancingDaemon(space, dram, cxl)
        round_ = daemon.tick(0.0)
        assert daemon.stats.promoted_pages == 2
        assert daemon.stats.promoted_bytes == round_.promoted_bytes == 2 * PAGE_SIZE
        assert daemon.stats.moved_bytes == 2 * PAGE_SIZE


class TestNumaBalancing:
    def test_promotes_recently_accessed_only(self):
        space, dram, cxl = make_space()
        pages = space.allocate_pages(10, BindPolicy(cxl))
        now = 1e9
        for p in pages[:3]:
            p.touch(now - SCAN / 10)  # recent
        for p in pages[3:]:
            p.touch(now - SCAN * 50)  # stale
        daemon = NumaBalancingDaemon(space, dram, cxl, scan_period_ns=SCAN)
        round_ = daemon.tick(now)
        assert sorted(p.page_id for p in round_.promoted) == [0, 1, 2]

    def test_mru_order(self):
        space, dram, cxl = make_space()
        pages = space.allocate_pages(5, BindPolicy(cxl))
        now = 1e9
        for i, p in enumerate(pages):
            p.touch(now - (i + 1) * 1e6)  # page 0 most recent
        daemon = NumaBalancingDaemon(space, dram, cxl, scan_batch=2)
        round_ = daemon.tick(now)
        assert [p.page_id for p in round_.promoted] == [0, 1]

    def test_demotes_cold_pages_under_pressure(self):
        space, dram, cxl = make_space(mmem_cap_pages=4)
        dram_pages = space.allocate_pages(4, BindPolicy(dram))  # DRAM full
        cxl_pages = space.allocate_pages(2, BindPolicy(cxl))
        now = 1e9
        for p in dram_pages:
            p.touch(now - SCAN * 100)  # cold DRAM pages
        for p in cxl_pages:
            p.touch(now)  # hot CXL pages
        daemon = NumaBalancingDaemon(space, dram, cxl, dram_high_watermark=0.9)
        round_ = daemon.tick(now)
        assert len(round_.promoted) == 2
        assert len(round_.demoted) >= 1  # room was made

    def test_scan_batch_validation(self):
        space, dram, cxl = make_space()
        with pytest.raises(ValueError):
            NumaBalancingDaemon(space, dram, cxl, scan_batch=0)


class TestHotPageSelection:
    def test_promotes_only_above_threshold(self):
        space, dram, cxl = make_space()
        pages = space.allocate_pages(4, BindPolicy(cxl))
        now = 1e9
        for _ in range(10):
            pages[0].touch(now)  # heat 10
        pages[1].touch(now)  # heat 1
        daemon = HotPageSelectionDaemon(
            space, dram, cxl, initial_threshold=4.0, auto_adjust=False
        )
        round_ = daemon.tick(now)
        assert [p.page_id for p in round_.promoted] == [pages[0].page_id]

    def test_rate_limit_bounds_promotions(self):
        space, dram, cxl = make_space()
        pages = space.allocate_pages(100, BindPolicy(cxl))
        now = 1e9
        for p in pages:
            for _ in range(10):
                p.touch(now)
        # Budget: 2 pages per 100 ms scan.
        rate = 2 * PAGE_SIZE / 0.1
        daemon = HotPageSelectionDaemon(
            space, dram, cxl, promote_rate_limit_bytes_per_s=rate,
            initial_threshold=4.0, auto_adjust=False,
        )
        round_ = daemon.tick(now)
        assert len(round_.promoted) == 2
        assert round_.blocked > 0

    def test_auto_adjust_raises_threshold_when_over_budget(self):
        space, dram, cxl = make_space()
        pages = space.allocate_pages(100, BindPolicy(cxl))
        now = 1e9
        for p in pages:
            for _ in range(10):
                p.touch(now)
        daemon = HotPageSelectionDaemon(
            space, dram, cxl,
            promote_rate_limit_bytes_per_s=PAGE_SIZE / 0.1,
            initial_threshold=4.0,
        )
        before = daemon.threshold
        daemon.tick(now)
        assert daemon.threshold > before

    def test_auto_adjust_lowers_threshold_when_idle(self):
        space, dram, cxl = make_space()
        space.allocate_pages(10, BindPolicy(cxl))  # never touched => cold
        daemon = HotPageSelectionDaemon(space, dram, cxl, initial_threshold=8.0)
        daemon.tick(1e9)
        assert daemon.threshold == 4.0

    def test_threshold_bounded(self):
        space, dram, cxl = make_space()
        space.allocate_pages(1, BindPolicy(cxl))
        daemon = HotPageSelectionDaemon(space, dram, cxl, initial_threshold=1.0)
        for i in range(20):
            daemon.tick((i + 1) * SCAN * 2)
        assert daemon.threshold >= HotPageSelectionDaemon.MIN_THRESHOLD

    def test_validation(self):
        space, dram, cxl = make_space()
        with pytest.raises(ValueError):
            HotPageSelectionDaemon(space, dram, cxl, promote_rate_limit_bytes_per_s=0)
        with pytest.raises(ValueError):
            HotPageSelectionDaemon(space, dram, cxl, initial_threshold=0)


class TestTpp:
    def test_proactive_demotion_restores_headroom(self):
        space, dram, cxl = make_space(mmem_cap_pages=10)
        pages = space.allocate_pages(10, BindPolicy(dram))  # DRAM 100 % full
        now = 1e9
        for p in pages:
            p.touch(now - SCAN * 100)
        daemon = TppDaemon(space, dram, cxl, dram_headroom=0.2)
        round_ = daemon.tick(now)
        assert len(round_.demoted) >= 2  # 20 % of 10 pages
        assert space.inventory.utilization(dram[0]) <= 0.8 + 1e-9

    def test_second_touch_promotion(self):
        space, dram, cxl = make_space()
        pages = space.allocate_pages(2, BindPolicy(cxl))
        now = 1e9
        pages[0].touch(now)
        pages[0].touch(now)  # second touch -> promote
        pages[1].touch(now)  # single touch -> keep on CXL
        daemon = TppDaemon(space, dram, cxl, promotion_heat=2.0)
        round_ = daemon.tick(now)
        assert [p.page_id for p in round_.promoted] == [pages[0].page_id]

    def test_demotes_coldest_first(self):
        space, dram, cxl = make_space(mmem_cap_pages=4)
        pages = space.allocate_pages(4, BindPolicy(dram))
        now = 1e9
        pages[0].touch(now)  # hot
        # pages[1:] never touched -> coldest
        daemon = TppDaemon(space, dram, cxl, dram_headroom=0.25)
        round_ = daemon.tick(now)
        assert pages[0] not in round_.demoted

    def test_validation(self):
        space, dram, cxl = make_space()
        with pytest.raises(ValueError):
            TppDaemon(space, dram, cxl, promotion_heat=0)
        with pytest.raises(ValueError):
            TppDaemon(space, dram, cxl, dram_headroom=1.0)
        with pytest.raises(ValueError):
            TppDaemon(space, dram, cxl, scan_batch=0)


class TestThrashingBehaviour:
    def test_low_locality_workload_thrashes_with_auto_adjust(self):
        """The §4.2.2 pathology: under a scan-like workload with no reuse,
        auto-adjust keeps lowering the threshold and the daemon sustains
        pointless two-way traffic; pinning the threshold high stops it."""
        import numpy as np

        def run(auto_adjust):
            space, dram, cxl = make_space(mmem_cap_pages=64)
            space.allocate_pages(64, BindPolicy(dram))
            space.allocate_pages(192, BindPolicy(cxl))
            rng = np.random.default_rng(7)
            daemon = HotPageSelectionDaemon(
                space, dram, cxl,
                promote_rate_limit_bytes_per_s=1e9,
                initial_threshold=8.0,
                auto_adjust=auto_adjust,
            )
            now = 0.0
            for _ in range(50):
                # Streaming scan: every page touched once per epoch.
                for p in space.pages:
                    p.touch(now + rng.uniform(0, SCAN / 2))
                now += SCAN
                daemon.tick(now)
            return daemon.stats.moved_bytes

        assert run(auto_adjust=True) > run(auto_adjust=False) * 2

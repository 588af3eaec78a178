"""Tests for the KeyDB application model (units + §4.1/§4.3 shape checks)."""

import math
import statistics

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw import paper_cxl_platform
from repro.hw.device import SsdDevice
from repro.hw.spec import SsdSpec
from repro.mem import AddressSpace, BindPolicy, MemoryInventory, numactl
from repro.apps.kvstore import (
    TABLE1_CONFIGS,
    FlashTier,
    KeyValueStore,
    ServiceProfile,
    build_keydb_experiment,
    run_keydb_config,
    run_keydb_cxl_only,
)
from repro.apps.kvstore.flash import PAGE_CACHE_HIT_NS


@pytest.fixture
def platform():
    return paper_cxl_platform(snc_enabled=False)


@pytest.fixture
def space(platform):
    return AddressSpace(MemoryInventory(platform))


def make_store(space, platform, records=4096, flash=None):
    policy = BindPolicy([platform.dram_nodes(0)[0].node_id])
    return KeyValueStore(space, policy, record_count=records, flash=flash)


class TestServiceProfile:
    def test_presets(self):
        cap = ServiceProfile.capacity()
        vm = ServiceProfile.vm()
        # §4.3: Redis processing dominates in the VM experiment, so its
        # CPU share is larger and its memory sensitivity smaller.
        assert vm.cpu_ns > cap.cpu_ns
        assert vm.struct_accesses + vm.value_accesses < (
            cap.struct_accesses + cap.value_accesses
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceProfile(cpu_ns=-1, struct_accesses=1, value_accesses=1)
        with pytest.raises(ConfigurationError):
            ServiceProfile(cpu_ns=1, struct_accesses=-1, value_accesses=1)


class TestKeyValueStore:
    def test_key_to_page_mapping(self, space, platform):
        store = make_store(space, platform)
        # 1 KB values, 4 KiB pages: four consecutive keys share a page.
        assert store.page_of(0) is store.page_of(3)
        assert store.page_of(0) is not store.page_of(4)

    def test_key_out_of_range(self, space, platform):
        store = make_store(space, platform)
        with pytest.raises(KeyError):
            store.page_of(999_999)

    def test_value_size_must_fit_one_page(self, space, platform):
        policy = BindPolicy([0])
        with pytest.raises(ConfigurationError):
            # 8 KiB would span two 4 KiB pages.
            KeyValueStore(space, policy, record_count=10, value_size=8192)
        with pytest.raises(ConfigurationError):
            KeyValueStore(space, policy, record_count=10, value_size=0)
        store = KeyValueStore(space, policy, record_count=10, value_size=4096)
        assert len(store.pages) == 10  # one value per page

    def test_plan_get_touches_page(self, space, platform):
        store = make_store(space, platform)
        page, ssd_read, ssd_write = store.plan_op(5, False, now_ns=123.0)
        assert page is store.page_of(5)
        assert page.access_count == 1
        assert page.last_access_ns == 123.0
        assert page.write_count == 0
        assert ssd_read == 0
        assert ssd_write == 0

    def test_plan_set_grows_space(self, space, platform):
        store = make_store(space, platform, records=16)
        page, _, _ = store.plan_op(100, True, now_ns=0.0)
        assert page.write_count == 1
        assert store.record_count == 101
        assert page is store.page_of(100)

    def test_plan_get_outside_the_space_is_a_key_error(self, space, platform):
        store = make_store(space, platform, records=16)
        with pytest.raises(KeyError):
            store.plan_op(16, False, now_ns=0.0)
        assert store.record_count == 16

    def test_plan_op_reads_and_persists_through_flash(self, space, platform):
        flash = FlashTier(
            SsdDevice(SsdSpec()), resident_values=2, value_size=1024,
            cache_inefficiency=0.0,
        )
        store = make_store(space, platform, records=4, flash=flash)
        # Keys 2 and 3 are resident; 0 and 1 were displaced at the fill.
        assert store.plan_op(3, False, now_ns=0.0)[1:] == (0, 0)
        assert store.plan_op(0, False, now_ns=1.0)[1:] == (1024, 0)  # evicts 2
        assert store.plan_op(3, True, now_ns=2.0)[1:] == (0, 1024)
        assert store.plan_op(2, True, now_ns=3.0)[1:] == (1024, 1024)
        # An insert registers its value as resident: only the write.
        assert store.plan_op(4, True, now_ns=4.0)[1:] == (0, 1024)
        assert store.record_count == 5
        assert flash.total_values == 5
        assert (flash.faults, flash.hits) == (2, 3)

    def test_plan_batch_rejects_reads_outside_the_space(self, space, platform):
        store = make_store(space, platform, records=100)
        # The write to key 100 grows the space, so only the read of 101 fails.
        keys = np.array([5, 100, 100, 101])
        with pytest.raises(KeyError):
            store.plan_batch(keys, np.array([False, True, False, False]), 0.0)
        with pytest.raises(KeyError):
            store.plan_batch(np.array([-1]), np.array([True]), 0.0)

    def test_plan_batch_grows_and_touches(self, space, platform):
        store = make_store(space, platform, records=100)
        keys = np.array([100, 101, 100, 3])
        plan = store.plan_batch(keys, np.array([True, True, False, False]), 7.0)
        assert store.record_count == 102
        assert [p.access_count for p in plan.pages] == [1, 3]
        assert [p.write_count for p in plan.pages] == [0, 2]
        assert plan.pages[plan.page_index[0]] is store.page_of(100)
        assert not plan.ssd_read.any()

    def test_dataset_bytes(self, space, platform):
        store = make_store(space, platform, records=1000)
        assert store.dataset_bytes() == 1000 * 1024

    def test_node_mix_sums_to_one(self, space, platform):
        store = make_store(space, platform)
        assert sum(store.node_mix().values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("config", ["3:1", "1:1", "1:3", "bind", "empty"])
    def test_node_mix_matches_a_loop_over_pages(self, space, platform, config):
        if config == "bind":
            store = make_store(space, platform, records=4097)
        else:
            n, m = (1, 1) if config == "empty" else map(int, config.split(":"))
            store = KeyValueStore(
                space, numactl.tier_interleave(platform, n, m), record_count=4097
            )
        if config == "empty":
            store.pages = []
        counts = {}
        for page in store.pages:
            counts[page.node_id] = counts.get(page.node_id, 0) + 1
        expected = {node: c / len(store.pages) for node, c in counts.items()}
        mix = store.node_mix()
        assert list(mix.items()) == list(expected.items())
        if config == "empty":
            assert mix == {}
        else:
            assert (len(mix) == 1) == (config == "bind")


class TestFlashTier:
    def make_flash(self, resident=100, **kwargs):
        ssd = SsdDevice(SsdSpec())
        return FlashTier(ssd, resident_values=resident, value_size=1024, **kwargs)

    def test_validation(self):
        ssd = SsdDevice(SsdSpec())
        with pytest.raises(ConfigurationError):
            FlashTier(ssd, resident_values=0, value_size=1024)
        with pytest.raises(ConfigurationError):
            FlashTier(ssd, resident_values=1, value_size=1024, cache_inefficiency=2.0)
        with pytest.raises(ConfigurationError):
            FlashTier(ssd, resident_values=1, value_size=1024, os_cache_hit_rate=1.0)

    def test_new_writes_are_memtable_resident(self):
        flash = self.make_flash(resident=2, cache_inefficiency=0.0)
        flash.register_value(0)
        flash.register_value(1)
        flash.register_value(2)  # over capacity: displaces the LRU (key 0)
        assert not flash.is_resident(0)
        assert flash.is_resident(1)
        assert flash.is_resident(2)
        assert flash.spilled_fraction == pytest.approx(1 / 3)

    def test_lru_eviction_order(self):
        flash = self.make_flash(resident=2, cache_inefficiency=0.0)
        for key in (0, 1, 2):
            flash.register_value(key)
        # Capacity 2: registering key 2 displaced key 0 (the LRU).
        assert not flash.is_resident(0)
        flash.note_use(1)  # 2 becomes LRU
        flash.fault_in(0)  # evicts 2
        assert flash.is_resident(0)
        assert flash.is_resident(1)
        assert not flash.is_resident(2)
        assert flash.evictions == 2  # one at register, one at fault

    def test_churn_probability(self):
        flash = self.make_flash(
            resident=50, cache_inefficiency=1.0, rng=np.random.default_rng(1)
        )
        for key in range(100):  # 50 % spilled, churn = 0.5
            flash.register_value(key)
        # Key 99 is resident (newest); churn still forces ~50 % misses.
        hits = sum(flash.is_resident(99) for _ in range(2000))
        assert 800 < hits < 1200

    def test_write_amortization(self):
        flash = self.make_flash(resident=10)
        raw = flash.ssd.access_time_ns(1024, is_write=True)
        assert flash.write_time_ns(1024) == pytest.approx(raw * 0.10)

    def test_os_cache_hit_path(self):
        flash = self.make_flash(
            resident=10, os_cache_hit_rate=0.999, rng=np.random.default_rng(2)
        )
        assert flash.read_time_ns(4096) == PAGE_CACHE_HIT_NS

    @pytest.mark.parametrize("hit_rate", [0.0, 0.45])
    def test_batched_reads_match_per_op_reads(self, hit_rate):
        batched, looped = (
            self.make_flash(os_cache_hit_rate=hit_rate, rng=np.random.default_rng(4))
            for _ in range(2)
        )
        times = batched.read_times_ns(300, 1024, utilization=0.3)
        assert times.tolist() == [looped.read_time_ns(1024, 0.3) for _ in range(300)]
        assert batched.ssd.bytes_read == looped.ssd.bytes_read
        assert batched._rng.random() == looped._rng.random()

    def test_batched_writes_account_every_write(self):
        batched, looped = self.make_flash(), self.make_flash()
        time_ns = batched.write_time_ns(1024, 0.2, count=7)
        assert [looped.write_time_ns(1024, 0.2) for _ in range(7)] == [time_ns] * 7
        assert batched.ssd.bytes_written == looped.ssd.bytes_written == 7 * 1024


class TestExperimentAssembly:
    def test_table1_configs_all_build(self):
        for config in TABLE1_CONFIGS:
            exp = build_keydb_experiment(config, record_count=4096)
            assert exp.name == config

    def test_unknown_config_rejected(self):
        with pytest.raises(ConfigurationError):
            build_keydb_experiment("mmem-ssd-2.0", record_count=4096)
        with pytest.raises(ConfigurationError):
            build_keydb_experiment("nvram", record_count=4096)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            build_keydb_experiment("mmem", workload="Z", record_count=4096)

    def test_interleave_config_places_across_tiers(self):
        exp = build_keydb_experiment("1:1", record_count=8192)
        store = exp.server.store
        cxl_ids = {n.node_id for n in exp.platform.cxl_nodes()}
        mix = store.node_mix()
        cxl_share = sum(frac for node, frac in mix.items() if node in cxl_ids)
        assert cxl_share == pytest.approx(0.5, abs=0.01)

    def test_hot_promote_has_daemon_and_capped_dram(self):
        exp = build_keydb_experiment("hot-promote", record_count=8192)
        assert exp.server.tiering is not None
        dram = exp.platform.dram_nodes(0)[0]
        inv = exp.server.store.space.inventory
        assert inv.capacity(dram.node_id) == exp.server.store.dataset_bytes() // 2

    def test_ssd_config_has_flash(self):
        exp = build_keydb_experiment("mmem-ssd-0.2", record_count=4096)
        flash = exp.server.store.flash
        assert flash is not None
        assert flash.spilled_fraction == pytest.approx(0.2, abs=0.01)

    def test_deterministic_runs(self):
        a = run_keydb_config("1:1", record_count=4096, total_ops=4000, seed=3)
        b = run_keydb_config("1:1", record_count=4096, total_ops=4000, seed=3)
        assert a.throughput_ops_per_s == pytest.approx(b.throughput_ops_per_s)


class TestFig5Shape:
    """Scaled-down §4.1.2 shape checks (full scale runs in benchmarks/)."""

    @pytest.fixture(scope="class")
    def results(self):
        return {
            config: run_keydb_config(
                config, workload="A", record_count=16_384, total_ops=30_000
            )
            for config in ("mmem", "3:1", "1:1", "1:3", "mmem-ssd-0.2")
        }

    def test_mmem_fastest(self, results):
        base = results["mmem"].throughput_ops_per_s
        for config, r in results.items():
            if config != "mmem":
                assert r.throughput_ops_per_s < base

    def test_interleave_slowdown_band(self, results):
        """§4.1.2: interleaving is 1.2-1.5x slower than MMEM."""
        base = results["mmem"].throughput_ops_per_s
        for config in ("1:1", "1:3"):
            slowdown = base / results[config].throughput_ops_per_s
            assert 1.15 <= slowdown <= 1.65

    def test_more_cxl_is_slower(self, results):
        assert (
            results["3:1"].throughput_ops_per_s
            > results["1:1"].throughput_ops_per_s
            > results["1:3"].throughput_ops_per_s
        )

    def test_ssd_slowest_and_heavy_tail(self, results):
        """SSD spill is the slowest configuration and has a far worse
        tail than any in-memory configuration (Fig. 5(b))."""
        ssd = results["mmem-ssd-0.2"]
        for config in ("mmem", "3:1", "1:1", "1:3"):
            assert ssd.throughput_ops_per_s < results[config].throughput_ops_per_s
        assert ssd.read_latency.percentile(99.9) > (
            results["1:1"].read_latency.percentile(99.9) * 5
        )

    def test_interleave_raises_read_tail(self, results):
        """Fig. 5(c): the interleave CDF is right-shifted vs MMEM."""
        assert results["1:1"].read_latency.percentile(99) > (
            results["mmem"].read_latency.percentile(99)
        )


class TestFig8CxlOnly:
    """§4.3: KeyDB bound entirely to CXL vs entirely to MMEM."""

    @pytest.fixture(scope="class")
    def pair(self):
        mmem = run_keydb_cxl_only(on_cxl=False, record_count=20_480, total_ops=30_000)
        cxl = run_keydb_cxl_only(on_cxl=True, record_count=20_480, total_ops=30_000)
        return mmem, cxl

    def test_throughput_drop_near_12_5_percent(self, pair):
        mmem, cxl = pair
        drop = 1.0 - cxl.throughput_ops_per_s / mmem.throughput_ops_per_s
        assert 0.08 <= drop <= 0.17

    def test_latency_penalty_in_9_27_band(self, pair):
        mmem, cxl = pair
        penalty = cxl.read_latency.percentile(50) / mmem.read_latency.percentile(50) - 1
        assert 0.05 <= penalty <= 0.30

    def test_penalty_below_raw_latency_ratio(self, pair):
        """§4.3.2: the app-level penalty is far below the raw 2.5x path
        latency ratio, because Redis processing dominates."""
        mmem, cxl = pair
        penalty = cxl.read_latency.mean / mmem.read_latency.mean
        assert penalty < 1.5


class TestSeedStability:
    def test_keydb_interleave_ratio_stable_across_seeds(self):
        """The 1:1 interleave slowdown band must not be a seed artifact."""
        slowdowns = []
        for seed in (11, 22, 33):
            base = run_keydb_config(
                "mmem", record_count=16_384, total_ops=20_000, seed=seed
            ).throughput_ops_per_s
            inter = run_keydb_config(
                "1:1", record_count=16_384, total_ops=20_000, seed=seed
            ).throughput_ops_per_s
            slowdowns.append(base / inter)
        mean = statistics.mean(slowdowns)
        stdev = statistics.stdev(slowdowns)
        assert stdev / mean < 0.05
        # The 95 % normal-approximation confidence interval of the mean
        # lies inside the band.
        half = 1.96 * stdev / math.sqrt(len(slowdowns))
        assert 1.15 <= mean - half and mean + half <= 1.6

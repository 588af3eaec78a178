"""Cross-validation: the event-driven KeyDB agrees with the epoch model."""

import numpy as np
import pytest

from repro.apps.kvstore import FlashTier, KeyValueStore, ServiceProfile
from repro.apps.kvstore.des_server import DesKeyDbServer
from repro.apps.kvstore.server import KeyDbServer
from repro.errors import ConfigurationError
from repro.hw import paper_cxl_platform
from repro.hw.device import SsdDevice
from repro.hw.spec import SsdSpec
from repro.mem import AddressSpace, MemoryInventory, numactl
from repro.sim import RngFactory
from repro.workloads import WORKLOADS, YcsbGenerator

RECORDS = 16_384
OPS = 30_000


def build(config: str, flash=None):
    platform = paper_cxl_platform(snc_enabled=False)
    space = AddressSpace(MemoryInventory(platform))
    if config == "mmem":
        policy = numactl.membind(platform, socket=0)
    else:
        n, m = (int(x) for x in config.split(":"))
        policy = numactl.tier_interleave(platform, n, m)
    store = KeyValueStore(
        space, policy, record_count=RECORDS, profile=ServiceProfile.capacity(),
        flash=flash,
    )
    return platform, store


def generator(seed=7, workload="A"):
    return YcsbGenerator(
        WORKLOADS[workload], RECORDS, RngFactory(seed).stream("des")
    )


class TestValidation:
    def test_parameters(self):
        platform, store = build("mmem")
        with pytest.raises(ConfigurationError):
            DesKeyDbServer(platform, store, threads=0)
        with pytest.raises(ConfigurationError):
            DesKeyDbServer(platform, store, clients=0)
        with pytest.raises(ConfigurationError):
            DesKeyDbServer(platform, store, utilization_refresh_ops=0)
        with pytest.raises(ConfigurationError):
            DesKeyDbServer(platform, store).run(generator(), 0)


class TestCrossValidation:
    @pytest.mark.parametrize("config", ["mmem", "1:1"])
    def test_throughput_agrees_with_epoch_model(self, config):
        platform, store = build(config)
        des = DesKeyDbServer(platform, store, threads=7, clients=16)
        des_result = des.run(generator(seed=7), OPS)

        platform2, store2 = build(config)
        epoch = KeyDbServer(platform2, store2, threads=7)
        epoch_result = epoch.run(generator(seed=7), OPS, warmup_ops=0)

        ratio = (
            des_result.throughput_ops_per_s / epoch_result.throughput_ops_per_s
        )
        assert 0.9 <= ratio <= 1.1, ratio

    def test_interleave_ordering_preserved(self):
        results = {}
        for config in ("mmem", "1:1"):
            platform, store = build(config)
            server = DesKeyDbServer(platform, store, clients=16)
            results[config] = server.run(generator(seed=3), OPS)
        assert (
            results["mmem"].throughput_ops_per_s
            > results["1:1"].throughput_ops_per_s
        )

    def test_queueing_visible_in_tails(self):
        """More clients than threads -> thread-queueing inflates the
        closed-loop tail above the bare service time."""
        platform, store = build("mmem")
        saturated = DesKeyDbServer(platform, store, threads=7, clients=28)
        r = saturated.run(generator(seed=5), 20_000)
        # Bare service for mmem ~5 us; with 4x oversubscription the
        # closed-loop p50 must sit well above it.
        assert r.read_latency.percentile(50) > 10_000

    def test_all_ops_complete(self):
        platform, store = build("mmem")
        server = DesKeyDbServer(platform, store, clients=4)
        result = server.run(generator(seed=1), 5_000)
        assert result.ops == 5_000
        assert result.elapsed_ns > 0


def _flash(seed=3):
    return FlashTier(
        SsdDevice(SsdSpec()), resident_values=RECORDS // 4, value_size=1024,
        rng=np.random.default_rng(seed),
    )


class TestServiceTable:
    """The per-op service table against the scalar formula it replaced."""

    @pytest.mark.parametrize("config", ["mmem", "3:1", "1:1"])
    def test_every_entry_matches_the_scalar_formula(self, config):
        platform, store = build(config)
        server = DesKeyDbServer(platform, store, utilization_refresh_ops=500)
        server.run(generator(), 3000)  # refreshes load the paths
        assert server._utilization
        profile = store.profile
        mix = store.node_mix()
        for is_write in (False, True):
            latency = {}
            for n in platform.nodes:
                path = server._path(n)
                latency[n] = path.loaded_latency_ns(
                    path.bottleneck_utilization(server._utilization), float(is_write)
                )
            struct = sum(frac * latency[n] for n, frac in mix.items())
            for n in platform.nodes:
                expected = profile.cpu_ns
                expected += profile.struct_accesses * struct
                expected += profile.value_accesses * latency[n]
                assert server._service[is_write][n] == expected

    def test_price_adds_the_flash_read_then_the_write(self):
        platform, store = build("1:1", flash=_flash())
        server = DesKeyDbServer(platform, store)
        server._latency_tables()
        twin = _flash()  # the same draws, in the same order
        for page in (store.page_of(0), store.page_of(RECORDS - 1)):
            assert server._price(page, False, 0, 0) == server._service[0][page.node_id]
            expected = server._service[1][page.node_id]
            expected += twin.read_time_ns(1024)
            expected += twin.write_time_ns(1024)
            assert server._price(page, True, 1024, 1024) == expected

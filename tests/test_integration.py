"""Cross-layer integration tests: the subsystems composed end-to-end."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.kvstore import build_keydb_experiment
from repro.core import BandwidthAwarePlacer
from repro.hw import paper_cxl_platform
from repro.mem import AddressSpace, HotPageSelectionDaemon, MemoryInventory, numactl
from repro.units import PAGE_SIZE, gb_per_s
from repro.workloads import WORKLOADS, YcsbGenerator


class TestInventoryConservation:
    """Capacity accounting must survive arbitrary migration churn."""

    def test_keydb_hot_promote_conserves_bytes(self):
        exp = build_keydb_experiment("hot-promote", record_count=8192)
        inv = exp.server.store.space.inventory
        before = {n: inv.used(n) for n in exp.platform.nodes}
        total_before = sum(before.values())
        exp.run(20_000, warmup_ops=0)
        total_after = sum(inv.used(n) for n in exp.platform.nodes)
        assert total_after == total_before  # migrations move, never leak

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=120))
    def test_random_migration_sequences_conserve(self, n_pages, n_moves):
        platform = paper_cxl_platform()
        inv = MemoryInventory(platform)
        space = AddressSpace(inv)
        policy = numactl.interleave(platform)
        pages = space.allocate_pages(n_pages, policy)
        nodes = list(platform.nodes)
        rng = np.random.default_rng(n_pages * 7 + n_moves)
        total = space.total_bytes()
        for _ in range(n_moves):
            page = pages[int(rng.integers(0, len(pages)))]
            target = nodes[int(rng.integers(0, len(nodes)))]
            if target != page.node_id:
                space.move_page(page, target)
        assert sum(inv.used(n) for n in nodes) == total
        assert sum(space.node_distribution().values()) == total


class TestPlacementMatchesApplicationOutcome:
    """The §3.4 optimizer must agree with the §5 application result:
    once demand crosses the knee, offloading to CXL wins in both."""

    def test_llm_crossover_agrees_with_placer(self):
        from repro.apps.llm import LlmServingExperiment

        mmem = LlmServingExperiment("mmem")
        three_one = LlmServingExperiment("3:1")

        platform = paper_cxl_platform(snc_enabled=True)
        dram = platform.dram_nodes(0)[0]
        cxl = platform.cxl_nodes()[0]
        placer = BandwidthAwarePlacer(
            platform.path(0, dram.node_id, initiator_domain=dram.domain),
            platform.path(0, cxl.node_id),
        )
        for backends in (2, 5):
            demand = backends * mmem.spec.offered_bandwidth
            offload_wins_app = (
                three_one.serving_point(backends).tokens_per_second
                > mmem.serving_point(backends).tokens_per_second
            )
            offload_wins_placer = placer.optimal_split(
                demand, write_fraction=0.1
            ).should_offload
            assert offload_wins_app == offload_wins_placer, backends


class TestDeterminism:
    def test_full_keydb_run_bit_identical(self):
        def run():
            exp = build_keydb_experiment("1:1", record_count=8192, seed=99)
            r = exp.run(10_000)
            return (
                r.throughput_ops_per_s,
                r.read_latency.percentile(99),
                r.counters.as_dict(),
            )

        assert run() == run()

    def test_ycsb_streams_isolated_between_workloads(self):
        """Changing one workload's draw must not perturb another's."""
        from repro.sim import RngFactory

        f1, f2 = RngFactory(5), RngFactory(5)
        gen_a1 = YcsbGenerator(WORKLOADS["A"], 1000, f1.stream("a"))
        _ = YcsbGenerator(WORKLOADS["B"], 1000, f1.stream("b")).next_operation()
        gen_a2 = YcsbGenerator(WORKLOADS["A"], 1000, f2.stream("a"))
        ops1 = [(o.op, o.key) for o in gen_a1.operations(100)]
        ops2 = [(o.op, o.key) for o in gen_a2.operations(100)]
        assert ops1 == ops2


class TestTieringUnderMemoryPressure:
    def test_promotion_with_full_dram_demotes_first(self):
        """When DRAM is exactly dataset/2 (the Hot-Promote setup), every
        promotion must be paired with a demotion — never an overflow."""
        platform = paper_cxl_platform()
        dram = [platform.dram_nodes(0)[0].node_id]
        cxl = [n.node_id for n in platform.cxl_nodes()]
        pages_each = 512
        inv = MemoryInventory(
            platform, capacity_override={dram[0]: pages_each * PAGE_SIZE}
        )
        space = AddressSpace(inv)
        from repro.mem import BindPolicy

        space.allocate_pages(pages_each, BindPolicy(dram))
        cxl_pages = space.allocate_pages(pages_each, BindPolicy(cxl))
        daemon = HotPageSelectionDaemon(
            space, dram, cxl,
            promote_rate_limit_bytes_per_s=gb_per_s(10),
            initial_threshold=1.0,
            dram_high_watermark=0.99,
        )
        now = 0.0
        for _ in range(10):
            for p in cxl_pages[:64]:
                p.touch(now)
                p.touch(now)
            now += 100e6
            daemon.tick(now)
        # DRAM never exceeded its cap, and promotions really happened.
        assert inv.used(dram[0]) <= pages_each * PAGE_SIZE
        assert daemon.stats.promoted_pages > 0
        assert daemon.stats.demoted_pages >= daemon.stats.promoted_pages - 1


class TestPoolingOnTopOfPlatform:
    def test_pool_backs_spare_vcpus(self):
        """§4.3 + §7.1 composed: a pool covers the stranded-vCPU memory
        of several memory-bound hosts."""
        from repro.core import SpareCoreModel
        from repro.hw import CxlSwitch, MemoryPool, a1000_card
        from repro.units import GIB

        spare = SpareCoreModel(actual_ratio=3.0, target_ratio=4.0)
        need_per_host = spare.required_cxl_bytes(256, 4 * GIB)
        pool = MemoryPool(tuple(a1000_card() for _ in range(4)), CxlSwitch())
        hosts = 0
        while pool.free_bytes >= need_per_host and hosts < 15:
            pool.allocate(f"host-{hosts}", need_per_host)
            hosts += 1
        assert hosts == pool.total_bytes // need_per_host
        assert hosts >= 4

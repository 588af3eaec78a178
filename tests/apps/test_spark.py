"""Tests for the Spark application model (units + §4.2 shape checks)."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.spec import NicSpec, SsdSpec
from repro.apps.spark import (
    SPARK_CONFIGS,
    ExecutorSpec,
    SparkAppSpec,
    build_cluster_config,
    measure_cost_model_inputs,
    network_time_ns,
    plan_spill,
    run_spark_config,
    ssd_time_ns,
    tier_bandwidths,
)
from repro.units import GIB, gb, tb
from repro.workloads import paper_queries


class TestSpecs:
    def test_paper_app_sizing(self):
        """§4.2.1: 150 executors x 1 core x 8 GB = 150 cores, 1.2 TB."""
        app = SparkAppSpec()
        assert app.total_cores == 150
        assert app.total_memory_bytes == 150 * 8 * GIB

    def test_executor_validation(self):
        with pytest.raises(ConfigurationError):
            ExecutorSpec(cores=0)
        with pytest.raises(ConfigurationError):
            ExecutorSpec(shuffle_fraction=0.0)
        with pytest.raises(ConfigurationError):
            SparkAppSpec(executors=0)
        with pytest.raises(ConfigurationError):
            SparkAppSpec(skew=0.5)

    def test_shuffle_capacity(self):
        assert ExecutorSpec().shuffle_capacity_bytes == 4 * GIB


class TestSpillPlanning:
    def test_no_spill_when_fits(self):
        plan = plan_spill(SparkAppSpec(), shuffle_bytes=gb(400))
        assert plan.spilled_bytes == 0
        assert plan.in_memory_bytes == gb(400)

    def test_mmem_config_never_spills_paper_queries(self):
        """§4.2.1: with full memory 'there is no data spilled to disk'."""
        app = SparkAppSpec()
        for profile in paper_queries().values():
            for stage in profile.stages:
                assert plan_spill(app, stage.shuffle_bytes).spilled_bytes == 0

    def test_restriction_causes_spill(self):
        app = SparkAppSpec()
        big = gb(550)  # fits 600 GB cluster capacity, not 80 % of it
        assert plan_spill(app, big, memory_restriction=1.0).spilled_bytes == 0
        spilled = plan_spill(app, big, memory_restriction=0.8).spilled_bytes
        assert spilled == pytest.approx(big - 0.8 * 150 * 4 * GIB, rel=0.01)

    def test_deeper_restriction_spills_more(self):
        app = SparkAppSpec()
        s08 = plan_spill(app, gb(550), 0.8).spilled_bytes
        s06 = plan_spill(app, gb(550), 0.6).spilled_bytes
        assert s06 > s08 > 0

    def test_spill_fraction(self):
        plan = plan_spill(SparkAppSpec(), gb(550), 0.6)
        assert 0 < plan.spill_fraction < 1
        assert plan.in_memory_bytes + plan.spilled_bytes == gb(550)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            plan_spill(SparkAppSpec(), -1)
        with pytest.raises(ConfigurationError):
            plan_spill(SparkAppSpec(), 100, memory_restriction=0.0)


class TestSsdAndNetwork:
    def test_ssd_time_zero_for_no_spill(self):
        assert ssd_time_ns(0, 3, SsdSpec()) == 0.0

    def test_ssd_time_scales_inverse_with_servers(self):
        t3 = ssd_time_ns(gb(100), 3, SsdSpec())
        t1 = ssd_time_ns(gb(100), 1, SsdSpec())
        assert t1 == pytest.approx(3 * t3)

    def test_ssd_validation(self):
        with pytest.raises(ConfigurationError):
            ssd_time_ns(gb(1), 0, SsdSpec())
        with pytest.raises(ConfigurationError):
            ssd_time_ns(gb(1), 1, SsdSpec(), io_efficiency=0.0)

    def test_network_time_zero_single_server(self):
        assert network_time_ns(gb(100), 1, NicSpec()) == 0.0

    def test_network_cross_fraction(self):
        # 3 servers: 2/3 of bytes cross, at 3x NIC bandwidth.
        nic = NicSpec()
        t = network_time_ns(gb(300), 3, nic)
        expected = gb(200) / (nic.bandwidth_bytes_per_s * 3) * 1e9
        assert t == pytest.approx(expected)


class TestClusterConfigs:
    def test_all_paper_configs_build(self):
        for name in SPARK_CONFIGS:
            cfg = build_cluster_config(name)
            assert cfg.name == name

    def test_mmem_uses_three_servers(self):
        assert build_cluster_config("mmem").servers == 3
        assert build_cluster_config("mmem").dram_fraction == 1.0

    def test_interleave_uses_two_cxl_servers(self):
        cfg = build_cluster_config("1:3")
        assert cfg.servers == 2
        assert cfg.dram_fraction == pytest.approx(0.25)
        assert cfg.platform.cxl_nodes()

    def test_hot_promote_capacity_driven_fraction(self):
        cfg = build_cluster_config("hot-promote")
        # 600 GB working set per server vs 512 GB of MMEM.
        assert cfg.dram_fraction == pytest.approx(512 / 600, abs=0.01)
        assert cfg.thrash_overhead > 0

    def test_unknown_config(self):
        with pytest.raises(ConfigurationError):
            build_cluster_config("4:0")
        with pytest.raises(ConfigurationError):
            build_cluster_config("nvme")

    def test_tier_bandwidths(self):
        bw = tier_bandwidths(build_cluster_config("1:1").platform)
        assert bw["dram"] > bw["cxl"] > 0
        baseline = tier_bandwidths(build_cluster_config("mmem").platform)
        assert baseline["cxl"] == 0


class TestFig7Shape:
    @pytest.fixture(scope="class")
    def results(self):
        queries = paper_queries()
        return {name: run_spark_config(name, queries) for name in SPARK_CONFIGS}

    @pytest.fixture(scope="class")
    def slowdowns(self, results):
        base = {q: r.total_ns for q, r in results["mmem"].items()}
        return {
            name: {q: r.total_ns / base[q] for q, r in per_query.items()}
            for name, per_query in results.items()
        }

    def test_mmem_is_best(self, slowdowns):
        for name, per_query in slowdowns.items():
            if name == "mmem":
                continue
            for q, ratio in per_query.items():
                assert ratio >= 1.0, (name, q)

    def test_interleave_band_1_4_to_9_8(self, slowdowns):
        """§4.2.2: interleave slowdowns range from 1.4x to 9.8x."""
        ratios = [
            slowdowns[name][q]
            for name in ("3:1", "1:1", "1:3")
            for q in ("Q5", "Q7", "Q8", "Q9")
        ]
        assert min(ratios) == pytest.approx(1.4, abs=0.15)
        assert 6.0 <= max(ratios) <= 11.0

    def test_slowdown_grows_with_cxl_fraction(self, slowdowns):
        """§4.2.2: 'degradation becomes worse as a larger proportion of
        memory is allocated to CXL'."""
        for q in ("Q5", "Q7", "Q8", "Q9"):
            assert slowdowns["3:1"][q] < slowdowns["1:1"][q] < slowdowns["1:3"][q]

    def test_q9_suffers_most_from_interleave(self, slowdowns):
        for name in ("3:1", "1:1", "1:3"):
            per_query = slowdowns[name]
            assert per_query["Q9"] == max(per_query.values())

    def test_hot_promote_over_34_percent_slowdown(self, slowdowns):
        """§4.2.2: Hot-Promote shows >34 % slowdown vs MMEM on Spark."""
        for ratio in slowdowns["hot-promote"].values():
            assert ratio >= 1.34

    def test_hot_promote_better_than_plain_interleave(self, slowdowns):
        for q in ("Q5", "Q7", "Q8", "Q9"):
            assert slowdowns["hot-promote"][q] < slowdowns["1:1"][q]

    def test_deep_spill_worse_than_any_interleave(self, slowdowns):
        """§4.2.2: 'the interleaving approach remains significantly
        faster than spilling data to SSDs'."""
        for q in ("Q5", "Q7", "Q8", "Q9"):
            worst_interleave = max(
                slowdowns[name][q] for name in ("3:1", "1:1", "1:3")
            )
            assert slowdowns["spill-0.6"][q] > worst_interleave

    def test_spill_dominated_by_shuffle(self, results):
        """Fig. 7(b): 'shuffling overshadows the total execution time due
        to the intensification of data spill issues'."""
        for r in results["spill-0.6"].values():
            assert r.shuffle_fraction > 0.9
        for q, r in results["mmem"].items():
            assert r.shuffle_fraction < results["spill-0.6"][q].shuffle_fraction

    def test_spill_volumes_ordered(self, results):
        spilled_08 = sum(r.spilled_bytes for r in results["spill-0.8"].values())
        spilled_06 = sum(r.spilled_bytes for r in results["spill-0.6"].values())
        assert 0 < spilled_08 < spilled_06
        # Rough §4.2.1 magnitudes at the 7 TB scale (hundreds of GB).
        assert gb(50) < spilled_08 < tb(1)
        assert gb(300) < spilled_06 < tb(1.5)

    def test_shuffle_write_read_split_present(self, results):
        r = results["mmem"]["Q9"]
        assert r.shuffle_write_ns > 0
        assert r.shuffle_read_ns > 0


class TestCostModelInputs:
    def test_ordering(self):
        inputs = measure_cost_model_inputs()
        assert inputs.r_d > inputs.r_c > 1.0

    def test_validation(self):
        from repro.apps.spark import CostModelInputs

        with pytest.raises(ValueError):
            CostModelInputs(r_d=2.0, r_c=3.0)


class TestSkew:
    def test_skew_raises_spill(self):
        """A skewed partitioner spills earlier: the most loaded executor
        crosses its capacity while the average still fits."""
        balanced = SparkAppSpec(skew=1.0)
        skewed = SparkAppSpec(skew=1.3)
        ws = gb(500)  # average share 3.33 GB < 4 GB capacity
        assert plan_spill(balanced, ws).spilled_bytes == 0
        assert plan_spill(skewed, ws).spilled_bytes > 0

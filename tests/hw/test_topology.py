"""Tests for platform topology, path resolution, and mix-aware allocation."""

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.hw import (
    NodeKind,
    PathKind,
    paper_baseline_platform,
    paper_cxl_platform,
    paper_testbed,
)
from repro.hw.spec import CpuSpec, ServerSpec
from repro.units import GIB, gb_per_s, to_gb_per_s


class TestSpecs:
    def test_paper_cxl_server_memory_totals(self):
        """1 TB MMEM + 512 GB CXL per CXL server (§2.4)."""
        p = paper_cxl_platform()
        assert p.spec.total_mmem_bytes == 1024 * GIB
        assert p.spec.total_cxl_bytes == 512 * GIB
        assert p.spec.total_memory_bytes == 1536 * GIB

    def test_baseline_has_no_cxl(self):
        p = paper_baseline_platform()
        assert p.spec.total_cxl_bytes == 0
        assert p.cxl_nodes() == []

    def test_snc_partitioning(self):
        snc = paper_cxl_platform(snc_enabled=True)
        flat = paper_cxl_platform(snc_enabled=False)
        assert len(snc.dram_nodes()) == 8  # 4 domains x 2 sockets
        assert len(flat.dram_nodes()) == 2
        # Capacity is conserved either way.
        assert sum(n.capacity_bytes for n in snc.dram_nodes()) == sum(
            n.capacity_bytes for n in flat.dram_nodes()
        )

    def test_snc_domain_has_two_channels_of_capacity(self):
        snc = paper_cxl_platform(snc_enabled=True)
        domain = snc.dram_nodes(0)[0]
        assert domain.capacity_bytes == 128 * GIB  # 2 x 64 GB DIMMs

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerSpec(sockets=0)
        with pytest.raises(ConfigurationError):
            ServerSpec(sockets=2, cxl_socket=5)
        with pytest.raises(ConfigurationError):
            CpuSpec(memory_channels=7, snc_domains=4)

    def test_testbed_has_three_servers(self):
        s0, s1, baseline = paper_testbed()
        assert s0.cxl_nodes() and s1.cxl_nodes() and not baseline.cxl_nodes()


class TestPathResolution:
    @pytest.fixture
    def platform(self):
        return paper_cxl_platform(snc_enabled=True)

    def test_unknown_node_raises(self, platform):
        with pytest.raises(TopologyError):
            platform.path(0, 999)

    def test_unknown_socket_raises(self, platform):
        with pytest.raises(TopologyError):
            platform.path(7, 0)

    def test_local_dram_path(self, platform):
        node = platform.dram_nodes(0)[0]
        path = platform.path(0, node.node_id, initiator_domain=node.domain)
        assert path.kind is PathKind.MMEM_LOCAL
        assert path.resources == (node.resource.name,)

    def test_snc_sibling_domain_path(self, platform):
        nodes = platform.dram_nodes(0)
        path = platform.path(0, nodes[1].node_id, initiator_domain=0)
        assert path.kind is PathKind.MMEM_SNC
        # Slightly slower than the local domain, far below remote socket.
        local = platform.path(0, nodes[0].node_id, initiator_domain=0)
        remote = platform.path(1, nodes[0].node_id)
        assert local.idle_latency_ns() < path.idle_latency_ns() < remote.idle_latency_ns()

    def test_remote_dram_path_crosses_upi(self, platform):
        node = platform.dram_nodes(1)[0]
        path = platform.path(0, node.node_id)
        assert path.kind is PathKind.MMEM_REMOTE
        assert any(r.startswith("upi/") for r in path.resources)

    def test_local_cxl_path_crosses_pcie(self, platform):
        node = platform.cxl_nodes()[0]
        path = platform.path(0, node.node_id)
        assert path.kind is PathKind.CXL_LOCAL
        assert any("pcie" in r for r in path.resources)
        assert not any("rsf" in r for r in path.resources)

    def test_remote_cxl_path_crosses_upi_and_rsf(self, platform):
        node = platform.cxl_nodes()[0]
        path = platform.path(1, node.node_id)
        assert path.kind is PathKind.CXL_REMOTE
        assert any(r.startswith("upi/") for r in path.resources)
        assert any("rsf" in r for r in path.resources)

    def test_path_kind_predicates(self, platform):
        cxl = platform.cxl_nodes()[0]
        assert platform.path(0, cxl.node_id).kind.is_cxl
        assert platform.path(1, cxl.node_id).kind.is_remote
        assert not platform.path(0, cxl.node_id).kind.is_remote

    def test_node_kind_helpers(self, platform):
        assert platform.cxl_nodes()[0].is_cxl
        assert not platform.dram_nodes()[0].is_cxl
        assert platform.cxl_nodes()[0].kind is NodeKind.CXL


class TestAllocation:
    def test_single_flow_saturates_at_device_peak(self):
        p = paper_cxl_platform(snc_enabled=True)
        node = p.dram_nodes(0)[0]
        path = p.path(0, node.node_id, initiator_domain=0)
        d = p.demand("flow", path, float("inf"), write_fraction=0.0)
        res = p.allocate([d])
        assert to_gb_per_s(res.achieved["flow"]) == pytest.approx(67.0, rel=0.01)

    def test_write_mix_lowers_capacity(self):
        p = paper_cxl_platform(snc_enabled=True)
        node = p.dram_nodes(0)[0]
        path = p.path(0, node.node_id, initiator_domain=0)
        d = p.demand("flow", path, float("inf"), write_fraction=1.0)
        res = p.allocate([d])
        assert to_gb_per_s(res.achieved["flow"]) == pytest.approx(54.6, rel=0.01)

    def test_remote_cxl_flow_limited_by_rsf(self):
        p = paper_cxl_platform(snc_enabled=True)
        node = p.cxl_nodes()[0]
        path = p.path(1, node.node_id)
        d = p.demand("flow", path, float("inf"), write_fraction=1 / 3)
        res = p.allocate([d])
        assert to_gb_per_s(res.achieved["flow"]) == pytest.approx(20.4, rel=0.02)

    def test_local_cxl_flow_not_limited_by_rsf(self):
        p = paper_cxl_platform(snc_enabled=True)
        node = p.cxl_nodes()[0]
        path = p.path(0, node.node_id)
        d = p.demand("flow", path, float("inf"), write_fraction=1 / 3)
        res = p.allocate([d])
        assert to_gb_per_s(res.achieved["flow"]) == pytest.approx(56.7, rel=0.02)

    def test_two_flows_share_dram_fairly(self):
        p = paper_cxl_platform(snc_enabled=True)
        node = p.dram_nodes(0)[0]
        path = p.path(0, node.node_id, initiator_domain=0)
        demands = [
            p.demand("a", path, gb_per_s(50.0)),
            p.demand("b", path, gb_per_s(50.0)),
        ]
        res = p.allocate(demands)
        assert res.achieved["a"] == pytest.approx(res.achieved["b"])
        assert to_gb_per_s(res.achieved["a"] + res.achieved["b"]) == pytest.approx(
            67.0, rel=0.01
        )

    def test_cxl_offload_increases_total_bandwidth(self):
        """The §3.4 insight: MMEM-only tops out at the DRAM peak; adding a
        CXL flow raises aggregate deliverable bandwidth."""
        p = paper_cxl_platform(snc_enabled=True)
        dram = p.dram_nodes(0)[0]
        cxl = p.cxl_nodes()[0]
        dram_path = p.path(0, dram.node_id, initiator_domain=0)
        cxl_path = p.path(0, cxl.node_id)

        only_dram = p.allocate([p.demand("d", dram_path, float("inf"))])
        both = p.allocate(
            [
                p.demand("d", dram_path, float("inf")),
                p.demand("c", cxl_path, float("inf")),
            ]
        )
        total_only = only_dram.achieved["d"]
        total_both = both.achieved["d"] + both.achieved["c"]
        assert total_both > total_only * 1.5

    def test_empty_demands(self):
        p = paper_cxl_platform()
        res = p.allocate([])
        assert res.achieved == {}

    def test_snc_off_socket_has_4x_domain_bandwidth(self):
        p = paper_cxl_platform(snc_enabled=False)
        node = p.dram_nodes(0)[0]
        path = p.path(0, node.node_id)
        res = p.allocate([p.demand("f", path, float("inf"))])
        assert to_gb_per_s(res.achieved["f"]) == pytest.approx(67.0 * 4, rel=0.01)

    def test_duplicate_resource_name_rejected(self):
        p = paper_cxl_platform()
        from repro.hw.bandwidth import PeakBandwidthCurve
        from repro.hw.device import SharedResource

        with pytest.raises(TopologyError):
            p._add_resource(SharedResource("skt0/dram0", PeakBandwidthCurve.flat(1.0)))

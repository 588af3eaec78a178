"""Cross-cutting property-based tests (hypothesis).

These target invariants that must hold for *any* input, not just the
paper's configurations: conservation, monotonicity, and bounds that the
analytical models promise.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AbstractCostModel, BandwidthAwarePlacer
from repro.errors import CostModelError
from repro.hw import paper_cxl_platform
from repro.hw.calibration import path_bandwidth_curve, path_latency_model
from repro.hw.protocol import CxlLinkBudget
from repro.mem.policy import WeightedInterleavePolicy
from repro.units import PAGE_SIZE
from repro.workloads.mlc import MlcProbe

PLATFORM = paper_cxl_platform(snc_enabled=True)
DRAM = PLATFORM.dram_nodes(0)[0]
CXL = PLATFORM.cxl_nodes()[0]
DRAM_PATH = PLATFORM.path(0, DRAM.node_id, initiator_domain=DRAM.domain)
CXL_PATH = PLATFORM.path(0, CXL.node_id)


class TestSurfaceProperties:
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_cxl_always_slower_than_dram_at_idle(self, wf):
        assert path_latency_model("cxl_local").idle_ns(wf) > path_latency_model(
            "mmem_local"
        ).idle_ns(wf)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_loaded_latency_monotone_in_utilization(self, u1, u2):
        lo, hi = sorted((u1, u2))
        for kind in ("mmem_local", "cxl_local", "mmem_remote", "cxl_remote"):
            model = path_latency_model(kind)
            assert model.latency_ns(lo, 0.0) <= model.latency_ns(hi, 0.0) + 1e-9

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_remote_cxl_never_beats_local_cxl(self, wf):
        assert path_bandwidth_curve("cxl_remote")(wf) < path_bandwidth_curve(
            "cxl_local"
        )(wf)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_calibrated_curves_respect_protocol(self, wf):
        budget = CxlLinkBudget()
        assert path_bandwidth_curve("cxl_local")(wf) <= budget.data_bandwidth(wf) * 1.001


class TestMlcProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
    def test_achieved_never_exceeds_offered(self, r_extra, w_extra):
        reads, writes = 1 + r_extra, w_extra
        probe = MlcProbe(PLATFORM)
        curve = probe.loaded_latency_curve(DRAM_PATH, reads, writes)
        for p in curve.points:
            assert p.achieved_bytes_per_s <= p.offered_bytes_per_s * (1 + 1e-9)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(["mmem_local", "cxl_local"]))
    def test_latency_non_decreasing_along_sweep(self, kind):
        path = DRAM_PATH if kind == "mmem_local" else CXL_PATH
        probe = MlcProbe(PLATFORM)
        curve = probe.loaded_latency_curve(path, 1, 0)
        latencies = [p.latency_ns for p in curve.points]
        assert latencies == sorted(latencies)


class TestPlacementProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=1.4),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_optimum_never_worse_than_endpoints(self, level, wf):
        placer = BandwidthAwarePlacer(DRAM_PATH, CXL_PATH, resolution=50)
        demand = level * DRAM_PATH.peak_bandwidth(wf)
        report = placer.optimal_split(demand, wf)
        assert report.best.average_latency_ns <= report.curve[0].average_latency_ns + 1e-9
        assert report.best.average_latency_ns <= report.curve[-1].average_latency_ns + 1e-9


class TestCostModelProperties:
    @settings(max_examples=50)
    @given(
        st.floats(min_value=1.5, max_value=100.0),
        st.floats(min_value=0.1, max_value=1.0),
        st.floats(min_value=0.2, max_value=10.0),
        st.floats(min_value=0.5, max_value=3.0),
    )
    def test_time_identity_at_server_ratio(self, r_d, rc_frac, c, r_t):
        """For ANY valid parameters, T_baseline == T_cxl at the ratio."""
        r_c = max(1.01, r_d * rc_frac)
        try:
            model = AbstractCostModel(r_d=r_d, r_c=r_c, c=c, r_t=r_t)
            ratio = model.server_ratio()
        except CostModelError:
            return  # degenerate region is allowed to refuse
        n_base, d = 50.0, 1.0
        w = n_base * d * (1 + 1 / c) * 5  # both clusters spill
        t_base = model.t_baseline(n_base, w, d)
        t_cxl = model.t_cxl(n_base * ratio, w, d)
        assert t_base == pytest.approx(t_cxl, rel=1e-9)


class TestPolicyProperties:
    @settings(max_examples=30)
    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=20, max_value=400),
    )
    def test_weighted_interleave_never_overfills(self, n, m, pages):
        """Even with one node capped, placement respects capacity."""
        policy = WeightedInterleavePolicy.from_ratio([0], [1], n, m)
        cap0 = pages // 3 * PAGE_SIZE
        free = {0: cap0, 1: pages * PAGE_SIZE * 2}
        placed0 = 0
        for _ in range(pages):
            node = policy.place(dict(free), PAGE_SIZE)
            free[node] -= PAGE_SIZE
            assert free[node] >= 0
            if node == 0:
                placed0 += 1
        assert placed0 <= cap0 // PAGE_SIZE


class TestAllocatorProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.5, max_value=80.0), min_size=1, max_size=6),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
    )
    def test_platform_allocation_bounded_by_capacity(self, rates, wfs):
        n = min(len(rates), len(wfs))
        demands = [
            PLATFORM.demand(f"f{i}", DRAM_PATH, rates[i] * 1e9, wfs[i])
            for i in range(n)
        ]
        result = PLATFORM.allocate(demands)
        total = sum(result.achieved.values())
        # Aggregate never exceeds the mix-appropriate capacity envelope.
        cap_max = DRAM_PATH.peak_bandwidth(0.0)
        assert total <= cap_max * (1 + 1e-6)
        for i in range(n):
            assert result.achieved[f"f{i}"] <= rates[i] * 1e9 * (1 + 1e-9)

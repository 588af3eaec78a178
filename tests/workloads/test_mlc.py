"""Tests for the MLC-style loaded-latency probe — these are the Fig. 3/4
shape checks."""

import numpy as np
import pytest

from repro.errors import SimulationError, WorkloadError
from repro.hw import paper_cxl_platform
from repro.workloads import MlcProbe, load_fractions


@pytest.fixture(scope="module")
def platform():
    return paper_cxl_platform(snc_enabled=True)


@pytest.fixture(scope="module")
def probe(platform):
    return MlcProbe(platform)


def dram_path(platform):
    node = platform.dram_nodes(0)[0]
    return platform.path(0, node.node_id, initiator_domain=0)


def cxl_path(platform, socket=0):
    node = platform.cxl_nodes()[0]
    return platform.path(socket, node.node_id)


def remote_dram_path(platform):
    node = platform.dram_nodes(1)[0]
    return platform.path(0, node.node_id)


class TestValidation:
    def test_pattern(self, platform):
        with pytest.raises(WorkloadError):
            MlcProbe(platform, pattern="strided")

    def test_mix(self, probe, platform):
        with pytest.raises(WorkloadError):
            probe.loaded_latency_curve(dram_path(platform), 0, 0)

    def test_load_fractions(self, probe, platform, monkeypatch):
        """A ramp with a fraction that is not finite and positive, or no
        fraction at all, is rejected before any allocation runs."""
        def allocate(demands):
            raise AssertionError("allocated before rejecting the ramp")

        monkeypatch.setattr(platform, "allocate", allocate)
        for load_points in ([0.0], [-0.1], [float("nan")], [float("inf")],
                            [0.5, float("nan")], []):
            with pytest.raises(WorkloadError):
                probe.loaded_latency_curve(
                    cxl_path(platform), 1, 0, load_points=load_points
                )


#: The parent-pinned stock ramps: fig3/fig4 carry them as point params,
#: so any drift re-keys every cached point.
QUICK_RAMP = [
    0.02, 0.1814285714285714, 0.34285714285714286, 0.5042857142857142,
    0.6657142857142857, 0.8271428571428572, 0.9885714285714285, 1.15,
]
FULL_RAMP = [
    0.02, 0.06913043478260869, 0.11826086956521739, 0.16739130434782606,
    0.21652173913043476, 0.26565217391304347, 0.31478260869565217,
    0.36391304347826087, 0.41304347826086957, 0.46217391304347827,
    0.5113043478260869, 0.5604347826086956, 0.6095652173913043,
    0.658695652173913, 0.7078260869565217, 0.7569565217391304,
    0.8060869565217391, 0.8552173913043478, 0.9043478260869565,
    0.9534782608695652, 1.0026086956521738, 1.0517391304347825,
    1.1008695652173912, 1.15,
]


class TestLoadRamp:
    @pytest.mark.parametrize("points", [8, 24])
    def test_stock_ramps_are_mlc_linspace(self, points):
        ramp = load_fractions(points)
        assert ramp == np.linspace(0.02, 1.15, points).tolist()
        assert all(type(f) is float for f in ramp)

    def test_needs_two_points(self):
        with pytest.raises(WorkloadError):
            load_fractions(1)

    @pytest.mark.parametrize("target", ["fig3", "fig4"])
    @pytest.mark.parametrize("quick, ramp", [(True, QUICK_RAMP), (False, FULL_RAMP)],
                             ids=["quick", "full"])
    def test_stock_sweep_ramps_are_pinned(self, target, quick, ramp):
        from repro.cli import stock_sweep_spec

        spec = stock_sweep_spec(target, quick=quick, backend="des")
        assert [p.params["fractions"] for p in spec.points] == [ramp] * len(spec.points)


class TestFig3aMmem:
    def test_read_only_idle_and_peak(self, probe, platform):
        """Fig. 3(a): ~97 ns idle, ~67 GB/s read peak."""
        curve = probe.loaded_latency_curve(dram_path(platform), 1, 0)
        assert curve.idle_latency_ns == pytest.approx(97.0, abs=5.0)
        assert curve.peak_bandwidth_gbps == pytest.approx(67.0, rel=0.02)

    def test_write_only_peak_54_6(self, probe, platform):
        curve = probe.loaded_latency_curve(dram_path(platform), 0, 1)
        assert curve.peak_bandwidth_gbps == pytest.approx(54.6, rel=0.02)

    def test_latency_spikes_near_saturation(self, probe, platform):
        curve = probe.loaded_latency_curve(dram_path(platform), 1, 0)
        assert curve.points[-1].latency_ns > 3 * curve.idle_latency_ns

    def test_knee_in_75_83_percent_band(self, probe, platform):
        """'Latency starts to significantly increase at 75-83 % of
        bandwidth utilization' (§3.2)."""
        curve = probe.loaded_latency_curve(
            dram_path(platform), 1, 0,
            load_points=[i / 100 for i in range(2, 116, 1)],
        )
        assert 0.70 <= curve.knee_bandwidth_fraction(50.0) <= 0.86


class TestFig3cCxl:
    def test_idle_250ns(self, probe, platform):
        curve = probe.loaded_latency_curve(cxl_path(platform), 1, 0)
        assert curve.idle_latency_ns == pytest.approx(250.42, abs=10)

    def test_peak_at_2_1_mix(self, probe, platform):
        curves = {
            (r, w): probe.loaded_latency_curve(cxl_path(platform), r, w)
            for (r, w) in ((1, 0), (2, 1), (0, 1))
        }
        peak_21 = curves[(2, 1)].peak_bandwidth_gbps
        assert peak_21 == pytest.approx(56.7, rel=0.02)
        assert curves[(1, 0)].peak_bandwidth_gbps < peak_21
        assert curves[(0, 1)].peak_bandwidth_gbps < peak_21

    def test_latency_relatively_stable_before_saturation(self, probe, platform):
        """§3.2: CXL latency 'remains relatively stable as bandwidth
        increases' — below 80 % of peak it must stay within 25 % of idle."""
        curve = probe.loaded_latency_curve(
            cxl_path(platform), 2, 1, load_points=[0.1, 0.4, 0.6, 0.8]
        )
        for p in curve.points[:-1]:
            assert p.latency_ns < curve.idle_latency_ns * 1.25


class TestFig3dRemoteCxl:
    def test_idle_485ns(self, probe, platform):
        curve = probe.loaded_latency_curve(cxl_path(platform, socket=1), 1, 0)
        assert curve.idle_latency_ns == pytest.approx(485.0, abs=15)

    def test_bandwidth_halved(self, probe, platform):
        remote = probe.loaded_latency_curve(cxl_path(platform, socket=1), 2, 1)
        local = probe.loaded_latency_curve(cxl_path(platform, socket=0), 2, 1)
        assert remote.peak_bandwidth_gbps == pytest.approx(20.4, rel=0.03)
        assert remote.peak_bandwidth_gbps < local.peak_bandwidth_gbps / 2.5


class TestFig3bRemoteDram:
    def test_write_only_low_idle_latency(self, probe, platform):
        """Non-temporal writes: 71.77 ns idle on the remote socket."""
        curve = probe.loaded_latency_curve(remote_dram_path(platform), 0, 1)
        assert curve.idle_latency_ns == pytest.approx(71.77, abs=5)

    def test_write_only_lowest_bandwidth(self, probe, platform):
        ro = probe.loaded_latency_curve(remote_dram_path(platform), 1, 0)
        wo = probe.loaded_latency_curve(remote_dram_path(platform), 0, 1)
        assert wo.peak_bandwidth_gbps < ro.peak_bandwidth_gbps / 2

    def test_overload_droop_for_write_heavy_remote(self, probe, platform):
        """Fig. 3(b)'s past-saturation anomaly: offered load beyond peak
        *reduces* achieved bandwidth on write-heavy remote flows."""
        curve = probe.loaded_latency_curve(
            remote_dram_path(platform), 0, 1, load_points=[0.9, 1.0, 1.15]
        )
        assert curve.points[-1].achieved_gbps < curve.points[1].achieved_gbps

    def test_no_droop_for_local(self, probe, platform):
        curve = probe.loaded_latency_curve(
            dram_path(platform), 0, 1, load_points=[0.9, 1.0, 1.15]
        )
        assert curve.points[-1].achieved_gbps >= curve.points[1].achieved_gbps * 0.999


class TestFig4Comparisons:
    def test_latency_ratio_bands(self, probe, platform):
        """§3.3: local CXL latency is 2.4-2.6x local DDR and 1.5-1.92x
        remote DDR for read-dominated workloads."""
        cxl = probe.loaded_latency_curve(cxl_path(platform), 1, 0).idle_latency_ns
        dram = probe.loaded_latency_curve(dram_path(platform), 1, 0).idle_latency_ns
        rdram = probe.loaded_latency_curve(remote_dram_path(platform), 1, 0).idle_latency_ns
        assert 2.4 <= cxl / dram <= 2.6
        assert 1.5 <= cxl / rdram <= 1.95

    def test_knee_shifts_left_with_write_share(self, probe, platform):
        """§3.3: 'the latency-bandwidth knee-point shifts to the left as
        the proportion of write operations increases' — in absolute GB/s."""
        points = [i / 100 for i in range(2, 116)]
        ro = probe.loaded_latency_curve(dram_path(platform), 1, 0, load_points=points)
        wo = probe.loaded_latency_curve(dram_path(platform), 0, 1, load_points=points)
        knee_bw_ro = ro.knee_bandwidth_fraction() * ro.peak_bandwidth_gbps
        knee_bw_wo = wo.knee_bandwidth_fraction() * wo.peak_bandwidth_gbps
        assert knee_bw_wo < knee_bw_ro

    def test_random_pattern_no_disparity(self, platform):
        """§3.3: random vs sequential shows no significant difference."""
        seq = MlcProbe(platform, pattern="sequential")
        rnd = MlcProbe(platform, pattern="random")
        path = dram_path(platform)
        c_seq = seq.loaded_latency_curve(path, 1, 0)
        c_rnd = rnd.loaded_latency_curve(path, 1, 0)
        assert c_seq.peak_bandwidth_gbps == pytest.approx(c_rnd.peak_bandwidth_gbps)
        assert c_seq.idle_latency_ns == pytest.approx(c_rnd.idle_latency_ns)

    def test_sweep_mixes_returns_all_panels(self, probe, platform):
        curves = probe.sweep_mixes(dram_path(platform))
        assert len(curves) == 6
        write_fracs = [c.write_fraction for c in curves]
        assert write_fracs == sorted(write_fracs)


class TestBackgroundContention:
    def test_background_flow_raises_probe_latency(self, probe, platform):
        """A steady interfering flow pushes the probe's knee earlier."""
        from repro.units import gb_per_s

        path = dram_path(platform)
        quiet = probe.loaded_latency_curve(path, 1, 0, load_points=[0.5])
        noisy = probe.loaded_latency_curve(
            path, 1, 0, load_points=[0.5],
            background=[(path, gb_per_s(30.0), 0.0)],
        )
        assert noisy.points[0].latency_ns > quiet.points[0].latency_ns

    def test_nan_background_rate_rejected(self, probe, platform):
        """A NaN flow is an error, not a flow that is silently absent."""
        path = cxl_path(platform)
        with pytest.raises(SimulationError):
            probe.loaded_latency_curve(
                path, 2, 1, load_points=[0.5],
                background=[(path, float("nan"), 0.0)],
            )


class TestMatrixModes:
    def test_latency_matrix_anchors(self, platform):
        probe = MlcProbe(platform)
        matrix = probe.latency_matrix()
        dram0 = platform.dram_nodes(0)[0].node_id
        dram1 = platform.dram_nodes(1)[0].node_id
        cxl0 = platform.cxl_nodes()[0].node_id
        assert matrix[(0, dram0)] == pytest.approx(97.0)
        assert matrix[(0, dram1)] == pytest.approx(130.0)
        assert matrix[(0, cxl0)] == pytest.approx(250.42)
        assert matrix[(1, cxl0)] == pytest.approx(485.0)
        # Full coverage: sockets x nodes entries.
        assert len(matrix) == platform.spec.sockets * len(platform.nodes)

    def test_bandwidth_matrix_anchors(self, platform):
        probe = MlcProbe(platform)
        matrix = probe.bandwidth_matrix()
        cxl0 = platform.cxl_nodes()[0].node_id
        assert matrix[(0, cxl0)] / 1e9 == pytest.approx(50.0, rel=0.02)
        assert matrix[(1, cxl0)] / 1e9 == pytest.approx(18.0, rel=0.05)

    def test_bandwidth_matrix_mix_validation(self, platform):
        with pytest.raises(WorkloadError):
            MlcProbe(platform).bandwidth_matrix(0, 0)

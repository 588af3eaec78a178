"""Fig. 3: loaded-latency curves for MMEM / MMEM-r / CXL / CXL-r.

Regenerates the four panels of Fig. 3 with the calibrated MLC probe
(SNC-4 enabled) and checks the §3.2 anchors: idle latencies
(97 / 130 / 250.42 / 485 ns), peak bandwidths (67 / 54.6 / 56.7 /
20.4 GB/s) and the latency blow-up near saturation.

The figure is built as ``repro sweep fig3`` builds it: the stock spec,
``run_sweep``, ``fig3_from_sweep``.  Its independent cells fan out across
processes when $REPRO_WORKERS is set (parallel results are bit-identical
to serial; see docs/architecture.md).
"""

import pytest

from repro.analysis import ascii_table
from repro.analysis.figures import fig3_from_sweep, fig3_sweep_spec
from repro.cli import stock_sweep_spec
from repro.parallel import run_sweep


@pytest.fixture(scope="module")
def panels():
    spec = stock_sweep_spec("fig3")
    return fig3_from_sweep(spec, run_sweep(spec).raise_failures())


def _render(panel_curves):
    rows = []
    for mix, curve in panel_curves.items():
        for p in curve.points:
            rows.append((mix, f"{p.achieved_gbps:.2f}", f"{p.latency_ns:.1f}"))
    return ascii_table(["read:write", "bandwidth GB/s", "latency ns"], rows)


def test_fig3a_mmem(benchmark, panels, report):
    spec = fig3_sweep_spec(panels=("mmem",), load_points=24)
    curves = benchmark.pedantic(
        lambda: fig3_from_sweep(spec, run_sweep(spec).raise_failures())["mmem"],
        rounds=1,
    )
    report("fig3a_mmem", _render(curves))
    assert curves["1:0"].idle_latency_ns == pytest.approx(97.0, abs=5)
    assert curves["1:0"].peak_bandwidth_gbps == pytest.approx(67.0, rel=0.02)
    assert curves["0:1"].peak_bandwidth_gbps == pytest.approx(54.6, rel=0.02)
    # Knee in the 75-83 % band (§3.2).
    assert 0.70 <= curves["1:0"].knee_bandwidth_fraction() <= 0.86


def test_fig3b_mmem_remote(benchmark, panels, report):
    spec = fig3_sweep_spec(panels=("mmem-r",), load_points=24)
    curves = benchmark.pedantic(
        lambda: fig3_from_sweep(spec, run_sweep(spec).raise_failures())["mmem-r"],
        rounds=1,
    )
    report("fig3b_mmem_remote", _render(curves))
    assert curves["1:0"].idle_latency_ns == pytest.approx(130.0, abs=5)
    assert curves["0:1"].idle_latency_ns == pytest.approx(71.77, abs=5)
    # Write-only is the worst mix: one UPI direction idle (§3.2).
    assert curves["0:1"].peak_bandwidth_gbps < curves["1:1"].peak_bandwidth_gbps
    assert curves["1:1"].peak_bandwidth_gbps < curves["1:0"].peak_bandwidth_gbps


def test_fig3c_cxl(benchmark, panels, report):
    spec = fig3_sweep_spec(panels=("cxl",), load_points=24)
    curves = benchmark.pedantic(
        lambda: fig3_from_sweep(spec, run_sweep(spec).raise_failures())["cxl"],
        rounds=1,
    )
    report("fig3c_cxl", _render(curves))
    assert curves["1:0"].idle_latency_ns == pytest.approx(250.42, abs=10)
    assert curves["2:1"].peak_bandwidth_gbps == pytest.approx(56.7, rel=0.02)
    # Read-only tops out below the 2:1 peak (PCIe bi-directionality).
    assert curves["1:0"].peak_bandwidth_gbps < curves["2:1"].peak_bandwidth_gbps


def test_fig3d_cxl_remote(benchmark, panels, report):
    spec = fig3_sweep_spec(panels=("cxl-r",), load_points=24)
    curves = benchmark.pedantic(
        lambda: fig3_from_sweep(spec, run_sweep(spec).raise_failures())["cxl-r"],
        rounds=1,
    )
    report("fig3d_cxl_remote", _render(curves))
    assert curves["1:0"].idle_latency_ns == pytest.approx(485.0, abs=15)
    assert curves["2:1"].peak_bandwidth_gbps == pytest.approx(20.4, rel=0.03)

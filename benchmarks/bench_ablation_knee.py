"""Ablation: where the latency knee sits, and what moves it (§3.2/§3.3).

The paper's microbenchmark insight in isolation: the knee lands at
75-83 % utilization for local DDR5 (not the 60 % of earlier studies),
arrives earlier on remote paths, and shifts left in absolute bandwidth
as the write share grows.  Also probes the RSF what-if: how much
remote-CXL bandwidth the next CPU generation would recover.
"""

import pytest

from repro.analysis import ascii_table
from repro.hw import paper_cxl_platform
from repro.hw.calibration import path_latency_model
from repro.workloads import MlcProbe


@pytest.fixture(scope="module")
def platform():
    return paper_cxl_platform(snc_enabled=True)


def test_ablation_knee_position_per_path(benchmark, report):
    def run():
        rows = []
        for kind in ("mmem_local", "mmem_remote", "cxl_local", "cxl_remote"):
            knee = path_latency_model(kind).queueing.knee_utilization(50.0)
            rows.append((kind, f"{knee * 100:.1f}%"))
        return rows

    rows = benchmark(run)
    report("ablation_knee_positions", ascii_table(["path", "knee utilization"], rows))
    by_kind = dict(rows)
    local = float(by_kind["mmem_local"].rstrip("%"))
    remote = float(by_kind["mmem_remote"].rstrip("%"))
    assert 75.0 <= local <= 83.0  # §3.2, vs 60 % in prior studies
    assert remote < local  # §3.2: earlier escalation off-socket


def test_ablation_knee_vs_write_share(benchmark, platform, report):
    benchmark.pedantic(lambda: None, rounds=1)  # artifact test; timing in sibling bench
    probe = MlcProbe(platform)
    node = platform.dram_nodes(0)[0]
    path = platform.path(0, node.node_id, initiator_domain=node.domain)
    points = [i / 100 for i in range(2, 116)]
    rows = []
    knees = []
    for reads, writes in ((1, 0), (3, 1), (1, 1), (1, 3), (0, 1)):
        curve = probe.loaded_latency_curve(path, reads, writes, load_points=points)
        knee_gbps = curve.knee_bandwidth_fraction() * curve.peak_bandwidth_gbps
        knees.append(knee_gbps)
        rows.append((f"{reads}:{writes}", f"{knee_gbps:.1f}"))
    report("ablation_knee_vs_writes", ascii_table(["mix", "knee GB/s"], rows))
    assert knees == sorted(knees, reverse=True)


def test_ablation_rsf_what_if(benchmark, platform, report):
    benchmark.pedantic(lambda: None, rounds=1)  # artifact test; timing in sibling bench
    """§3.4: with proper CXL 1.1 support, cross-socket CXL bandwidth
    'could approximate the bandwidth seen when accessing MMEM across
    sockets' — drop the RSF resource and measure the headroom."""
    cxl = platform.cxl_nodes()[0]
    path = platform.path(1, cxl.node_id)
    rsf = next(r for r in path.resources if "rsf" in r)

    demand = platform.demand("flow", path, float("inf"), write_fraction=1 / 3)
    with_rsf = platform.allocate([demand]).achieved["flow"]

    # What-if: next-gen CPU fixes the RSF — widen it to the UPI level.
    fixed = platform.resources[rsf].curve.scaled(3.0)
    original = platform.resources[rsf]
    platform.resources[rsf] = type(original)(name=rsf, curve=fixed)
    try:
        without_rsf = platform.allocate([demand]).achieved["flow"]
    finally:
        platform.resources[rsf] = original

    report(
        "ablation_rsf_what_if",
        f"remote CXL with RSF: {with_rsf / 1e9:.1f} GB/s; "
        f"with RSF fixed: {without_rsf / 1e9:.1f} GB/s "
        f"(+{(without_rsf / with_rsf - 1) * 100:.0f}%)",
    )
    assert without_rsf > with_rsf * 2.0

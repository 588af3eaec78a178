#!/usr/bin/env python3
"""Quickstart: the paper's testbed and headline numbers in 60 seconds.

Builds the EuroSys '24 experimental platform (dual SPR + two AsteraLabs
A1000 CXL cards), reads the §3 latency/bandwidth surface off it, runs a
small KeyDB/YCSB experiment, and evaluates the §6 Abstract Cost Model's
worked example.

Run:  python examples/quickstart.py
"""

from repro import paper_cxl_platform
from repro.analysis import ascii_table, describe_platform
from repro.apps.kvstore import run_keydb_config
from repro.core import AbstractCostModel
from repro.workloads import MlcProbe


def main() -> None:
    # --- 1. the platform (§2.4) -----------------------------------------
    platform = paper_cxl_platform(snc_enabled=True)
    print(describe_platform(platform))

    # --- 2. the §3 memory surface -----------------------------------------
    dram = platform.dram_nodes(0)[0]
    cxl = platform.cxl_nodes()[0]
    paths = {
        "MMEM": platform.path(0, dram.node_id, initiator_domain=dram.domain),
        "MMEM-r": platform.path(1, dram.node_id),
        "CXL": platform.path(0, cxl.node_id),
        "CXL-r": platform.path(1, cxl.node_id),
    }
    rows = []
    probe = MlcProbe(platform)
    for name, path in paths.items():
        curve = probe.loaded_latency_curve(path, 2, 1)
        rows.append(
            (
                name,
                f"{path.idle_latency_ns():.1f} ns",
                f"{curve.peak_bandwidth_gbps:.1f} GB/s",
            )
        )
    print()
    print(ascii_table(["path", "idle latency", "peak bandwidth (2:1)"], rows,
                      title="Fig. 3 anchors:"))

    # --- 3. a capacity experiment cell (§4.1) ------------------------------
    print("\nKeyDB YCSB-A, 1:1 MMEM:CXL interleave vs MMEM-only:")
    mmem = run_keydb_config("mmem", record_count=16_384, total_ops=20_000)
    interleave = run_keydb_config("1:1", record_count=16_384, total_ops=20_000)
    slowdown = mmem.throughput_ops_per_s / interleave.throughput_ops_per_s
    print(
        f"  mmem {mmem.throughput_ops_per_s / 1e3:.0f} kops/s, "
        f"1:1 {interleave.throughput_ops_per_s / 1e3:.0f} kops/s "
        f"-> {slowdown:.2f}x slowdown (paper: 1.2-1.5x)"
    )

    # --- 4. the Abstract Cost Model (§6) -------------------------------------
    model = AbstractCostModel.paper_example()
    estimate = model.estimate()
    print(
        f"\nAbstract Cost Model (R_d=10, R_c=8, C=2, R_t=1.1):\n"
        f"  servers needed: {estimate.server_ratio * 100:.2f}% of baseline "
        f"(paper: 67.29%)\n"
        f"  TCO saving:     {estimate.tco_saving * 100:.2f}% (paper: 25.98%)"
    )


if __name__ == "__main__":
    main()

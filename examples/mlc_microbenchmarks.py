#!/usr/bin/env python3
"""The §3 microbenchmarks interactively: loaded-latency curves on demand.

Reproduces what the authors did with Intel MLC — sweep the offered load
on each memory path at each read:write mix and watch the knee — as
terminal plots, plus the two §3.4 exercises: the knee's shift with the
write share, and the contention experiment behind "consider CXL even
when MMEM has headroom".

Run:  python examples/mlc_microbenchmarks.py
"""

from repro import paper_cxl_platform
from repro.analysis import ascii_series, ascii_table
from repro.units import gb_per_s
from repro.workloads import MlcProbe


def main() -> None:
    platform = paper_cxl_platform(snc_enabled=True)
    probe = MlcProbe(platform)
    dram = platform.dram_nodes(0)[0]
    cxl = platform.cxl_nodes()[0]
    dram_path = platform.path(0, dram.node_id, initiator_domain=dram.domain)
    cxl_path = platform.path(0, cxl.node_id)

    # --- Fig. 3(a)/(c): loaded latency, read-only --------------------------
    for name, path in (("MMEM", dram_path), ("CXL", cxl_path)):
        curve = probe.loaded_latency_curve(path, 1, 0)
        print(
            ascii_series(
                [(p.achieved_gbps, p.latency_ns) for p in curve.points],
                x_label="GB/s",
                y_label="latency ns",
                title=f"\n{name}, read-only (idle {curve.idle_latency_ns:.0f} ns, "
                f"peak {curve.peak_bandwidth_gbps:.1f} GB/s):",
            )
        )

    # --- the knee vs write share (§3.3) -------------------------------------
    rows = []
    for reads, writes in ((1, 0), (2, 1), (1, 1), (1, 2), (0, 1)):
        curve = probe.loaded_latency_curve(dram_path, reads, writes)
        knee = curve.knee_bandwidth_fraction() * curve.peak_bandwidth_gbps
        rows.append((f"{reads}:{writes}", f"{curve.peak_bandwidth_gbps:.1f}",
                     f"{knee:.1f}"))
    print()
    print(
        ascii_table(
            ["read:write", "peak GB/s", "knee GB/s"],
            rows,
            title="MMEM knee shifts left as writes grow (§3.3):",
        )
    )

    # --- contention: the §3.4 insight, measured -----------------------------
    print("\nProbe latency with a 45 GB/s background flow on the same DRAM node:")
    quiet = probe.loaded_latency_curve(dram_path, 1, 0, load_points=[0.2])
    noisy = probe.loaded_latency_curve(
        dram_path, 1, 0, load_points=[0.2],
        background=[(dram_path, gb_per_s(45.0), 0.0)],
    )
    offloaded = probe.loaded_latency_curve(
        dram_path, 1, 0, load_points=[0.2],
        background=[(dram_path, gb_per_s(31.0), 0.0), (cxl_path, gb_per_s(14.0), 0.0)],
    )
    print(f"  no background:                  {quiet.points[0].latency_ns:6.1f} ns")
    print(f"  background all on MMEM:         {noisy.points[0].latency_ns:6.1f} ns")
    print(f"  background 31 GB/s MMEM + 14 GB/s CXL: {offloaded.points[0].latency_ns:6.1f} ns")
    print(
        "  -> moving ~30% of the background to CXL lowers the probe's DRAM\n"
        "     latency even though MMEM had headroom — §3.4's load-balancing case."
    )


if __name__ == "__main__":
    main()

"""Self-check: verify the calibrated model against every quick anchor.

``validate_anchors()`` runs the fast subset of the paper's §3 anchors
(idle latencies, peak bandwidths, latency ratios, knee positions, the
cost-model example and the protocol bounds) and reports each as a
structured check.  ``repro validate`` exposes it on the CLI — the first
thing to run after touching the calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from ..core.cost_model import AbstractCostModel
from ..hw.calibration import ANCHORS, path_bandwidth_curve, path_latency_model
from ..hw.protocol import CxlLinkBudget
from ..units import to_gb_per_s

__all__ = ["AnchorCheck", "validate_anchors"]


@dataclass(frozen=True)
class AnchorCheck:
    """One verified anchor."""

    name: str
    expected: str
    measured: str
    ok: bool


def _check(
    name: str,
    measured: float,
    lo: float,
    hi: float,
    fmt: Callable[[float], str] = lambda v: f"{v:.2f}",
) -> AnchorCheck:
    return AnchorCheck(
        name=name,
        expected=f"[{fmt(lo)}, {fmt(hi)}]",
        measured=fmt(measured),
        ok=lo <= measured <= hi,
    )


def validate_anchors() -> List[AnchorCheck]:
    """Run every fast anchor check; returns the full list."""
    checks: List[AnchorCheck] = []

    def ns(v: float) -> str:
        return f"{v:.2f} ns"

    def gbps(v: float) -> str:
        return f"{v:.2f} GB/s"

    def pct(v: float) -> str:
        return f"{v * 100:.2f}%"

    # Idle latencies (§3.2).
    for kind, expected in (
        ("mmem_local", ANCHORS.mmem_idle_read_ns),
        ("mmem_remote", ANCHORS.mmem_remote_read_ns),
        ("cxl_local", ANCHORS.cxl_idle_read_ns),
        ("cxl_remote", ANCHORS.cxl_remote_idle_read_ns),
    ):
        measured = path_latency_model(kind).idle_ns(0.0)
        checks.append(
            _check(f"idle latency {kind}", measured, expected - 0.01, expected + 0.01, ns)
        )

    # Peak bandwidths (§3.2).
    checks.append(
        _check(
            "mmem peak read",
            to_gb_per_s(path_bandwidth_curve("mmem_local")(0.0)),
            ANCHORS.mmem_read_peak_gbps - 0.1,
            ANCHORS.mmem_read_peak_gbps + 0.1,
            gbps,
        )
    )
    checks.append(
        _check(
            "cxl peak at 2:1",
            to_gb_per_s(path_bandwidth_curve("cxl_local")(1 / 3)),
            ANCHORS.cxl_peak_gbps - 0.1,
            ANCHORS.cxl_peak_gbps + 0.1,
            gbps,
        )
    )
    checks.append(
        _check(
            "cxl remote peak at 2:1",
            to_gb_per_s(path_bandwidth_curve("cxl_remote")(1 / 3)),
            ANCHORS.cxl_remote_peak_gbps - 0.2,
            ANCHORS.cxl_remote_peak_gbps + 0.2,
            gbps,
        )
    )

    # Latency ratios (§3.3).
    ratio_local = path_latency_model("cxl_local").idle_ns(0.0) / path_latency_model(
        "mmem_local"
    ).idle_ns(0.0)
    lo, hi = ANCHORS.cxl_vs_mmem_latency_ratio
    checks.append(_check("cxl/mmem latency ratio", ratio_local, lo, hi))

    # Knee band (§3.2).
    knee = path_latency_model("mmem_local").queueing.knee_utilization(50.0)
    lo, hi = ANCHORS.mmem_knee_utilization
    checks.append(_check("mmem latency knee", knee, lo, hi, pct))

    # Protocol consistency: curves within the flit budget.
    budget = CxlLinkBudget()
    for wf in (0.0, 1 / 3, 1.0):
        measured = path_bandwidth_curve("cxl_local")(wf)
        bound = budget.data_bandwidth(wf)
        checks.append(
            AnchorCheck(
                name=f"cxl curve within link budget (wf={wf:.2f})",
                expected=f"<= {to_gb_per_s(bound):.1f} GB/s",
                measured=f"{to_gb_per_s(measured):.1f} GB/s",
                ok=measured <= bound * 1.001,
            )
        )

    # The §6 worked example, exact.
    model = AbstractCostModel.paper_example()
    checks.append(
        _check("cost model server ratio", model.server_ratio(), 0.6727, 0.6731, pct)
    )
    checks.append(
        _check("cost model TCO saving", model.tco_saving(), 0.2596, 0.2600, pct)
    )
    return checks

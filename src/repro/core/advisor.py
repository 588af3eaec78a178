"""Configuration advisor: the paper's recommendations as executable checks.

Turns the §3.4, §4.2.3, §4.3.3 and §5.3 guidance into a reviewable list
of :class:`Advice` items for a concrete workload on a concrete
platform:

* avoid cross-socket CXL accesses (the RSF cliff, §3.4);
* treat CXL as a bandwidth-balancing resource, with a suggested N:M
  ratio from the placement optimizer (§3.4, §5.3);
* warn when hot-page promotion is likely to thrash (low-locality
  workloads, §4.2.2/§4.2.3);
* flag bandwidth-oblivious promotion: migrating data *into* a
  nearly-saturated MMEM tier slows the workload down (§5.3);
* size CXL capacity for stranded vCPUs (§4.3).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List

from ..errors import ConfigurationError
from ..hw.topology import Platform
from .placement import BandwidthAwarePlacer

__all__ = ["Severity", "Advice", "WorkloadProfile", "ConfigAdvisor"]


class Severity(enum.Enum):
    """How strongly an advice item should be acted on."""

    INFO = "info"
    RECOMMEND = "recommend"
    WARNING = "warning"


@dataclass(frozen=True)
class Advice:
    """One finding: a stable code, a severity, and prose."""

    code: str
    severity: Severity
    message: str


@dataclass(frozen=True)
class WorkloadProfile:
    """What the advisor needs to know about a workload."""

    #: Peak memory bandwidth demand (bytes/s) on one socket.
    demand_bytes_per_s: float
    #: Write share of the traffic.
    write_fraction: float = 0.0
    #: Working-set size in bytes.
    working_set_bytes: int = 0
    #: Access locality in [0, 1]: ~1 for Zipfian KV traffic, ~0 for
    #: shuffle/scan workloads.  Drives the tiering-thrash warning.
    locality: float = 1.0
    #: Whether threads may run on a socket without local CXL devices.
    spans_sockets: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.demand_bytes_per_s)
                and math.isfinite(self.working_set_bytes)):
            raise ConfigurationError("demand and working set must be finite")
        if self.demand_bytes_per_s < 0 or self.working_set_bytes < 0:
            raise ConfigurationError("demand and working set must be >= 0")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigurationError("write_fraction must be in [0, 1]")
        if not 0.0 <= self.locality <= 1.0:
            raise ConfigurationError("locality must be in [0, 1]")


class ConfigAdvisor:
    """Produces advice for a workload on a CXL-equipped platform."""

    def __init__(self, platform: Platform, socket: int = 0) -> None:
        if not platform.cxl_nodes():
            raise ConfigurationError("advisor requires a CXL-equipped platform")
        self.platform = platform
        self.socket = socket
        dram = platform.dram_nodes(socket)[0]
        cxl = platform.cxl_nodes()[0]
        self._dram_path = platform.path(socket, dram.node_id, initiator_domain=dram.domain)
        self._cxl_local = platform.path(cxl.socket, cxl.node_id)
        remote_socket = (cxl.socket + 1) % platform.spec.sockets
        self._cxl_remote = (
            platform.path(remote_socket, cxl.node_id)
            if platform.spec.sockets > 1
            else None
        )

    def advise(self, workload: WorkloadProfile) -> List[Advice]:
        """All applicable advice, strongest severity first."""
        advice: List[Advice] = []
        advice.extend(self._check_remote_cxl(workload))
        advice.extend(self._check_interleave(workload))
        advice.extend(self._check_tiering(workload))
        advice.extend(self._check_capacity(workload))
        order = {Severity.WARNING: 0, Severity.RECOMMEND: 1, Severity.INFO: 2}
        advice.sort(key=lambda a: order[a.severity])
        return advice

    # -- individual checks --------------------------------------------------

    def _check_remote_cxl(self, workload: WorkloadProfile) -> List[Advice]:
        if not workload.spans_sockets or self._cxl_remote is None:
            return []
        local = self._cxl_local.peak_bandwidth(workload.write_fraction)
        remote = self._cxl_remote.peak_bandwidth(workload.write_fraction)
        return [
            Advice(
                code="remote-cxl-access",
                severity=Severity.WARNING,
                message=(
                    "threads on the remote socket reach the CXL device at "
                    f"{remote / 1e9:.1f} GB/s vs {local / 1e9:.1f} GB/s locally "
                    "(Remote Snoop Filter limitation); pin CXL consumers to "
                    f"socket {self._cxl_local.initiator_socket} (§3.4)"
                ),
            )
        ]

    def _check_interleave(self, workload: WorkloadProfile) -> List[Advice]:
        if workload.demand_bytes_per_s <= 0:
            return []
        placer = BandwidthAwarePlacer(self._dram_path, self._cxl_local)
        report = placer.optimal_split(
            workload.demand_bytes_per_s, workload.write_fraction
        )
        if not report.should_offload:
            return [
                Advice(
                    code="dram-only-ok",
                    severity=Severity.INFO,
                    message=(
                        "demand sits well below the DRAM knee; DRAM-only "
                        "placement is optimal at this load"
                    ),
                )
            ]
        ratio = placer.recommend_ratio(
            workload.demand_bytes_per_s, workload.write_fraction
        )
        return [
            Advice(
                code="interleave-offload",
                severity=Severity.RECOMMEND,
                message=(
                    f"offload {report.best.cxl_fraction * 100:.0f}% of traffic "
                    f"to CXL (N:M ≈ {ratio}): average loaded latency drops "
                    f"{report.latency_gain * 100:.0f}% vs DRAM-only, even "
                    f"with DRAM at {report.dram_only.dram_utilization * 100:.0f}% "
                    "utilization (§3.4)"
                ),
            )
        ]

    def _check_tiering(self, workload: WorkloadProfile) -> List[Advice]:
        advice: List[Advice] = []
        if workload.locality < 0.4:
            advice.append(
                Advice(
                    code="tiering-thrash-risk",
                    severity=Severity.WARNING,
                    message=(
                        "low access locality defeats hot-page selection: the "
                        "dynamic threshold will promote pages that go cold "
                        "again, sustaining useless migration traffic (§4.2.2); "
                        "pin the promotion threshold or disable promotion"
                    ),
                )
            )
        dram_peak = self._dram_path.peak_bandwidth(workload.write_fraction)
        if workload.demand_bytes_per_s > 0.7 * dram_peak:
            advice.append(
                Advice(
                    code="bandwidth-oblivious-promotion",
                    severity=Severity.WARNING,
                    message=(
                        "MMEM runs above 70% bandwidth; kernel tiering will "
                        "still promote into it on capacity grounds and push "
                        "it past the latency knee — throttle promotion for "
                        "this workload (§5.3)"
                    ),
                )
            )
        return advice

    def _check_capacity(self, workload: WorkloadProfile) -> List[Advice]:
        if workload.working_set_bytes <= 0:
            return []
        dram_capacity = sum(
            n.capacity_bytes for n in self.platform.dram_nodes(self.socket)
        )
        cxl_capacity = sum(n.capacity_bytes for n in self.platform.cxl_nodes())
        if workload.working_set_bytes <= dram_capacity:
            return []
        if workload.working_set_bytes <= dram_capacity + cxl_capacity:
            return [
                Advice(
                    code="cxl-capacity-fit",
                    severity=Severity.RECOMMEND,
                    message=(
                        "working set exceeds socket DRAM but fits DRAM+CXL; "
                        "CXL expansion avoids SSD spill entirely (§4.1/§4.2)"
                    ),
                )
            ]
        return [
            Advice(
                code="capacity-exceeded",
                severity=Severity.WARNING,
                message=(
                    "working set exceeds DRAM+CXL; expect SSD spill — "
                    "size the estimate with the Abstract Cost Model (§6)"
                ),
            )
        ]

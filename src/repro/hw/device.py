"""Runtime device objects: shared bandwidth resources, NUMA memory nodes, SSDs.

A :class:`SharedResource` is anything several traffic streams can saturate:
a DDR channel group, a CXL controller + its DRAM, a PCIe link, a UPI link,
or the virtual Remote-Snoop-Filter limit.  Its capacity is a
:class:`~repro.hw.bandwidth.PeakBandwidthCurve` because the saturation
point depends on the read/write mix (§3).

A :class:`MemoryNode` is what the OS sees: a NUMA node with a kind (DRAM
or CXL), a capacity, and the shared resources its accesses cross.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import CapacityError, ConfigurationError
from .bandwidth import PeakBandwidthCurve
from .spec import SsdSpec

__all__ = ["SharedResource", "NodeKind", "MemoryNode", "SsdDevice"]


@dataclass(frozen=True)
class SharedResource:
    """A named, mix-sensitive bandwidth capacity."""

    name: str
    curve: PeakBandwidthCurve

    def capacity(self, write_fraction: float = 0.0) -> float:
        """Capacity in bytes/s at the given aggregate write mix."""
        return self.curve(write_fraction)


class NodeKind(enum.Enum):
    """What backs a NUMA node."""

    DRAM = "dram"
    CXL = "cxl"


@dataclass
class MemoryNode:
    """A NUMA memory node as exposed to the OS layer.

    ``domain`` is the SNC sub-NUMA domain index for DRAM nodes (None when
    SNC is off or for CXL nodes, which are CPU-less).
    """

    node_id: int
    kind: NodeKind
    socket: int
    capacity_bytes: int
    resource: SharedResource
    domain: Optional[int] = None
    #: Extra resources local accesses cross (e.g. the PCIe link of a CXL
    #: card).  Remote-socket extras are added by path resolution.
    local_extra_resources: Tuple[str, ...] = ()
    #: RAS state: False while the device is hard-failed (fault injection
    #: or a real outage model); flipped by ``Platform.mark_offline``.
    online: bool = True

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("node capacity must be positive")
        if self.kind is NodeKind.CXL and self.domain is not None:
            raise ConfigurationError("CXL nodes are CPU-less; no SNC domain")

    @property
    def is_cxl(self) -> bool:
        """True for CXL expander nodes."""
        return self.kind is NodeKind.CXL


class SsdDevice:
    """A simple NVMe SSD service model.

    Used by the KV store's flash tier and by Spark's shuffle spill.  A
    transfer's service time is the device latency plus the transfer time
    at the device's (possibly contended) bandwidth; a crude
    utilization-driven queueing multiplier models the long tail the paper
    sees for SSD-spill configurations (Fig. 5(b), Fig. 7).
    """

    def __init__(self, spec: SsdSpec, name: str = "ssd0") -> None:
        self.spec = spec
        self.name = name
        self.bytes_read = 0
        self.bytes_written = 0

    def access_time_ns(
        self,
        size_bytes: int,
        is_write: bool,
        utilization: float = 0.0,
        count: int = 1,
    ) -> float:
        """Service time for one transfer of ``size_bytes``.

        ``utilization`` in [0, 1) inflates the time with a 1/(1-u) queueing
        factor, as for the memory paths.  The byte counters account
        ``count`` such transfers.
        """
        if size_bytes < 0:
            raise CapacityError("transfer size must be >= 0")
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError("utilization must be in [0, 1]")
        u = min(utilization, 0.99)
        if is_write:
            latency = self.spec.write_latency_ns
            bandwidth = self.spec.write_bandwidth_bytes_per_s
            self.bytes_written += size_bytes * count
        else:
            latency = self.spec.read_latency_ns
            bandwidth = self.spec.read_bandwidth_bytes_per_s
            self.bytes_read += size_bytes * count
        transfer_ns = size_bytes / bandwidth * 1e9
        return (latency + transfer_ns) / (1.0 - u)

    def reset_counters(self) -> None:
        """Zero the byte counters (between experiment phases)."""
        self.bytes_read = 0
        self.bytes_written = 0

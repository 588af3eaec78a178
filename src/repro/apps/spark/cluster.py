"""Cluster configurations for the Spark experiments (§4.2.1).

A :class:`ClusterConfig` describes one Fig. 7 bar: how many servers,
what fraction of executor memory lives on each tier, and any executor
memory restriction (the spill configurations).  The paper's setups:

* ``mmem`` — three plain servers, 50 executors and 400 GB each;
* ``spill-0.8`` / ``spill-0.6`` — the same three servers with executors
  restricted to 80 % / 60 % of their memory, forcing shuffle spill;
* ``3:1`` / ``1:1`` / ``1:3`` — two CXL servers, 150 executors total,
  memory tier-interleaved at the named MMEM:CXL ratio;
* ``hot-promote`` — two CXL servers with the hot-page daemon: steady
  state puts as much as fits on DRAM (DRAM capacity / working set) and
  pays a thrashing overhead, since TPC-H's poor locality defeats the
  dynamic hot threshold (§4.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ...errors import ConfigurationError
from ...hw.presets import paper_baseline_platform, paper_cxl_platform
from ...hw.topology import Platform
from ...units import GIB
from .executor import SparkAppSpec

__all__ = ["ClusterConfig", "SPARK_CONFIGS", "build_cluster_config"]

#: Fig. 7 configuration names in the paper's order.
SPARK_CONFIGS: Tuple[str, ...] = (
    "mmem",
    "spill-0.8",
    "spill-0.6",
    "3:1",
    "1:1",
    "1:3",
    "hot-promote",
)

#: Usable MMEM per server assumed by the paper's §4.2.1 sizing.
MMEM_PER_SERVER = 512 * GIB


@dataclass(frozen=True)
class ClusterConfig:
    """One Fig. 7 deployment."""

    name: str
    servers: int
    platform: Platform  # representative server (all are identical)
    app: SparkAppSpec
    #: Fraction of executor memory on the DRAM tier (rest on CXL).
    dram_fraction: float
    #: Executor memory restriction (1.0 = unrestricted).
    memory_restriction: float = 1.0
    #: Extra stage-time overhead from tiering-daemon thrashing
    #: (page faults, TLB shootdowns; §4.2.2).
    thrash_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.servers <= 0:
            raise ConfigurationError("servers must be positive")
        if not 0.0 <= self.dram_fraction <= 1.0:
            raise ConfigurationError("dram_fraction must be in [0, 1]")
        if not 0.0 < self.memory_restriction <= 1.0:
            raise ConfigurationError("memory_restriction must be in (0, 1]")
        if self.thrash_overhead < 0:
            raise ConfigurationError("thrash_overhead must be >= 0")

    @property
    def cxl_fraction(self) -> float:
        """Fraction of executor memory on the CXL tier."""
        return 1.0 - self.dram_fraction


def build_cluster_config(
    name: str, app: SparkAppSpec = SparkAppSpec()
) -> ClusterConfig:
    """Assemble one of the paper's Fig. 7 configurations by name."""
    if name == "mmem":
        return ClusterConfig(
            name, servers=3, platform=paper_baseline_platform(),
            app=app, dram_fraction=1.0,
        )
    if name.startswith("spill-"):
        restriction = float(name.split("-", 1)[1])
        return ClusterConfig(
            name, servers=3, platform=paper_baseline_platform(),
            app=app, dram_fraction=1.0, memory_restriction=restriction,
        )
    if ":" in name:
        n, m = (int(x) for x in name.split(":"))
        if n <= 0 or m <= 0:
            raise ConfigurationError(f"bad interleave ratio {name!r}")
        return ClusterConfig(
            name, servers=2, platform=paper_cxl_platform(),
            app=app, dram_fraction=n / (n + m),
        )
    if name == "hot-promote":
        # Steady state: DRAM holds what fits of the per-server working
        # set; the rest stays on CXL.  Thrashing overhead reflects the
        # daemon's sustained useless promote/demote traffic under the
        # low-locality TPC-H access pattern (§4.2.2).
        working_per_server = app.total_memory_bytes / 2
        dram_fraction = min(1.0, MMEM_PER_SERVER / working_per_server)
        return ClusterConfig(
            name, servers=2, platform=paper_cxl_platform(),
            app=app, dram_fraction=dram_fraction, thrash_overhead=0.18,
        )
    raise ConfigurationError(
        f"unknown Spark config {name!r}; expected one of {SPARK_CONFIGS}"
    )


def tier_bandwidths(platform: Platform, write_fraction: float = 0.5) -> Dict[str, float]:
    """Achievable per-server DRAM and CXL bandwidth at a given mix.

    Computed through the platform's allocator with one unbounded flow
    per node so link bottlenecks (PCIe) are honored.
    """
    demands = []
    for node in platform.dram_nodes():
        socket = node.socket
        path = platform.path(socket, node.node_id, initiator_domain=node.domain)
        demands.append(platform.demand(("d", node.node_id), path, float("inf"), write_fraction))
    for node in platform.cxl_nodes():
        path = platform.path(node.socket, node.node_id)
        demands.append(platform.demand(("c", node.node_id), path, float("inf"), write_fraction))
    result = platform.allocate(demands)
    dram = sum(v for k, v in result.achieved.items() if k[0] == "d")
    cxl = sum(v for k, v in result.achieved.items() if k[0] == "c")
    return {"dram": dram, "cxl": cxl}

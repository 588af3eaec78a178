"""Platform topology: sockets, SNC domains, NUMA nodes, and path resolution.

:class:`Platform` is the runtime model of one server.  It owns:

* the NUMA **nodes** (DRAM nodes — one per socket, or one per SNC domain
  when Sub-NUMA Clustering is enabled — and one CPU-less node per CXL
  card);
* the shared bandwidth **resources** (DDR channel groups, PCIe links,
  RSF limits, UPI links, SSD channels, the NIC);
* **path resolution**: given an initiator socket and a target node, the
  :class:`~repro.hw.paths.MemoryPath` with the right latency surface and
  resource chain;
* **allocation**: a mix-aware wrapper around
  :func:`repro.sim.traffic.max_min_allocate` that derives each
  resource's capacity from the write mix of the traffic crossing it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import TopologyError
from ..sim.traffic import AllocationResult, TrafficDemand, max_min_allocate
from .calibration import ANCHORS, PaperAnchors, path_bandwidth_curve, path_latency_model
from .device import MemoryNode, NodeKind, SharedResource, SsdDevice
from .interconnect import nic_link, pcie_link, rsf_limit, ssd_channel, upi_link
from .paths import MemoryPath, PathKind
from .spec import ServerSpec

__all__ = ["Platform", "build_platform"]


class Platform:
    """One server's memory system at runtime."""

    def __init__(self, spec: ServerSpec, anchors: PaperAnchors = ANCHORS) -> None:
        self.spec = spec
        self.anchors = anchors
        self.nodes: Dict[int, MemoryNode] = {}
        self.resources: Dict[str, SharedResource] = {}
        self.ssds: List[SsdDevice] = []
        self._cxl_rsf: Dict[int, str] = {}  # node_id -> rsf resource name
        #: RAS deratings: resource name -> capacity multiplier in (0, 1).
        #: Set by the fault injector while a link is degraded/retraining.
        self._derating: Dict[str, float] = {}
        self._build()

    # -- construction -------------------------------------------------------

    def _add_resource(self, resource: SharedResource) -> str:
        if resource.name in self.resources:
            raise TopologyError(f"duplicate resource {resource.name!r}")
        self.resources[resource.name] = resource
        return resource.name

    def _build(self) -> None:
        spec, anchors = self.spec, self.anchors
        node_id = 0
        dram_curve = path_bandwidth_curve("mmem_local", anchors)
        channels_per_domain = anchors.channels_per_snc_domain

        for socket in range(spec.sockets):
            if spec.snc_enabled:
                domains = spec.cpu.snc_domains
                channels_each = spec.cpu.channels_per_domain
            else:
                domains = 1
                channels_each = spec.cpu.memory_channels
            for domain in range(domains):
                scale = channels_each / channels_per_domain
                res = SharedResource(
                    name=f"skt{socket}/dram{domain}",
                    curve=dram_curve.scaled(scale),
                )
                self._add_resource(res)
                self.nodes[node_id] = MemoryNode(
                    node_id=node_id,
                    kind=NodeKind.DRAM,
                    socket=socket,
                    domain=domain if spec.snc_enabled else None,
                    capacity_bytes=channels_each * spec.cpu.dimm.capacity_bytes,
                    resource=res,
                )
                node_id += 1

        for index, cxl in enumerate(spec.cxl_devices):
            socket = spec.cxl_socket
            dev_res = SharedResource(
                name=f"skt{socket}/cxl{index}/dev",
                curve=path_bandwidth_curve("cxl_local", anchors),
            )
            link = pcie_link(socket, index, cxl)
            rsf = rsf_limit(socket, index, anchors)
            self._add_resource(dev_res)
            self._add_resource(link)
            self._add_resource(rsf)
            self.nodes[node_id] = MemoryNode(
                node_id=node_id,
                kind=NodeKind.CXL,
                socket=socket,
                capacity_bytes=cxl.capacity_bytes,
                resource=dev_res,
                local_extra_resources=(link.name,),
            )
            self._cxl_rsf[node_id] = rsf.name
            node_id += 1

        for a in range(spec.sockets):
            for b in range(a + 1, spec.sockets):
                self._add_resource(upi_link(a, b, anchors))

        for index, ssd in enumerate(spec.ssds):
            self.ssds.append(SsdDevice(ssd, name=f"{spec.name}/ssd{index}"))
            self._add_resource(
                ssd_channel(spec.name, index, ssd.read_bandwidth_bytes_per_s)
            )
        self._add_resource(nic_link(spec.name, spec.nic.bandwidth_bytes_per_s))

    # -- lookups -------------------------------------------------------------

    def node(self, node_id: int) -> MemoryNode:
        """The node with this id; raises :class:`TopologyError` if unknown."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id}") from None

    def dram_nodes(
        self, socket: Optional[int] = None, online_only: bool = False
    ) -> List[MemoryNode]:
        """All DRAM nodes, optionally restricted to one socket."""
        return [
            n
            for n in self.nodes.values()
            if n.kind is NodeKind.DRAM
            and (socket is None or n.socket == socket)
            and (not online_only or n.online)
        ]

    def cxl_nodes(
        self, socket: Optional[int] = None, online_only: bool = False
    ) -> List[MemoryNode]:
        """All CXL nodes, optionally restricted to one socket."""
        return [
            n
            for n in self.nodes.values()
            if n.kind is NodeKind.CXL
            and (socket is None or n.socket == socket)
            and (not online_only or n.online)
        ]

    # -- RAS state (driven by repro.faults) ----------------------------------

    def set_derating(self, resource: str, multiplier: float) -> None:
        """Derate a shared resource's capacity (degraded/retraining link).

        ``multiplier`` scales the resource's mix-dependent capacity in the
        allocator; 1.0 (or above) clears the derating.
        """
        if resource not in self.resources:
            raise TopologyError(f"unknown resource {resource!r}")
        if multiplier <= 0.0:
            raise TopologyError(f"derating multiplier must be positive, got {multiplier}")
        if multiplier >= 1.0:
            self._derating.pop(resource, None)
        else:
            self._derating[resource] = multiplier

    def derating(self, resource: str) -> float:
        """Current capacity multiplier of a resource (1.0 = healthy)."""
        return self._derating.get(resource, 1.0)

    def mark_offline(self, node_id: int) -> None:
        """Hard-fail a node: its memory becomes unreachable."""
        self.node(node_id).online = False

    def mark_online(self, node_id: int) -> None:
        """Bring a failed node back (device replaced / link retrained)."""
        self.node(node_id).online = True

    def is_online(self, node_id: int) -> bool:
        """RAS state of a node (True = reachable)."""
        return self.node(node_id).online

    def _upi_name(self, socket_a: int, socket_b: int) -> str:
        lo, hi = sorted((socket_a, socket_b))
        return f"upi/{lo}-{hi}"

    # -- path resolution --------------------------------------------------

    def path(
        self,
        initiator_socket: int,
        target_node: int,
        initiator_domain: Optional[int] = None,
    ) -> MemoryPath:
        """Resolve the access path from a socket (and SNC domain) to a node."""
        if not 0 <= initiator_socket < self.spec.sockets:
            raise TopologyError(f"unknown socket {initiator_socket}")
        node = self.node(target_node)
        same_socket = node.socket == initiator_socket

        if node.kind is NodeKind.DRAM:
            if same_socket:
                same_domain = (
                    node.domain is None
                    or initiator_domain is None
                    or node.domain == initiator_domain
                )
                kind = PathKind.MMEM_LOCAL if same_domain else PathKind.MMEM_SNC
                resources = (node.resource.name,)
                curve = node.resource.curve
            else:
                kind = PathKind.MMEM_REMOTE
                resources = (
                    self._upi_name(initiator_socket, node.socket),
                    node.resource.name,
                )
                curve = path_bandwidth_curve("mmem_remote", self.anchors)
        else:
            if same_socket:
                kind = PathKind.CXL_LOCAL
                resources = node.local_extra_resources + (node.resource.name,)
                curve = node.resource.curve
            else:
                kind = PathKind.CXL_REMOTE
                resources = (
                    self._upi_name(initiator_socket, node.socket),
                    self._cxl_rsf[node.node_id],
                ) + node.local_extra_resources + (node.resource.name,)
                curve = path_bandwidth_curve("cxl_remote", self.anchors)

        model_key = {
            PathKind.MMEM_LOCAL: "mmem_local",
            PathKind.MMEM_SNC: "mmem_snc",
            PathKind.MMEM_REMOTE: "mmem_remote",
            PathKind.CXL_LOCAL: "cxl_local",
            PathKind.CXL_REMOTE: "cxl_remote",
        }[kind]
        return MemoryPath(
            kind=kind,
            initiator_socket=initiator_socket,
            target_node=target_node,
            resources=resources,
            latency_model=path_latency_model(model_key, self.anchors),
            bandwidth_curve=curve,
        )

    # -- allocation ----------------------------------------------------------

    def allocate(
        self, demands: Sequence[TrafficDemand], iterations: int = 2
    ) -> AllocationResult:
        """Run a mix-aware max-min allocation round.

        Resource capacities depend on the write mix of the traffic that
        crosses them, and the mix depends on how much of each demand is
        satisfied — so capacity estimation and allocation alternate for
        ``iterations`` rounds (two suffice in practice: the curves are
        piecewise linear and demands change slowly between rounds).
        """
        if not demands:
            return AllocationResult()
        # Initial mix estimate: request-weighted, capping unbounded rates
        # at the resource's read-only capacity so inf demands don't NaN.
        weights = {}
        for d in demands:
            cap_guess = min(
                self.resources[r].capacity(0.0) * self.derating(r)
                for r in d.resources
            )
            weights[d.source] = min(d.rate, cap_guess)
        mix: Dict[str, float] = {}
        for name in self.resources:
            num = den = 0.0
            for d in demands:
                if name in d.resources:
                    num += weights[d.source] * d.write_fraction
                    den += weights[d.source]
            mix[name] = num / den if den > 0 else 0.0

        result = AllocationResult()
        for _ in range(max(1, iterations)):
            capacities = {
                name: res.capacity(mix.get(name, 0.0)) * self.derating(name)
                for name, res in self.resources.items()
            }
            result = max_min_allocate(list(demands), capacities)
            mix = {
                name: result.write_fraction.get(name, mix.get(name, 0.0))
                for name in self.resources
            }
        return result

    def demand(
        self,
        source: object,
        path: MemoryPath,
        rate: float,
        write_fraction: float = 0.0,
    ) -> TrafficDemand:
        """Convenience constructor tying a demand to a resolved path."""
        return TrafficDemand(
            source=source,
            resources=path.resources,
            rate=rate,
            write_fraction=write_fraction,
        )


def build_platform(spec: ServerSpec, anchors: PaperAnchors = ANCHORS) -> Platform:
    """Build a runtime platform from a declarative server spec."""
    return Platform(spec, anchors)

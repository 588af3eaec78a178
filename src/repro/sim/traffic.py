"""Bandwidth demands and max-min fair allocation.

Every memory access stream in the simulator (an MLC thread group, a KV
store's page traffic, an LLM backend's weight/KV-cache reads) is a
:class:`TrafficDemand`: a requested rate across an ordered chain of
capacity-bearing resources (DDR channel group, UPI link, PCIe link, CXL
controller).  :func:`max_min_allocate` performs progressive filling
(water-filling): all demands grow at the same rate until a resource
saturates or a demand is satisfied, which is the standard model for how
independent request streams share memory-system bandwidth.

The resulting per-resource utilizations drive the loaded-latency model in
:mod:`repro.hw.latency`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Sequence, Tuple

from ..errors import SimulationError

__all__ = ["TrafficDemand", "AllocationResult", "max_min_allocate"]


@dataclass
class TrafficDemand:
    """A single stream's bandwidth request.

    Parameters
    ----------
    source:
        Identifier of the requester (opaque; used to read results back).
    resources:
        The capacity-bearing resources this stream traverses, e.g.
        ``("skt0/cxl0/pcie", "skt0/cxl0/dram")``.  A stream is limited by
        its tightest resource.  The same resource may appear more than
        once (a bounce path crossing one UPI link both ways); each
        occurrence consumes the stream's achieved rate once, so a route
        naming a link twice drains it at twice the allocated rate.
    rate:
        Requested bandwidth in bytes/s.  ``float('inf')`` means "as much
        as the resources allow".
    write_fraction:
        Share of the stream's bytes that are writes, in [0, 1].  Used by
        callers to derive resource capacities; carried here so an
        allocator round can compute the aggregate mix per resource.
    """

    source: Hashable
    resources: Tuple[Hashable, ...]
    rate: float
    write_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not self.rate >= 0:  # also rejects NaN
            raise SimulationError(f"demand rate must be >= 0, got {self.rate}")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise SimulationError("write_fraction must be in [0, 1]")
        if not self.resources:
            raise SimulationError("a demand must traverse at least one resource")
        self.resources = tuple(self.resources)


@dataclass
class AllocationResult:
    """Outcome of one allocation round."""

    #: Achieved bytes/s per demand source.
    achieved: Dict[Hashable, float] = field(default_factory=dict)
    #: Utilization in [0, 1] per resource (achieved / capacity).
    utilization: Dict[Hashable, float] = field(default_factory=dict)
    #: Aggregate write fraction of the traffic crossing each resource.
    write_fraction: Dict[Hashable, float] = field(default_factory=dict)

    def bottleneck(self, resources: Sequence[Hashable]) -> float:
        """Highest utilization among ``resources`` (0 if none known)."""
        return max((self.utilization.get(r, 0.0) for r in resources), default=0.0)


def max_min_allocate(
    demands: Sequence[TrafficDemand],
    capacities: Dict[Hashable, float],
) -> AllocationResult:
    """Allocate bandwidth with progressive filling (max-min fairness).

    Parameters
    ----------
    demands:
        The request streams.  Every resource a demand names must appear in
        ``capacities``.
    capacities:
        Capacity in bytes/s per resource.

    Returns
    -------
    AllocationResult
        Achieved rate per source plus per-resource utilization and
        aggregate write mix.

    Notes
    -----
    Water-filling: at each step all *active* demands grow at the same
    rate.  The step size is the smallest of (a) the headroom of any
    demand to its requested rate, and (b) each resource's remaining
    capacity divided by the total number of active *crossings* of it.
    Demands that hit their request, or that cross a saturated resource,
    freeze.  The result is the unique max-min fair allocation.

    Duplicate resources in a route are allocated per-occurrence: a
    demand naming the same resource ``k`` times counts as ``k``
    crossings when sizing the uniform increment, consumes ``k`` times
    its allocated rate from that resource, and contributes ``k`` times
    its write bytes to the resource's aggregate mix — the three
    accountings stay consistent by construction (pinned by the
    duplicate-route regression tests in ``tests/sim/test_traffic.py``).
    """
    for d in demands:
        for r in d.resources:
            if r not in capacities:
                raise SimulationError(f"demand {d.source!r} names unknown resource {r!r}")
    for r, cap in capacities.items():
        if cap <= 0:
            raise SimulationError(f"resource {r!r} has non-positive capacity {cap}")

    alloc = [0.0 for _ in demands]
    active = [d.rate > 0 for d in demands]
    used: Dict[Hashable, float] = {r: 0.0 for r in capacities}
    epsilon = 1e-9

    while any(active):
        active_idx = [i for i, a in enumerate(active) if a]
        # Total active crossings per resource.  Occurrences are counted,
        # not deduplicated: a duplicate-resource route drains the
        # resource once per crossing, so the crossing count is exactly
        # the resource's drain rate per unit of uniform demand growth —
        # which keeps the increment below, the usage update and the
        # freezing logic mutually consistent for such routes.
        crossings: Dict[Hashable, int] = {}
        for i in active_idx:
            for r in demands[i].resources:
                crossings[r] = crossings.get(r, 0) + 1
        # Largest uniform increment permitted by any resource...
        delta = float("inf")
        for r, weight in crossings.items():
            headroom = capacities[r] - used[r]
            delta = min(delta, headroom / weight)
        # ...and by any demand's own request.
        for i in active_idx:
            delta = min(delta, demands[i].rate - alloc[i])
        if delta == float("inf"):
            raise SimulationError("all active demands are unbounded and unconstrained")
        delta = max(delta, 0.0)

        for i in active_idx:
            alloc[i] += delta
            for r in demands[i].resources:
                used[r] += delta

        # Freeze satisfied demands and demands crossing saturated resources.
        for i in active_idx:
            if alloc[i] >= demands[i].rate - epsilon:
                active[i] = False
        saturated = {
            r for r in crossings if used[r] >= capacities[r] - epsilon * max(1.0, capacities[r])
        }
        if saturated:
            for i in active_idx:
                if active[i] and any(r in saturated for r in demands[i].resources):
                    active[i] = False
        elif delta == 0.0:
            # No progress possible (numerical corner); stop rather than spin.
            break

    result = AllocationResult()
    write_bytes: Dict[Hashable, float] = {r: 0.0 for r in capacities}
    for d, a in zip(demands, alloc):
        result.achieved[d.source] = a
        for r in d.resources:
            write_bytes[r] += a * d.write_fraction
    for r, cap in capacities.items():
        result.utilization[r] = min(1.0, used[r] / cap)
        result.write_fraction[r] = write_bytes[r] / used[r] if used[r] > 0 else 0.0
    return result

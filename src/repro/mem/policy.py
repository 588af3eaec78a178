"""NUMA memory policies: bind, preferred, interleave, weighted N:M interleave.

These mirror the Linux mempolicies the paper's experiments are built on
(§2.3 and Table 1):

* ``MPOL_BIND`` — :class:`BindPolicy`; what ``numactl --membind`` does in
  the paper's CXL-only and MMEM-only configurations (§4.3).
* ``MPOL_PREFERRED`` — :class:`PreferredPolicy`; fill a preferred node
  first, then fall back (the Hot-Promote setup allocates half the
  dataset on CXL this way).
* ``MPOL_INTERLEAVE`` — :class:`InterleavePolicy`; classic 1:1
  round-robin.
* **N:M tiered interleave** — :class:`WeightedInterleavePolicy`; the
  unofficial kernel patch's policy where N pages go to top-tier nodes
  for every M pages on lower tiers (``vm.numa_tier_interleave``), used
  for the paper's 3:1 / 1:1 / 1:3 configurations.

A policy answers one question: *which node should this page land on*,
given how much capacity each candidate node has left.  Placement is
deterministic, so simulations reproduce exactly.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence, Tuple

from ..errors import AllocationError, PolicyError

__all__ = [
    "MemPolicy",
    "BindPolicy",
    "PreferredPolicy",
    "InterleavePolicy",
    "WeightedInterleavePolicy",
]


class MemPolicy(abc.ABC):
    """Decides the target node for each newly allocated page."""

    @abc.abstractmethod
    def place(self, free_bytes: Dict[int, int], page_size: int) -> int:
        """Return the node id for the next page.

        ``free_bytes`` maps each node id in the system to its remaining
        capacity.  Implementations must not place a page on a node with
        less than ``page_size`` free; they raise
        :class:`~repro.errors.AllocationError` when no allowed node fits.
        """

    @abc.abstractmethod
    def nodes(self) -> Tuple[int, ...]:
        """The nodes this policy may place pages on (for validation)."""

    def _fits(self, node: int, free_bytes: Dict[int, int], page_size: int) -> bool:
        return free_bytes.get(node, 0) >= page_size


class BindPolicy(MemPolicy):
    """Strictly allocate on the given nodes, in order, until they fill."""

    def __init__(self, node_ids: Sequence[int]) -> None:
        if not node_ids:
            raise PolicyError("bind policy requires at least one node")
        self._nodes = tuple(node_ids)

    def nodes(self) -> Tuple[int, ...]:
        return self._nodes

    def place(self, free_bytes: Dict[int, int], page_size: int) -> int:
        for node in self._nodes:
            if self._fits(node, free_bytes, page_size):
                return node
        raise AllocationError(
            f"bound nodes {self._nodes} are full (page_size={page_size})"
        )


class PreferredPolicy(MemPolicy):
    """Fill ``preferred`` first; overflow onto ``fallbacks`` in order."""

    def __init__(self, preferred: int, fallbacks: Sequence[int] = ()) -> None:
        self._preferred = preferred
        self._fallbacks = tuple(fallbacks)

    def nodes(self) -> Tuple[int, ...]:
        return (self._preferred,) + self._fallbacks

    def place(self, free_bytes: Dict[int, int], page_size: int) -> int:
        for node in self.nodes():
            if self._fits(node, free_bytes, page_size):
                return node
        raise AllocationError(
            f"preferred node {self._preferred} and fallbacks {self._fallbacks} are full"
        )


class InterleavePolicy(MemPolicy):
    """Classic 1:1 round-robin across the given nodes."""

    def __init__(self, node_ids: Sequence[int]) -> None:
        if not node_ids:
            raise PolicyError("interleave policy requires at least one node")
        self._nodes = tuple(node_ids)
        self._next = 0

    def nodes(self) -> Tuple[int, ...]:
        return self._nodes

    def place(self, free_bytes: Dict[int, int], page_size: int) -> int:
        # Try each node starting from the round-robin cursor; skip full ones.
        for offset in range(len(self._nodes)):
            node = self._nodes[(self._next + offset) % len(self._nodes)]
            if self._fits(node, free_bytes, page_size):
                self._next = (self._next + offset + 1) % len(self._nodes)
                return node
        raise AllocationError(f"interleave nodes {self._nodes} are full")


class WeightedInterleavePolicy(MemPolicy):
    """The N:M tiered-interleave policy from the kernel patch (§2.3).

    ``weights`` maps node id → integer weight; out of every
    ``sum(weights)`` pages, each node receives its weight's share.  The
    paper's ``3:1`` configuration is ``{dram: 3, cxl: 1}`` — 75 % of
    pages (and hence steady-state traffic) on MMEM, 25 % on CXL.

    Placement uses smooth weighted round-robin, so the pattern
    ``A A A B A A A B ...`` is spread evenly rather than bursty, matching
    how the kernel patch distributes pages.
    """

    def __init__(self, weights: Dict[int, int]) -> None:
        if not weights:
            raise PolicyError("weighted interleave requires at least one node")
        for node, w in weights.items():
            if w <= 0 or int(w) != w:
                raise PolicyError(f"weight for node {node} must be a positive integer")
        self._weights = {node: int(w) for node, w in weights.items()}
        self._total = sum(self._weights.values())
        self._current: Dict[int, int] = {node: 0 for node in weights}

    @classmethod
    def from_ratio(cls, top_nodes: Sequence[int], low_nodes: Sequence[int], n: int, m: int) -> "WeightedInterleavePolicy":
        """Build an N:M policy: N parts to top-tier nodes, M to low-tier.

        The ratio is split evenly within each tier, scaled so each node's
        weight stays integral.
        """
        if n <= 0 or m <= 0:
            raise PolicyError("N and M must be positive")
        if not top_nodes or not low_nodes:
            raise PolicyError("both tiers need at least one node")
        weights: Dict[int, int] = {}
        for node in top_nodes:
            weights[node] = n * len(low_nodes)
        for node in low_nodes:
            weights[node] = m * len(top_nodes)
        return cls(weights)

    def nodes(self) -> Tuple[int, ...]:
        return tuple(self._weights)

    def fraction(self, node: int) -> float:
        """The long-run share of pages placed on ``node``."""
        if node not in self._weights:
            raise PolicyError(f"node {node} is not part of this policy")
        return self._weights[node] / self._total

    def place(self, free_bytes: Dict[int, int], page_size: int) -> int:
        # Smooth weighted round-robin (nginx's algorithm): bump each
        # node's current weight by its configured weight, pick the
        # largest that fits (the lowest node id on a tie), then subtract
        # the total from the winner.
        current = self._current
        winner: Optional[int] = None
        best = 0
        for node, weight in self._weights.items():
            value = current[node] + weight
            current[node] = value
            if self._fits(node, free_bytes, page_size) and (
                winner is None or value > best or (value == best and node < winner)
            ):
                winner, best = node, value
        if winner is None:
            raise AllocationError(f"weighted-interleave nodes {self.nodes()} are full")
        current[winner] -= self._total
        return winner

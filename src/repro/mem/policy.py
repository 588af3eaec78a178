"""NUMA memory policies: bind, interleave, weighted N:M interleave.

These mirror the Linux mempolicies the paper's experiments are built on
(§2.3 and Table 1):

* ``MPOL_BIND`` — :class:`BindPolicy`; what ``numactl --membind`` does in
  the paper's CXL-only and MMEM-only configurations (§4.3).
* ``MPOL_INTERLEAVE`` — :class:`InterleavePolicy`; classic 1:1
  round-robin.  The Hot-Promote setup starts from it
  (:func:`~repro.mem.numactl.hot_promote_initial`), which puts half the
  dataset on CXL.
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
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import AllocationError, PolicyError

__all__ = [
    "MemPolicy",
    "BindPolicy",
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

    def place_many(
        self, free_bytes: Dict[int, int], page_size: int, count: int
    ) -> List[int]:
        """Return the node ids for the next ``count`` pages.

        The same nodes, the same policy state afterwards and the same
        :class:`~repro.errors.AllocationError` as ``count`` calls of
        :meth:`place`, each page taken out of ``free_bytes`` before the
        next call.  ``free_bytes`` is left with those pages taken out.
        Subclasses compute a batch in closed form where they can.
        """
        nodes = []
        for _ in range(count):
            node = self.place(free_bytes, page_size)
            free_bytes[node] -= page_size
            nodes.append(node)
        return nodes

    def _fits(self, node: int, free_bytes: Dict[int, int], page_size: int) -> bool:
        return free_bytes.get(node, 0) >= page_size

    @staticmethod
    def _take(
        free_bytes: Dict[int, int], page_size: int, need: Dict[int, int]
    ) -> bool:
        """Take ``need[node]`` pages out of each node if all of them fit.

        A node fits its ``k`` pages when it has room for the ``k``-th
        after the first ``k - 1`` are taken.  Leaves ``free_bytes`` as it
        was and returns False when any node does not fit.
        """
        if page_size <= 0 or any(
            free_bytes.get(node, 0) < pages * page_size for node, pages in need.items()
        ):
            return False
        for node, pages in need.items():
            free_bytes[node] -= pages * page_size
        return True


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

    def place_many(
        self, free_bytes: Dict[int, int], page_size: int, count: int
    ) -> List[int]:
        # Fill the nodes in order, each with every page it has room for.
        need: Dict[int, int] = {}
        left = count
        for node in self._nodes:
            if left and page_size > 0 and node not in need:
                pages = min(left, max(0, free_bytes.get(node, 0) // page_size))
                if pages:
                    need[node] = pages
                    left -= pages
        if left or not self._take(free_bytes, page_size, need):
            return super().place_many(free_bytes, page_size, count)
        nodes: List[int] = []
        for node, pages in need.items():
            nodes += [node] * pages
        return nodes


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

    def place_many(
        self, free_bytes: Dict[int, int], page_size: int, count: int
    ) -> List[int]:
        # Cyclic from the cursor while no node fills up on the way.
        order = self._nodes[self._next:] + self._nodes[: self._next]
        rounds, rest = divmod(count, len(order))
        need: Dict[int, int] = {}
        for i, node in enumerate(order):
            pages = rounds + (i < rest)
            if pages:
                need[node] = need.get(node, 0) + pages
        if not self._take(free_bytes, page_size, need):
            return super().place_many(free_bytes, page_size, count)
        self._next = (self._next + count) % len(order)
        return list(order * rounds + order[:rest])


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

    def place_many(
        self, free_bytes: Dict[int, int], page_size: int, count: int
    ) -> List[int]:
        # Run the real ``place`` on a view where every node fits, for the
        # batch or one period of ``total`` pages if shorter.  While every
        # node fits, the round-robin then repeats that period if it came
        # back to its starting weights (as it does from fresh weights).
        # Keep the tiled period if every node has room for its share.
        start = dict(self._current)
        roomy = dict.fromkeys(self._weights, page_size)
        period = [self.place(roomy, page_size) for _ in range(min(count, self._total))]
        rounds, rest = divmod(count, len(period)) if period else (0, 0)
        need = Counter(period[:rest])
        for node, picks in Counter(period).items():
            need[node] += rounds * picks
        if (len(period) == count or self._current == start) and self._take(
            free_bytes, page_size, need
        ):
            for _ in range(rest):
                self.place(roomy, page_size)
            return period * rounds + period[:rest]
        self._current = start
        return super().place_many(free_bytes, page_size, count)

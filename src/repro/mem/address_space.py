"""Address spaces and the shared node-capacity inventory.

:class:`MemoryInventory` tracks how many bytes are free on every NUMA
node of a platform — it is the simulator's equivalent of the kernel's
per-node free lists.  Several address spaces (processes) may share one
inventory, and an experiment can cap a node below its physical size
(the paper caps MMEM at half the dataset for the Hot-Promote runs, and
``maxmemory`` for KeyDB works the same way).

:class:`AddressSpace` owns a set of :class:`~repro.mem.page.Page`
objects, places new pages through a
:class:`~repro.mem.policy.MemPolicy`, and exposes the placement
statistics the tiering daemons and application models need.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..errors import AllocationError, MigrationError
from ..hw.topology import Platform
from ..units import PAGE_SIZE
from .page import Page
from .policy import MemPolicy

__all__ = ["MemoryInventory", "AddressSpace"]


class MemoryInventory:
    """Free-byte accounting for every node of a platform."""

    def __init__(
        self,
        platform: Platform,
        capacity_override: Optional[Dict[int, int]] = None,
    ) -> None:
        self.platform = platform
        self._capacity: Dict[int, int] = {}
        for node_id, node in platform.nodes.items():
            cap = node.capacity_bytes
            if capacity_override and node_id in capacity_override:
                cap = min(cap, capacity_override[node_id])
            self._capacity[node_id] = cap
        self._used: Dict[int, int] = {node_id: 0 for node_id in self._capacity}

    def capacity(self, node_id: int) -> int:
        """Usable bytes on the node (after any experiment cap)."""
        return self._capacity[node_id]

    def used(self, node_id: int) -> int:
        """Bytes currently allocated on the node."""
        return self._used[node_id]

    def free_bytes(self) -> Dict[int, int]:
        """Free bytes per node (the view mempolicies place against)."""
        return {n: self._capacity[n] - self._used[n] for n in self._capacity}

    def utilization(self, node_id: int) -> float:
        """Fraction of the node's capacity in use."""
        cap = self._capacity[node_id]
        return self._used[node_id] / cap if cap else 1.0

    def reserve(self, node_id: int, nbytes: int) -> None:
        """Account ``nbytes`` as used; raises if the node would overflow."""
        if nbytes < 0:
            raise AllocationError("cannot reserve a negative size")
        if self._used[node_id] + nbytes > self._capacity[node_id]:
            raise AllocationError(
                f"node {node_id} over capacity: "
                f"{self._used[node_id] + nbytes} > {self._capacity[node_id]}"
            )
        self._used[node_id] += nbytes

    def release(self, node_id: int, nbytes: int) -> None:
        """Return ``nbytes`` to the node's free pool."""
        if nbytes < 0 or self._used[node_id] - nbytes < 0:
            raise AllocationError(f"release underflow on node {node_id}")
        self._used[node_id] -= nbytes


class AddressSpace:
    """A process's pages and their placement."""

    def __init__(
        self,
        inventory: MemoryInventory,
        page_size: int = PAGE_SIZE,
        name: str = "proc",
    ) -> None:
        if page_size <= 0:
            raise AllocationError("page size must be positive")
        self.inventory = inventory
        self.page_size = page_size
        self.name = name
        self.pages: List[Page] = []
        self._next_page_id = 0

    # -- allocation ----------------------------------------------------------

    def allocate_pages(self, count: int, policy: MemPolicy) -> List[Page]:
        """Allocate ``count`` pages placed by ``policy``.

        All or nothing: when a page cannot be placed, the pages this
        call already reserved go back to the inventory before the
        :class:`~repro.errors.AllocationError` propagates.
        """
        if count < 0:
            raise AllocationError("cannot allocate a negative number of pages")
        size = self.page_size
        free = self.inventory.free_bytes()  # kept current below
        first_id = self._next_page_id
        new_pages: List[Page] = []
        try:
            for page_id in range(first_id, first_id + count):
                node = policy.place(free, size)
                self.inventory.reserve(node, size)
                free[node] -= size
                new_pages.append(Page(page_id, node, size))
        except AllocationError:
            for page in new_pages:
                self.inventory.release(page.node_id, size)
            raise
        self._next_page_id = first_id + count
        self.pages.extend(new_pages)
        return new_pages

    def allocate_bytes(self, nbytes: int, policy: MemPolicy) -> List[Page]:
        """Allocate enough pages to cover ``nbytes``."""
        count = -(-nbytes // self.page_size)  # ceiling division
        return self.allocate_pages(count, policy)

    def free_pages(self, pages: Iterable[Page]) -> None:
        """Release pages back to the inventory."""
        doomed = set(id(p) for p in pages)
        kept: List[Page] = []
        for page in self.pages:
            if id(page) in doomed:
                self.inventory.release(page.node_id, page.size)
            else:
                kept.append(page)
        self.pages = kept

    # -- migration -----------------------------------------------------------

    def move_page(self, page: Page, target_node: int) -> None:
        """Move a page to another node (capacity-checked).

        Raises :class:`~repro.errors.MigrationError` when the move is a
        no-op or the target is full — the tiering daemons treat the
        latter as "promotion blocked", mirroring the kernel's behaviour
        when the top tier has no free space.
        """
        if page.node_id == target_node:
            raise MigrationError(f"page {page.page_id} already on node {target_node}")
        free = self.inventory.free_bytes().get(target_node, 0)
        if free < page.size:
            raise MigrationError(f"node {target_node} full; cannot migrate")
        self.inventory.release(page.node_id, page.size)
        self.inventory.reserve(target_node, page.size)
        page.node_id = target_node
        page.migrations += 1

    # -- statistics ------------------------------------------------------------

    def total_bytes(self) -> int:
        """Bytes allocated in this address space."""
        return sum(p.size for p in self.pages)

    def pages_on(self, node_id: int) -> List[Page]:
        """All pages currently resident on ``node_id``."""
        return [p for p in self.pages if p.node_id == node_id]

    def node_distribution(self) -> Dict[int, int]:
        """Bytes per node for this address space."""
        dist: Dict[int, int] = {}
        for p in self.pages:
            dist[p.node_id] = dist.get(p.node_id, 0) + p.size
        return dist

    def fraction_on(self, node_ids: Iterable[int]) -> float:
        """Fraction of this space's bytes on the given nodes."""
        wanted = set(node_ids)
        total = self.total_bytes()
        if total == 0:
            return 0.0
        on = sum(p.size for p in self.pages if p.node_id in wanted)
        return on / total

"""Pages: the granule of placement, migration, and hotness tracking.

The kernel patches the paper evaluates (§2.3) all operate on pages:
the N:M interleave policy decides *where a page is allocated*, and the
NUMA-balancing / hot-page-selection / TPP daemons decide *when a page
moves between tiers* based on its access history.  :class:`Page` carries
exactly the state those mechanisms need — current node, last access
time, and a decaying access frequency — and nothing else, because a
simulation may hold millions of them.
"""

from __future__ import annotations

from ..units import PAGE_SIZE

__all__ = ["Page"]


class Page:
    """One page of memory, placed on a NUMA node.

    ``heat`` is an exponentially decaying access counter: each touch adds
    1 after decaying the previous value with half-life ``HEAT_HALF_LIFE``
    (in ns).  The tiering daemons compare ``heat`` against their hot
    thresholds; the decay makes "hot" mean *recently and repeatedly
    accessed*, matching the kernel's hint-fault recency heuristics.
    """

    __slots__ = (
        "page_id",
        "node_id",
        "size",
        "last_access_ns",
        "heat",
        "access_count",
        "write_count",
        "migrations",
    )

    #: Half-life of the heat counter, ns (100 ms: the order of the kernel's
    #: NUMA-balancing scan period).
    HEAT_HALF_LIFE = 100e6

    def __init__(self, page_id: int, node_id: int, size: int = PAGE_SIZE) -> None:
        self.page_id = page_id
        self.node_id = node_id
        self.size = size
        self.last_access_ns = -float("inf")
        self.heat = 0.0
        self.access_count = 0
        self.write_count = 0
        self.migrations = 0

    def touch(self, now_ns: float, is_write: bool = False) -> None:
        """Record one access at simulated time ``now_ns``."""
        if self.last_access_ns > -float("inf") and now_ns > self.last_access_ns:
            elapsed = now_ns - self.last_access_ns
            self.heat *= 0.5 ** (elapsed / self.HEAT_HALF_LIFE)
        self.heat += 1.0
        self.last_access_ns = now_ns
        self.access_count += 1
        if is_write:
            self.write_count += 1

    def touch_many(self, now_ns: float, count: int, writes: int = 0) -> None:
        """Record ``count`` accesses at ``now_ns``, ``writes`` of them writes.

        Leaves the page exactly as ``count`` calls of :meth:`touch` at
        ``now_ns`` do: the first decays the heat, the rest see no time
        pass, and each adds 1.0 on its own (``+ count`` can round
        differently).
        """
        self.touch(now_ns)
        heat = self.heat
        for _ in range(1, count):
            heat += 1.0
        self.heat = heat
        self.access_count += count - 1
        self.write_count += writes

    def heat_at(self, now_ns: float) -> float:
        """The decayed heat as of ``now_ns`` without recording an access."""
        if self.last_access_ns == -float("inf"):
            return 0.0
        elapsed = max(0.0, now_ns - self.last_access_ns)
        return self.heat * 0.5 ** (elapsed / self.HEAT_HALF_LIFE)

    def idle_ns(self, now_ns: float) -> float:
        """Time since the last access (inf if never touched)."""
        return now_ns - self.last_access_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Page(id={self.page_id}, node={self.node_id}, "
            f"heat={self.heat:.2f}, accesses={self.access_count})"
        )

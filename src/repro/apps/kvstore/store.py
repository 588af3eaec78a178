"""A KeyDB-like in-memory key-value store over the simulated platform.

Reproduces the §4.1 system under test: a Redis-compatible store whose
values live on page-granular memory placed by a NUMA mempolicy, with an
optional FLASH tier (KeyDB FLASH / RocksDB over NVMe) for data beyond
``maxmemory``.

The simulation works at *operation* granularity.  Each GET/SET resolves
the key to its value page and returns a :class:`AccessPlan` describing
what the operation touches (:meth:`KeyValueStore.plan_batch` resolves a
whole epoch of them as arrays, a :class:`BatchPlan`):

* ``struct_accesses`` dependent accesses to shared server structures
  (hash table buckets, robj headers, event-loop state) whose placement
  follows the store's overall page mix;
* ``value_accesses`` dependent accesses to the key's own value page;
* optional SSD work when the value is not memory-resident (FLASH) or
  must be persisted (FLASH write path).

The server model (:mod:`repro.apps.kvstore.server`) prices the plan
using the current loaded latencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ...errors import ConfigurationError
from ...mem.address_space import AddressSpace
from ...mem.page import Page
from ...mem.policy import MemPolicy
from ...units import KIB
from .flash import FlashTier

__all__ = ["ServiceProfile", "AccessPlan", "BatchPlan", "KeyValueStore"]


@dataclass(frozen=True)
class ServiceProfile:
    """How much work one KV operation does, calibrated per experiment.

    The two presets match the paper's two KeyDB studies:

    * :meth:`capacity` (§4.1): a 512 GB working set — deep hash chains,
      THP off, large page tables — so memory latency dominates: the 1:1
      interleave lands in the paper's 1.2-1.5x slowdown band.
    * :meth:`vm` (§4.3): a 100 GB YCSB-C dataset where Redis processing
      dominates ("a latency penalty of 9-27 % which is less than the raw
      data fetching numbers ... due to the processing latency within
      Redis") and CXL-only costs ~12.5 % of throughput.
    """

    cpu_ns: float
    struct_accesses: int
    value_accesses: int

    def __post_init__(self) -> None:
        if self.cpu_ns < 0:
            raise ConfigurationError("cpu_ns must be >= 0")
        if self.struct_accesses < 0 or self.value_accesses < 0:
            raise ConfigurationError("access counts must be >= 0")

    @classmethod
    def capacity(cls) -> "ServiceProfile":
        """§4.1 profile: memory-latency-sensitive (512 GB working set)."""
        return cls(cpu_ns=2800.0, struct_accesses=11, value_accesses=11)

    @classmethod
    def vm(cls) -> "ServiceProfile":
        """§4.3 profile: Redis-processing-dominated (100 GB, YCSB-C)."""
        return cls(cpu_ns=12000.0, struct_accesses=6, value_accesses=6)


@dataclass
class AccessPlan:
    """What one operation will touch; priced by the server."""

    key: int
    is_write: bool
    value_page: Page
    struct_accesses: int
    value_accesses: int
    #: SSD read needed first (FLASH miss), bytes (0 = resident).
    ssd_read_bytes: int = 0
    #: SSD write needed (FLASH persistence path), bytes.
    ssd_write_bytes: int = 0
    #: Bytes of value moved through memory (for bandwidth accounting).
    value_bytes: int = 0


@dataclass
class BatchPlan:
    """What a batch of operations touches, op by op; priced by the server.

    Every operation makes the profile's struct and value accesses and
    moves one value; with a FLASH tier, every write also pays the
    persistence write.  Per-op arrays are in operation order.
    """

    #: The distinct pages the batch touches.
    pages: List[Page]
    #: Index into ``pages`` of each operation's value page.
    page_index: np.ndarray
    #: Whether each operation first reads its value from the SSD.
    ssd_read: np.ndarray


class KeyValueStore:
    """The store: key space, value pages, optional FLASH tier."""

    def __init__(
        self,
        space: AddressSpace,
        policy: MemPolicy,
        record_count: int,
        value_size: int = KIB,
        profile: Optional[ServiceProfile] = None,
        flash: Optional[FlashTier] = None,
    ) -> None:
        if record_count <= 0:
            raise ConfigurationError("record_count must be positive")
        if value_size <= 0:
            raise ConfigurationError("value_size must be positive")
        self.space = space
        self.policy = policy
        self.value_size = value_size
        if value_size <= space.page_size:
            # Several values per page (the paper's 1 KB / 4 KiB case).
            self.values_per_page = space.page_size // value_size
            self._pages_per_value = 1
        else:
            # Large values span whole pages (e.g. 64 KB blobs).
            self.values_per_page = 1
            self._pages_per_value = -(-value_size // space.page_size)
        self.profile = profile or ServiceProfile.capacity()
        self.flash = flash
        self.record_count = 0
        self.pages: List[Page] = []
        self._grow_to(record_count)

    # -- dataset management -----------------------------------------------

    def _pages_needed(self, records: int) -> int:
        if self._pages_per_value == 1:
            return -(-records // self.values_per_page)
        return records * self._pages_per_value

    def _grow_to(self, record_count: int) -> None:
        needed = self._pages_needed(record_count)
        if needed > len(self.pages):
            new = self.space.allocate_pages(needed - len(self.pages), self.policy)
            self.pages.extend(new)
        if self.flash is not None:
            for key in range(self.record_count, record_count):
                self.flash.register_value(key)
        self.record_count = max(self.record_count, record_count)

    def page_of(self, key: int) -> Page:
        """The (first) page holding ``key``'s value."""
        if not 0 <= key < self.record_count:
            raise KeyError(f"key {key} outside record space {self.record_count}")
        if self._pages_per_value == 1:
            return self.pages[key // self.values_per_page]
        return self.pages[key * self._pages_per_value]

    def pages_of(self, key: int) -> List[Page]:
        """All pages a value spans (one unless value_size > page_size)."""
        first = self.page_of(key)
        if self._pages_per_value == 1:
            return [first]
        start = key * self._pages_per_value
        return self.pages[start : start + self._pages_per_value]

    def dataset_bytes(self) -> int:
        """Logical dataset size (records x value size)."""
        return self.record_count * self.value_size

    # -- operations ----------------------------------------------------------

    def plan_get(self, key: int, now_ns: float) -> AccessPlan:
        """Plan a GET: struct walk + value fetch (+ FLASH read on miss)."""
        page = self.page_of(key)
        page.touch(now_ns, is_write=False)
        ssd_read = 0
        if self.flash is not None and self.flash.access(key):
            ssd_read = self.value_size
        return AccessPlan(
            key=key,
            is_write=False,
            value_page=page,
            struct_accesses=self.profile.struct_accesses,
            value_accesses=self.profile.value_accesses,
            ssd_read_bytes=ssd_read,
            value_bytes=self.value_size,
        )

    def plan_set(self, key: int, now_ns: float) -> AccessPlan:
        """Plan a SET/UPDATE (grows the space for inserts).

        With FLASH enabled, every write also goes to the persistence
        path ("all data is written to the disk", §4.1) — modeled as an
        amortized SSD write of the value.
        """
        if key >= self.record_count:
            self._grow_to(key + 1)
        page = self.page_of(key)
        page.touch(now_ns, is_write=True)
        ssd_read = 0
        ssd_write = 0
        if self.flash is not None:
            if self.flash.access(key):
                ssd_read = self.value_size  # read-modify-write fault
            ssd_write = self.value_size
        return AccessPlan(
            key=key,
            is_write=True,
            value_page=page,
            struct_accesses=self.profile.struct_accesses,
            value_accesses=self.profile.value_accesses,
            ssd_read_bytes=ssd_read,
            ssd_write_bytes=ssd_write,
            value_bytes=self.value_size,
        )

    def plan_batch(
        self, keys: np.ndarray, is_write: np.ndarray, now_ns: float
    ) -> BatchPlan:
        """Plan a batch of SETs (``is_write``) and GETs, in operation order.

        Leaves the store as :meth:`plan_set` and :meth:`plan_get` called
        op by op at ``now_ns`` do.  Page heat is updated once per touched
        page.  The FLASH LRU is walked op by op, because residency and
        churn draws depend on the ops before.  The walk also registers
        inserted values at their place in the order.
        """
        start = self.record_count
        grown = np.maximum.accumulate(
            np.where(is_write & (keys >= start), keys + 1, start)
        )
        before = np.concatenate(([start], grown[:-1]))
        outside = (keys < 0) | (~is_write & (keys >= before))
        if outside.any():
            key = int(keys[outside.argmax()])
            raise KeyError(f"key {key} outside record space")
        if self.flash is None:
            self._grow_to(int(grown[-1]) if len(keys) else start)
            ssd_read = np.zeros(len(keys), dtype=bool)
        else:
            access = self.flash.access
            misses = []
            for key, write in zip(keys.tolist(), is_write.tolist()):
                if write and key >= self.record_count:
                    self._grow_to(key + 1)
                misses.append(access(key))
            ssd_read = np.array(misses, dtype=bool)
        if self._pages_per_value == 1:
            index = keys // self.values_per_page
        else:
            index = keys * self._pages_per_value
        touches = np.bincount(index)
        writes = np.bincount(index[is_write], minlength=len(touches))
        distinct = np.flatnonzero(touches)
        pages = [self.pages[i] for i in distinct.tolist()]
        for page, count, written in zip(
            pages, touches[distinct].tolist(), writes[distinct].tolist()
        ):
            page.touch_many(now_ns, count, written)
        slot = np.empty(len(touches), dtype=np.intp)
        slot[distinct] = np.arange(len(distinct))
        return BatchPlan(pages, slot[index], ssd_read)

    # -- placement statistics -------------------------------------------------

    def node_mix(self) -> Dict[int, float]:
        """Fraction of value pages per node (shared-struct placement mix)."""
        if not self.pages:
            return {}
        counts: Dict[int, int] = {}
        for p in self.pages:
            counts[p.node_id] = counts.get(p.node_id, 0) + 1
        total = len(self.pages)
        return {node: c / total for node, c in counts.items()}

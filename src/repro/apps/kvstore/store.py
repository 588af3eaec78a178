"""A KeyDB-like in-memory key-value store over the simulated platform.

Reproduces the §4.1 system under test: a Redis-compatible store whose
values live on page-granular memory placed by a NUMA mempolicy, with an
optional FLASH tier (KeyDB FLASH / RocksDB over NVMe) for data beyond
``maxmemory``.

The simulation works at *operation* granularity.  Each GET/SET resolves
the key to its value page (:meth:`KeyValueStore.plan_op` returns the
page and the op's SSD bytes; :meth:`KeyValueStore.plan_batch` resolves
a whole epoch of them as arrays, a :class:`BatchPlan`).  An operation
touches:

* ``struct_accesses`` dependent accesses to shared server structures
  (hash table buckets, robj headers, event-loop state) whose placement
  follows the store's overall page mix;
* ``value_accesses`` dependent accesses to the key's own value page;
* optional SSD work when the value is not memory-resident (FLASH) or
  must be persisted (FLASH write path).

The server models price an operation with the current loaded latencies
through :meth:`ServiceProfile.service_ns`, plus any SSD time.
"""

from __future__ import annotations

import collections
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...errors import ConfigurationError
from ...mem.address_space import AddressSpace
from ...mem.page import Page, touch_pages
from ...mem.policy import MemPolicy
from ...units import KIB
from .flash import FlashTier

__all__ = ["ServiceProfile", "BatchPlan", "KeyValueStore"]


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

    def service_ns(self, struct_ns: float, value_ns: float) -> float:
        """Memory-resident service time of one op, without SSD work.

        CPU time, plus the struct walk at ``struct_ns`` per access, plus
        the value accesses at ``value_ns`` each, summed in that order.
        """
        return self.cpu_ns + self.struct_accesses * struct_ns + self.value_accesses * value_ns


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

    def _grow_pages_to(self, record_count: int) -> None:
        needed = self._pages_needed(record_count)
        if needed > len(self.pages):
            new = self.space.allocate_pages(needed - len(self.pages), self.policy)
            self.pages.extend(new)

    def _grow_to(self, record_count: int) -> None:
        self._grow_pages_to(record_count)
        if self.flash is not None:
            self.flash.register_values(range(self.record_count, record_count))
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

    def op_bytes(self) -> int:
        """Bytes one operation moves through memory.

        Its value, plus one 64-byte line per struct and value access.
        """
        profile = self.profile
        return self.value_size + 64 * (profile.struct_accesses + profile.value_accesses)

    # -- operations ----------------------------------------------------------

    def plan_op(
        self, key: int, is_write: bool, now_ns: float
    ) -> Tuple[Page, int, int]:
        """Resolve one GET or SET (``is_write``) of ``key`` at ``now_ns``.

        Returns ``(page, ssd_read_bytes, ssd_write_bytes)``: the value's
        page, touched at ``now_ns``, and the op's SSD work.  A SET past
        the record space grows it (an insert).  With FLASH enabled, a
        value that is not memory-resident is read from the SSD first
        (for a SET, a read-modify-write fault), and every write also
        goes to the persistence path ("all data is written to the
        disk", §4.1), modeled as an amortized SSD write of the value.
        """
        if is_write and key >= self.record_count:
            self._grow_to(key + 1)
        page = self.page_of(key)
        page.touch(now_ns, is_write=is_write)
        ssd_read = ssd_write = 0
        if self.flash is not None:
            if self.flash.access(key):
                ssd_read = self.value_size
            if is_write:
                ssd_write = self.value_size
        return page, ssd_read, ssd_write

    def plan_batch(
        self, keys: np.ndarray, is_write: np.ndarray, now_ns: float
    ) -> BatchPlan:
        """Plan a batch of SETs (``is_write``) and GETs, in operation order.

        Leaves the store as :meth:`plan_op` called op by op at
        ``now_ns`` does.  Page heat is updated in one call for
        every touched page.  The FLASH LRU is walked in one call too
        (:meth:`FlashTier.access_many`), which registers inserted values
        at their place in the order.
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
        end = int(grown[-1]) if len(keys) else start
        if self.flash is None:
            self._grow_to(end)
            ssd_read = np.zeros(len(keys), dtype=bool)
        else:
            self._grow_pages_to(end)
            inserts = np.flatnonzero(grown > before)
            ssd_read = self.flash.access_many(keys.tolist(), [
                (i, range(first, stop)) for i, first, stop in zip(
                    inserts.tolist(), before[inserts].tolist(),
                    grown[inserts].tolist(),
                )
            ])
            self.record_count = end
        if self._pages_per_value == 1:
            index = keys // self.values_per_page
        else:
            index = keys * self._pages_per_value
        touches = np.bincount(index)
        writes = np.bincount(index[is_write], minlength=len(touches))
        distinct = np.flatnonzero(touches)
        pages = [self.pages[i] for i in distinct.tolist()]
        touch_pages(
            pages, now_ns, touches[distinct].tolist(), writes[distinct].tolist()
        )
        slot = np.empty(len(touches), dtype=np.intp)
        slot[distinct] = np.arange(len(distinct))
        return BatchPlan(pages, slot[index], ssd_read)

    # -- placement statistics -------------------------------------------------

    def node_mix(self) -> Dict[int, float]:
        """Fraction of value pages per node (shared-struct placement mix)."""
        if not self.pages:
            return {}
        counts = collections.Counter(map(operator.attrgetter("node_id"), self.pages))
        total = len(self.pages)
        return {node: c / total for node, c in counts.items()}

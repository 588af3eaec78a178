"""The FLASH tier: KeyDB's RocksDB-backed spillover to NVMe (§4.1).

KeyDB FLASH keeps *all* data persisted on disk and caches hot values in
memory up to ``maxmemory``.  The model tracks value residency with an
LRU keyed by record id: an access to a non-resident value faults it in
from the SSD (evicting the LRU value), and — because the paper disables
compression but not persistence — every write additionally pays an
amortized SSD write (group-committed WAL append plus its share of
memtable flush and compaction).

A perfectly sharp per-key LRU under a Zipfian workload would almost
never miss (§4.1.2 notes the Zipfian working set "is largely cached in
MMEM"), yet the paper still measures ≈1.8x; the gap is RocksDB reality:
block-granular caching, compaction invalidations, and read-path index /
filter misses.  ``cache_inefficiency`` models that churn as a residual
miss probability proportional to the spilled fraction.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...errors import ConfigurationError
from ...hw.device import SsdDevice

__all__ = [
    "CACHE_INEFFICIENCY",
    "OS_CACHE_HIT_RATE",
    "PAGE_CACHE_HIT_NS",
    "WRITE_AMORTIZATION",
    "FlashTier",
]

#: Residual miss probability per unit of spilled fraction (the RocksDB
#: churn described above).
CACHE_INEFFICIENCY = 0.10

#: Share of each SSD value write that every SET pays (group commit plus
#: its share of flush and compaction).
WRITE_AMORTIZATION = 0.10

#: Share of faults the OS page cache serves without a device access.
OS_CACHE_HIT_RATE = 0.45

#: Service time of a fault satisfied by the OS page cache (memcpy +
#: syscall, no device access).
PAGE_CACHE_HIT_NS = 5_000.0


class FlashTier:
    """LRU value-residency model over an SSD device."""

    def __init__(
        self,
        ssd: SsdDevice,
        resident_values: int,
        value_size: int,
        cache_inefficiency: float = CACHE_INEFFICIENCY,
        write_amortization: float = WRITE_AMORTIZATION,
        os_cache_hit_rate: float = OS_CACHE_HIT_RATE,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if resident_values <= 0:
            raise ConfigurationError("resident_values must be positive")
        if value_size <= 0:
            raise ConfigurationError("value_size must be positive")
        if not 0.0 <= cache_inefficiency <= 1.0:
            raise ConfigurationError("cache_inefficiency must be in [0, 1]")
        if not 0.0 < write_amortization <= 1.0:
            raise ConfigurationError("write_amortization must be in (0, 1]")
        if not 0.0 <= os_cache_hit_rate < 1.0:
            raise ConfigurationError("os_cache_hit_rate must be in [0, 1)")
        self.os_cache_hit_rate = os_cache_hit_rate
        self.ssd = ssd
        self.capacity_values = resident_values
        self.value_size = value_size
        self.cache_inefficiency = cache_inefficiency
        self.write_amortization = write_amortization
        self._rng = rng or np.random.default_rng(0)
        self._resident: "OrderedDict[int, None]" = OrderedDict()
        self.total_values = 0
        self.faults = 0
        self.evictions = 0
        self.hits = 0

    # -- registration -----------------------------------------------------

    def register_value(self, key: int) -> None:
        """A record exists in the store.

        New writes land in the memtable, so a freshly inserted value is
        always memory-resident — at capacity it displaces the LRU value
        (which remains on disk), matching RocksDB's write path.
        """
        self.total_values += 1
        if len(self._resident) >= self.capacity_values:
            self._resident.popitem(last=False)
            self.evictions += 1
        self._resident[key] = None

    def register_values(self, keys: range) -> None:
        """:meth:`register_value` for each of ``keys``, in order.

        None of ``keys`` may be registered yet.  The values that the
        per-key calls would insert and then evict again are never
        inserted: the LRU order and ``evictions`` end where the per-key
        calls leave them.
        """
        resident = self._resident
        self.total_values += len(keys)
        overflow = len(resident) + len(keys) - self.capacity_values
        if overflow > 0:
            # The first ``overflow`` values of the LRU order, then of
            # ``keys``, are evicted.
            self.evictions += overflow
            old = min(overflow, len(resident))
            for _ in range(old):
                resident.popitem(last=False)
            keys = keys[overflow - old:]
        for key in keys:
            resident[key] = None

    @property
    def spilled_fraction(self) -> float:
        """Fraction of the dataset that does not fit in memory."""
        if self.total_values == 0:
            return 0.0
        return max(0.0, 1.0 - self.capacity_values / self.total_values)

    # -- residency ----------------------------------------------------------

    def is_resident(self, key: int) -> bool:
        """Whether an access to this value hits memory.

        Even a tracked-resident value misses with probability
        ``cache_inefficiency * spilled_fraction`` (compaction and block
        churn); a value absent from the LRU always misses.
        """
        if key not in self._resident:
            return False
        churn = self.cache_inefficiency * self.spilled_fraction
        if churn > 0.0 and self._rng.random() < churn:
            return False
        return True

    def note_use(self, key: int) -> None:
        """Refresh LRU position on a hit."""
        if key in self._resident:
            self._resident.move_to_end(key)
            self.hits += 1

    def access(self, key: int) -> bool:
        """Serve one access to ``key``; True when it reads the SSD.

        A resident value refreshes its LRU position; a miss faults the
        value in, evicting the LRU value if the cache is full.
        """
        if self.is_resident(key):
            self.note_use(key)
            return False
        self.fault_in(key)
        return True

    def fault_in(self, key: int) -> None:
        """Bring a value into the resident set, evicting LRU if needed."""
        self.faults += 1
        if key in self._resident:
            self._resident.move_to_end(key)
            return
        if len(self._resident) >= self.capacity_values:
            self._resident.popitem(last=False)
            self.evictions += 1
        self._resident[key] = None

    def access_many(
        self, keys: List[int], inserts: Sequence[Tuple[int, range]] = ()
    ) -> np.ndarray:
        """Serve ``keys`` in order; True where an access reads the SSD.

        Leaves the tier, its counters and its rng as :meth:`access`
        called key by key does, with :meth:`register_values` of ``new``
        just before the access ``keys[i]`` for each ``(i, new)`` of
        ``inserts`` (in ascending ``i``).

        The LRU walk stays per access, because residency depends on the
        accesses before.  But a resident value moves to the LRU end
        whether its churn draw hits or misses, so the walk never reads
        the draws: they are drawn after it, one per resident access, as
        one block (PCG64's ``random(k)`` returns the variates ``k``
        scalar calls return).
        """
        resident = self._resident
        capacity = self.capacity_values
        faulted: List[int] = []  # accesses of values not resident
        drawn: List[int] = []  # resident accesses that draw for churn
        stretches: List[Tuple[int, float]] = []  # (draws, churn) per stretch
        evictions = 0
        start = 0
        for stop, new in [*inserts, (len(keys), range(0))]:
            churn = self.cache_inefficiency * self.spilled_fraction
            found: List[int] = []
            for i, key in enumerate(keys[start:stop], start):
                if key in resident:
                    resident.move_to_end(key)
                    found.append(i)
                else:
                    if len(resident) >= capacity:
                        resident.popitem(last=False)
                        evictions += 1
                    resident[key] = None
                    faulted.append(i)
            if churn > 0.0:
                stretches.append((len(found), churn))
                drawn += found
            else:
                self.hits += len(found)
            self.register_values(new)
            start = stop
        self.evictions += evictions
        read = np.zeros(len(keys), dtype=bool)
        read[faulted] = True
        churned = 0
        if drawn:
            counts, churns = zip(*stretches)
            missed = self._rng.random(len(drawn)) < np.repeat(churns, counts)
            read[np.array(drawn)[missed]] = True
            churned = int(np.count_nonzero(missed))
        self.faults += len(faulted) + churned
        self.hits += len(drawn) - churned
        return read

    # -- costing ---------------------------------------------------------------

    def read_time_ns(self, nbytes: int, utilization: float = 0.0) -> float:
        """Service time of a fault read of ``nbytes``."""
        return float(self.read_times_ns(1, nbytes, utilization)[0])

    def read_times_ns(
        self, count: int, nbytes: int, utilization: float = 0.0
    ) -> np.ndarray:
        """Service times of ``count`` fault reads of ``nbytes``, in order.

        A share of faults (``os_cache_hit_rate``) is satisfied by the OS
        page cache — RocksDB's uncompressed SSTs double-buffer in page
        cache, so a fault often avoids the device entirely.  Each read
        draws one variate, so ``count`` reads at once equal ``count``
        reads one at a time.
        """
        if self.os_cache_hit_rate > 0.0:
            hit = self._rng.random(count) < self.os_cache_hit_rate
        else:
            hit = np.zeros(count, dtype=bool)
        device = self.ssd.access_time_ns(
            nbytes, is_write=False, utilization=utilization,
            count=count - int(np.count_nonzero(hit)),
        )
        return np.where(hit, PAGE_CACHE_HIT_NS, device)

    def write_time_ns(
        self, nbytes: int, utilization: float = 0.0, count: int = 1
    ) -> float:
        """Amortized persistence write (WAL group commit share).

        The device accounts ``count`` such writes.
        """
        raw = self.ssd.access_time_ns(
            nbytes, is_write=True, utilization=utilization, count=count
        )
        return raw * self.write_amortization

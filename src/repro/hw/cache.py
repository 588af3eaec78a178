"""CPU cache hierarchy: where the memory system's latency starts.

The paper's 97 ns / 250 ns figures are *memory* latencies — what a load
pays after missing the whole cache hierarchy.  Application models in
:mod:`repro.apps` fold cache behaviour into their calibrated per-op
constants; this module makes the hierarchy explicit for studies that
need it (working-set sweeps, AMAT analysis, MLC-style buffer-size
ramps):

* :class:`CacheLevel` — capacity + access latency;
* :class:`CacheHierarchy` — LRU simulation of a
  :class:`~repro.workloads.trace.PageTrace` through the levels, and the
  resulting average memory access time (AMAT) against any backing
  memory path.

The Sapphire Rapids preset mirrors the testbed CPU: 48 KiB L1D / 2 MiB
L2 per core, 105 MiB shared L3.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..errors import ConfigurationError
from ..units import KIB, MIB

if TYPE_CHECKING:
    from ..workloads.trace import PageTrace

__all__ = ["CacheLevel", "CacheHierarchy", "sapphire_rapids_caches"]


@dataclass(frozen=True)
class CacheLevel:
    """One cache level."""

    name: str
    capacity_bytes: int
    latency_ns: float

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("cache capacity must be positive")
        if self.latency_ns <= 0:
            raise ConfigurationError("cache latency must be positive")


def sapphire_rapids_caches() -> Tuple[CacheLevel, ...]:
    """The testbed CPU's per-core L1/L2 and shared L3."""
    return (
        CacheLevel("L1D", 48 * KIB, 1.1),
        CacheLevel("L2", 2 * MIB, 4.4),
        CacheLevel("L3", 105 * MIB, 21.0),
    )


class CacheHierarchy:
    """LRU inclusion-agnostic hierarchy simulation over page traces.

    Accesses are tracked at ``granule_bytes`` granularity (default one
    page, matching :class:`~repro.workloads.trace.PageTrace`; pass 64
    for cacheline-granular traces).  Levels are probed outside-in; a
    miss everywhere costs the backing memory latency.
    """

    def __init__(
        self,
        levels: Sequence[CacheLevel] = None,
        granule_bytes: int = 4096,
    ) -> None:
        self.levels = tuple(levels if levels is not None else sapphire_rapids_caches())
        if not self.levels:
            raise ConfigurationError("hierarchy needs at least one level")
        caps = [level.capacity_bytes for level in self.levels]
        if caps != sorted(caps):
            raise ConfigurationError("levels must grow outward (L1 smallest)")
        if granule_bytes <= 0:
            raise ConfigurationError("granule must be positive")
        self.granule_bytes = granule_bytes

    def simulate(
        self, trace: PageTrace, memory_latency_ns: float
    ) -> "CacheSimResult":
        """Run the trace; returns hit counts per level and the AMAT."""
        if memory_latency_ns <= 0:
            raise ConfigurationError("memory latency must be positive")
        lines_per_level = [
            max(1, level.capacity_bytes // self.granule_bytes)
            for level in self.levels
        ]
        lru: List[OrderedDict] = [OrderedDict() for _ in self.levels]
        hits = [0 for _ in self.levels]
        misses = 0
        total_ns = 0.0
        for page in trace.pages:
            key = int(page)
            hit_level = None
            for i, cache in enumerate(lru):
                if key in cache:
                    hit_level = i
                    break
            if hit_level is None:
                misses += 1
                total_ns += memory_latency_ns
            else:
                hits[hit_level] += 1
                total_ns += self.levels[hit_level].latency_ns
            # Fill/refresh the line in every level (simple inclusive LRU).
            for i, cache in enumerate(lru):
                if key in cache:
                    cache.move_to_end(key)
                else:
                    if len(cache) >= lines_per_level[i]:
                        cache.popitem(last=False)
                    cache[key] = None
        return CacheSimResult(
            level_names=tuple(level.name for level in self.levels),
            hits=tuple(hits),
            misses=misses,
            accesses=len(trace),
            amat_ns=total_ns / len(trace),
        )


@dataclass(frozen=True)
class CacheSimResult:
    """Outcome of one hierarchy simulation."""

    level_names: Tuple[str, ...]
    hits: Tuple[int, ...]
    misses: int
    accesses: int
    amat_ns: float

    def hit_rate(self, level: str) -> float:
        """Hit rate of one named level (of all accesses)."""
        try:
            index = self.level_names.index(level)
        except ValueError:
            raise ConfigurationError(f"unknown cache level {level!r}") from None
        return self.hits[index] / self.accesses

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that reached memory."""
        return self.misses / self.accesses

    def as_dict(self) -> Dict[str, float]:
        """Summary dict (for rendering)."""
        out = {f"hit_{n}": self.hits[i] / self.accesses
               for i, n in enumerate(self.level_names)}
        out["miss"] = self.miss_rate
        out["amat_ns"] = self.amat_ns
        return out

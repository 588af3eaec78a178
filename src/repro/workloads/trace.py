"""Page-granular access traces: generate, combine, inspect.

The application models in :mod:`repro.apps` are purpose-built for the
paper's three studies; a :class:`PageTrace` is the generic alternative
for §7.2's "wide array of data-center tasks" (graph analytics,
genomics, ...): any access pattern expressed as a sequence of
``(page, is_write)`` events, replayable against the platform by
:mod:`repro.apps.replay`.

Generators cover the standard shapes: sequential scans, strided walks,
uniform random, Zipfian, and graph-walk-like traversals (random
neighborhoods with power-law reuse — the §7.2 GNN motif).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError
from .distributions import ScrambledZipfianChooser

__all__ = ["PageTrace", "sequential_trace", "strided_trace", "uniform_trace",
           "zipfian_trace", "graph_walk_trace"]


@dataclass(frozen=True)
class PageTrace:
    """A replayable access trace over ``page_count`` pages."""

    pages: np.ndarray  # int64 page indices
    writes: np.ndarray  # bool per access
    page_count: int

    def __post_init__(self) -> None:
        if self.page_count <= 0:
            raise WorkloadError("page_count must be positive")
        if self.pages.shape != self.writes.shape:
            raise WorkloadError("pages and writes must align")
        if len(self.pages) == 0:
            raise WorkloadError("a trace needs at least one access")
        if self.pages.min() < 0 or self.pages.max() >= self.page_count:
            raise WorkloadError("page indices out of range")

    def __len__(self) -> int:
        return len(self.pages)

    @property
    def write_fraction(self) -> float:
        """Share of accesses that write."""
        return float(self.writes.mean())

    @property
    def footprint_pages(self) -> int:
        """Distinct pages touched."""
        return int(np.unique(self.pages).size)

    def reuse_factor(self) -> float:
        """Accesses per distinct page — a crude locality measure."""
        return len(self) / self.footprint_pages

    def concat(self, other: "PageTrace") -> "PageTrace":
        """Append another trace over the same page space."""
        if other.page_count != self.page_count:
            raise WorkloadError("traces cover different page spaces")
        return PageTrace(
            np.concatenate([self.pages, other.pages]),
            np.concatenate([self.writes, other.writes]),
            self.page_count,
        )

    def interleave(self, other: "PageTrace") -> "PageTrace":
        """Round-robin merge with another trace (two concurrent actors)."""
        if other.page_count != self.page_count:
            raise WorkloadError("traces cover different page spaces")
        n = min(len(self), len(other))
        pages = np.empty(2 * n, dtype=np.int64)
        writes = np.empty(2 * n, dtype=bool)
        pages[0::2], pages[1::2] = self.pages[:n], other.pages[:n]
        writes[0::2], writes[1::2] = self.writes[:n], other.writes[:n]
        return PageTrace(pages, writes, self.page_count)


def _writes(rng: np.random.Generator, n: int, write_fraction: float) -> np.ndarray:
    if not 0.0 <= write_fraction <= 1.0:
        raise WorkloadError("write_fraction must be in [0, 1]")
    return rng.random(n) < write_fraction


def sequential_trace(
    page_count: int, accesses: int, write_fraction: float = 0.0,
    rng: np.random.Generator = None,
) -> PageTrace:
    """A streaming scan wrapping around the page space."""
    if accesses <= 0:
        raise WorkloadError("accesses must be positive")
    rng = rng or np.random.default_rng(0)
    pages = np.arange(accesses, dtype=np.int64) % page_count
    return PageTrace(pages, _writes(rng, accesses, write_fraction), page_count)


def strided_trace(
    page_count: int, accesses: int, stride: int, write_fraction: float = 0.0,
    rng: np.random.Generator = None,
) -> PageTrace:
    """A constant-stride walk (column scans, tensor slices)."""
    if stride <= 0:
        raise WorkloadError("stride must be positive")
    rng = rng or np.random.default_rng(0)
    pages = (np.arange(accesses, dtype=np.int64) * stride) % page_count
    return PageTrace(pages, _writes(rng, accesses, write_fraction), page_count)


def uniform_trace(
    page_count: int, accesses: int, write_fraction: float = 0.0,
    rng: np.random.Generator = None,
) -> PageTrace:
    """Uniform random accesses (hash tables with no skew)."""
    rng = rng or np.random.default_rng(0)
    pages = rng.integers(0, page_count, size=accesses, dtype=np.int64)
    return PageTrace(pages, _writes(rng, accesses, write_fraction), page_count)


def zipfian_trace(
    page_count: int, accesses: int, write_fraction: float = 0.0,
    rng: np.random.Generator = None, theta: float = 0.99,
) -> PageTrace:
    """Zipfian-popular pages, scattered over the space (KV-store-like)."""
    rng = rng or np.random.default_rng(0)
    chooser = ScrambledZipfianChooser(page_count, theta=theta)
    pages = chooser.keys(rng.random(accesses))
    return PageTrace(pages, _writes(rng, accesses, write_fraction), page_count)


def graph_walk_trace(
    page_count: int, accesses: int, write_fraction: float = 0.0,
    rng: np.random.Generator = None, neighborhood: int = 64,
    jump_probability: float = 0.15,
) -> PageTrace:
    """Random-walk-with-restart over pages (§7.2's GNN/graph motif).

    Walks locally within a ``neighborhood`` of the current page and
    teleports uniformly with ``jump_probability`` — producing the mix of
    short-range reuse and irregular long jumps that makes graph
    processing capacity- *and* latency-hungry.
    """
    if not 0.0 <= jump_probability <= 1.0:
        raise WorkloadError("jump_probability must be in [0, 1]")
    if neighborhood <= 0:
        raise WorkloadError("neighborhood must be positive")
    rng = rng or np.random.default_rng(0)
    pages = np.empty(accesses, dtype=np.int64)
    current = int(rng.integers(0, page_count))
    jumps = rng.random(accesses) < jump_probability
    offsets = rng.integers(-neighborhood, neighborhood + 1, size=accesses)
    teleports = rng.integers(0, page_count, size=accesses)
    for i in range(accesses):
        if jumps[i]:
            current = int(teleports[i])
        else:
            current = int((current + offsets[i]) % page_count)
        pages[i] = current
    return PageTrace(pages, _writes(rng, accesses, write_fraction), page_count)

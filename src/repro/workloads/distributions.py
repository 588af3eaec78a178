"""Key-choosing distributions for the YCSB-style workloads.

The paper's KeyDB experiments (§4.1.1) use the YCSB defaults: a
*Zipfian* chooser for workloads A-C (a small set of keys receives most
of the traffic — this is what lets Hot-Promote shine) and the *latest*
chooser for workload D (recently inserted keys are hottest).  A uniform
chooser is included because §4.1.2 explicitly reasons about it ("if the
keys were distributed uniformly, we anticipate worse performance").

The Zipfian implementation follows the YCSB/Gray et al. rejection-free
algorithm with key scrambling, so hot keys are spread across the key
space rather than clustered at low ids — exactly the property that
matters for page-granular placement studies.

Every chooser maps one uniform variate in ``[0, 1)`` to one key, so a
block of variates drawn at once (:meth:`KeyChooser.keys`) yields the
same keys as drawing them one at a time (:meth:`KeyChooser.next_key`).
"""

from __future__ import annotations

import abc
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Optional, Tuple, Union

import numpy as np

from ..errors import WorkloadError

__all__ = [
    "KeyChooser",
    "UniformChooser",
    "ZipfianChooser",
    "ScrambledZipfianChooser",
    "LatestChooser",
    "fnv_scramble",
    "zeta",
]

Counts = Union[int, np.ndarray]

#: Key-space sizes up to this many keys get an exact ``zeta``; larger
#: ones add an Euler-Maclaurin tail to the exact head.
_EXACT_ZETA_TERMS = 10_000


@lru_cache(maxsize=16)
def _zeta_prefix(theta: float) -> np.ndarray:
    """``zeta(n)`` for ``n = 1 .. 10 000``: running sums of ``1 / i**theta``.

    The terms are added in order, one at a time, so ``zeta`` is the same
    float on every interpreter and growing the key space by one key is a
    table lookup instead of a fresh summation.
    """
    terms = (1.0 / (i**theta) for i in range(1, _EXACT_ZETA_TERMS + 1))
    prefix = np.fromiter(accumulate(terms), dtype=np.float64, count=_EXACT_ZETA_TERMS)
    prefix.setflags(write=False)
    return prefix


def zeta(n: int, theta: float) -> float:
    """The generalized harmonic number ``sum(1 / i**theta, i = 1 .. n)``.

    Exact for ``n <= 10 000``; beyond that the exact head plus an
    Euler-Maclaurin tail, so the cost is O(1) for any key-space size.
    """
    prefix = _zeta_prefix(theta)
    if n <= _EXACT_ZETA_TERMS:
        return float(prefix[n - 1])
    s = 1.0 - theta
    return float(prefix[-1]) + (n**s - _EXACT_ZETA_TERMS**s) / s


_FNV_PRIME = np.uint64(0x100000001B3)
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)


def fnv_scramble(values: np.ndarray) -> np.ndarray:
    """FNV-1a over the 8 little-endian bytes of each value, as ``uint64``.

    YCSB's rank scramble; unsigned 64-bit products wrap exactly as the
    masked integer arithmetic of the reference algorithm does.
    """
    v = np.asarray(values).astype(np.uint64)
    h = np.full(v.shape, _FNV_OFFSET, dtype=np.uint64)
    mask = np.uint64(0xFF)
    shift = np.uint64(8)
    with np.errstate(over="ignore"):
        for _ in range(8):
            h = (h ^ (v & mask)) * _FNV_PRIME
            v = v >> shift
    return h


class KeyChooser(abc.ABC):
    """Chooses keys in ``[0, item_count)`` with some popularity skew."""

    def __init__(self, item_count: int) -> None:
        if item_count <= 0:
            raise WorkloadError("item_count must be positive")
        self.item_count = item_count

    def keys(self, u: np.ndarray, counts: Optional[Counts] = None) -> np.ndarray:
        """The key each uniform variate in ``u`` selects, as ``int64``.

        ``counts`` is the key-space size in force at each draw (an array
        aligned with ``u``, or one size for all); it defaults to the
        current ``item_count``.
        """
        counts = self.item_count if counts is None else counts
        return self._keys(
            np.asarray(u, dtype=np.float64), np.asarray(counts, dtype=np.int64)
        )

    @abc.abstractmethod
    def _keys(self, u: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Vectorized key selection; see :meth:`keys`."""

    def next_key(self, rng: np.random.Generator) -> int:
        """Draw one key (consumes one uniform variate of ``rng``)."""
        return int(self.keys(np.array([rng.random()]))[0])

    def grow(self, new_count: int) -> None:
        """Extend the key space (after inserts).  Default: just widen."""
        if new_count < self.item_count:
            raise WorkloadError("key space cannot shrink")
        self.item_count = new_count


class UniformChooser(KeyChooser):
    """Every key equally likely."""

    def _keys(self, u: np.ndarray, counts: np.ndarray) -> np.ndarray:
        return np.minimum((u * counts).astype(np.int64), counts - 1)


class ZipfianChooser(KeyChooser):
    """Zipfian distribution over keys, YCSB's default skew (theta=0.99).

    Uses the Gray et al. analytic inverse method; the ``zeta`` constants
    cost O(1) per key-space size (see :func:`zeta`).
    """

    def __init__(self, item_count: int, theta: float = 0.99) -> None:
        super().__init__(item_count)
        if not 0.0 < theta < 1.0:
            raise WorkloadError("theta must be in (0, 1)")
        self.theta = theta
        self.zeta2 = zeta(2, theta)
        self.alpha = 1.0 / (1.0 - theta)
        self._recompute()

    def _constants(self, n: int) -> Tuple[float, float]:
        """``(zetan, eta)`` of the inverse method over ``n`` keys."""
        zetan = zeta(n, self.theta)
        eta = (1.0 - (2.0 / n) ** (1.0 - self.theta)) / (1.0 - self.zeta2 / zetan)
        return zetan, eta

    def _recompute(self) -> None:
        self.zetan, self.eta = self._constants(self.item_count)

    def grow(self, new_count: int) -> None:
        super().grow(new_count)
        self._recompute()

    def _keys(self, u: np.ndarray, counts: np.ndarray) -> np.ndarray:
        if counts.ndim == 0:
            zetan, eta = self._constants(int(counts))
        else:
            sizes, at = np.unique(counts, return_inverse=True)
            zetan, eta = (
                np.array(c)[at] for c in zip(*map(self._constants, sizes.tolist()))
            )
        uz = u * zetan
        # Ranks 0 and 1 are the inverse method's two explicit branches.
        ranks = (uz >= 1.0).astype(np.int64)
        tail = uz >= 1.0 + 0.5**self.theta
        if tail.any():
            eta_t = eta[tail] if np.ndim(eta) else eta
            n_t = counts[tail] if counts.ndim else counts
            # Python's float power (C ``pow``) per variate: numpy's
            # vectorized power may differ in the last bit, and that bit
            # can move the truncated rank.
            base = (eta_t * u[tail] - eta_t + 1.0).tolist()
            powered = np.fromiter(
                map(pow, base, repeat(self.alpha)), dtype=np.float64, count=len(base)
            )
            ranks[tail] = np.minimum((n_t * powered).astype(np.int64), n_t - 1)
        return ranks


class ScrambledZipfianChooser(ZipfianChooser):
    """Zipfian popularity with hot keys scattered over the key space.

    YCSB scrambles the Zipfian rank with a hash so that popular keys are
    not adjacent — without this, the "hot set" would be one contiguous
    page run and the tiering results would be unrealistically easy.
    """

    def _keys(self, u: np.ndarray, counts: np.ndarray) -> np.ndarray:
        ranks = super()._keys(u, counts)
        return (fnv_scramble(ranks) % counts.astype(np.uint64)).astype(np.int64)


class LatestChooser(KeyChooser):
    """YCSB's 'latest' distribution: recently inserted keys are hottest.

    Used by workload D (§4.1.1).  A Zipfian draw is taken over recency
    rank: rank 0 is the newest key.
    """

    def __init__(self, item_count: int, theta: float = 0.99) -> None:
        super().__init__(item_count)
        self._zipf = ZipfianChooser(item_count, theta)

    def _keys(self, u: np.ndarray, counts: np.ndarray) -> np.ndarray:
        return counts - 1 - self._zipf._keys(u, counts)

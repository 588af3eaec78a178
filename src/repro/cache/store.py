"""The on-disk, content-addressed store for sweep point results.

Layout: one file per point under ``<root>/<fp[:2]>/<fp>.rsc`` where
``fp`` is the point's :func:`~repro.cache.fingerprint.point_fingerprint`.
Each file is::

    b"RSC1" | sha256(payload) (32 bytes) | payload (pickle)

The embedded digest makes corruption *detectable*: a truncated,
bit-flipped or half-written file fails verification and
:meth:`SweepCache.lookup` demotes it to a miss (deleting the carcass)
instead of crashing the sweep.  Entries are written to a unique
temporary file in the same directory and published with
:func:`os.replace`, so concurrent writers — pool workers, two sweeps
racing on the same grid — can only ever leave a complete entry behind;
the last writer wins and both wrote identical bytes anyway (the store
is content-addressed).

Capacity is bounded by a size cap (``max_bytes``, default 1 GiB,
``$REPRO_CACHE_MAX_BYTES`` overrides): after every store the least
recently *used* entries are evicted until the cache fits.  A lookup hit
refreshes its entry's mtime, so hot figure grids survive while
abandoned experiments age out.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, List, Mapping, Optional, Tuple

from ..errors import ConfigurationError
from .fingerprint import point_fingerprint, task_name

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_MAX_BYTES_ENV",
    "DEFAULT_MAX_BYTES",
    "CacheEntry",
    "CacheStats",
    "EntryInfo",
    "SweepCache",
    "VerifyReport",
    "default_cache_dir",
]

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable overriding the size cap (bytes).
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: Default size cap: 1 GiB.
DEFAULT_MAX_BYTES = 1 << 30

_MAGIC = b"RSC1"
_DIGEST_LEN = 32
_SUFFIX = ".rsc"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME``/repro/sweeps."""
    override = os.environ.get(CACHE_DIR_ENV, "").strip()
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME", "").strip() or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro", "sweeps")


def _default_max_bytes() -> int:
    raw = os.environ.get(CACHE_MAX_BYTES_ENV, "").strip()
    if not raw:
        return DEFAULT_MAX_BYTES
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"{CACHE_MAX_BYTES_ENV} must be an integer byte count, got {raw!r}"
        ) from exc
    if value < 1:
        raise ConfigurationError(
            f"{CACHE_MAX_BYTES_ENV} must be positive, got {value}"
        )
    return value


@dataclass
class CacheStats:
    """Monotonic counters of one cache's activity (process-local)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    store_failures: int = 0
    evictions: int = 0
    corrupted: int = 0
    #: Points served from cache by a run that also executed points —
    #: i.e. an interrupted or extended sweep picking up where it left
    #: off.  Set by the runner, not the store.
    resumed: int = 0

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counter increments between two snapshots of the same cache."""
        return CacheStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            stores=self.stores - since.stores,
            store_failures=self.store_failures - since.store_failures,
            evictions=self.evictions - since.evictions,
            corrupted=self.corrupted - since.corrupted,
            resumed=self.resumed - since.resumed,
        )

    def snapshot(self) -> "CacheStats":
        """An independent copy (for before/after deltas)."""
        return replace(self)

    def as_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "store_failures": self.store_failures,
            "evictions": self.evictions,
            "corrupted": self.corrupted,
            "resumed": self.resumed,
        }


@dataclass(frozen=True)
class CacheEntry:
    """One deserialized cache hit."""

    fingerprint: str
    task: str
    key: str
    seed: int
    elapsed_s: float
    value: Any


@dataclass(frozen=True)
class EntryInfo:
    """On-disk metadata of one entry (no deserialization)."""

    path: str
    fingerprint: str
    size: int
    mtime: float


@dataclass
class VerifyReport:
    """Outcome of a full-store integrity scan."""

    checked: int = 0
    bad: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.bad


class SweepCache:
    """A content-addressed result store rooted at one directory."""

    def __init__(
        self,
        root: Optional[str] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.root = os.path.abspath(root if root is not None else default_cache_dir())
        self.max_bytes = max_bytes if max_bytes is not None else _default_max_bytes()
        if self.max_bytes < 1:
            raise ConfigurationError(
                f"cache max_bytes must be positive, got {self.max_bytes}"
            )
        self.stats = CacheStats()
        os.makedirs(self.root, exist_ok=True)

    # -- addressing ---------------------------------------------------------

    def key_for(
        self, task: Callable[..., Any], params: Mapping[str, Any], seed: int
    ) -> str:
        """The fingerprint of one (task, params, seed) point."""
        return point_fingerprint(task_name(task), params, seed)

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.root, fingerprint[:2], fingerprint + _SUFFIX)

    # -- read ---------------------------------------------------------------

    def _read_entry(self, path: str, fingerprint: str) -> CacheEntry:
        """Read and verify one entry; raises on any corruption."""
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[: len(_MAGIC)] != _MAGIC:
            raise ValueError("bad magic")
        digest = blob[len(_MAGIC): len(_MAGIC) + _DIGEST_LEN]
        payload = blob[len(_MAGIC) + _DIGEST_LEN:]
        if len(digest) != _DIGEST_LEN or hashlib.sha256(payload).digest() != digest:
            raise ValueError("payload digest mismatch (truncated or corrupted)")
        record = pickle.loads(payload)
        if record.get("fingerprint") != fingerprint:
            raise ValueError("entry fingerprint does not match its address")
        return CacheEntry(
            fingerprint=fingerprint,
            task=record["task"],
            key=record["key"],
            seed=record["seed"],
            elapsed_s=record["elapsed_s"],
            value=record["value"],
        )

    def lookup(self, fingerprint: str) -> Optional[CacheEntry]:
        """The entry at ``fingerprint``, or ``None`` (a miss).

        A corrupted entry counts as a miss: it is deleted best-effort
        and ``stats.corrupted`` is incremented — the sweep recomputes
        and re-stores the point rather than crashing.
        """
        path = self._path(fingerprint)
        try:
            entry = self._read_entry(path, fingerprint)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            self.stats.corrupted += 1
            self.stats.misses += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self.stats.hits += 1
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        return entry

    # -- write --------------------------------------------------------------

    def put(
        self,
        fingerprint: str,
        value: Any,
        key: str,
        task: str,
        seed: int,
        elapsed_s: float = 0.0,
    ) -> bool:
        """Persist one point's value; returns False if it won't pickle.

        The entry is written to a unique sibling temp file and published
        atomically with :func:`os.replace` — a reader (or a concurrent
        writer of the same fingerprint) can never observe a partial
        entry.
        """
        record = {
            "fingerprint": fingerprint,
            "task": task,
            "key": key,
            "seed": int(seed),
            "elapsed_s": float(elapsed_s),
            "value": value,
        }
        try:
            payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self.stats.store_failures += 1
            return False
        blob = _MAGIC + hashlib.sha256(payload).digest() + payload
        path = self._path(fingerprint)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=fingerprint[:8] + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            self.stats.store_failures += 1
            try:
                os.remove(tmp)
            except OSError:
                pass
            return False
        self.stats.stores += 1
        self._evict(keep=fingerprint)
        return True

    def _evict(self, keep: Optional[str] = None) -> None:
        """Drop least-recently-used entries until the store fits the cap."""
        infos = sorted(self.entries(), key=lambda e: (e.mtime, e.fingerprint))
        total = sum(e.size for e in infos)
        for info in infos:
            if total <= self.max_bytes:
                break
            if info.fingerprint == keep:
                continue
            try:
                os.remove(info.path)
            except OSError:
                continue
            total -= info.size
            self.stats.evictions += 1

    # -- maintenance --------------------------------------------------------

    def entries(self) -> Iterator[EntryInfo]:
        """On-disk entries (stat only; skips files that vanish mid-walk)."""
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames.sort()
            for fn in sorted(filenames):
                if not fn.endswith(_SUFFIX):
                    continue
                path = os.path.join(dirpath, fn)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                yield EntryInfo(
                    path=path,
                    fingerprint=fn[: -len(_SUFFIX)],
                    size=st.st_size,
                    mtime=st.st_mtime,
                )

    def size_bytes(self) -> int:
        """Total bytes of all entries."""
        return sum(e.size for e in self.entries())

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        removed = 0
        for info in list(self.entries()):
            try:
                os.remove(info.path)
            except OSError:
                continue
            removed += 1
        return removed

    def verify(self, purge: bool = False) -> VerifyReport:
        """Integrity-scan every entry; optionally delete the bad ones."""
        report = VerifyReport()
        for info in list(self.entries()):
            report.checked += 1
            try:
                self._read_entry(info.path, info.fingerprint)
            except Exception as exc:
                report.bad.append((info.fingerprint, str(exc)))
                if purge:
                    try:
                        os.remove(info.path)
                    except OSError:
                        pass
        return report

    def stats_snapshot(self) -> dict:
        """JSON-ready on-disk summary (entry count, bytes, cap, root)."""
        infos = list(self.entries())
        return {
            "root": self.root,
            "entries": len(infos),
            "total_bytes": sum(e.size for e in infos),
            "max_bytes": self.max_bytes,
        }

"""The job model of the parallel experiment runner.

A *sweep* is an ordered list of independent experiment points — one
(mix, load, seed) cell of a figure, one offered-load factor, one
(app, scenario) fault case.  Each point is fully described by a
:class:`SweepPoint`: a stable string ``key``, a picklable ``params``
mapping, and the exact ``seed`` its task runs with.  Because the seed is
fixed *in the spec*, before any execution, the result of a point is a
pure function of the spec — running the points serially, across worker
processes, or in any completion order produces bit-identical values.

Seed derivation
---------------
:func:`derive_seed` hashes ``(base_seed, key)`` with SHA-256 into a
48-bit child seed.  The derivation is stable across processes, platforms
and Python invocations (no dependence on ``PYTHONHASHSEED`` or
enumeration order), and independent points get independent seeds without
coordinating.  Sweeps that replicate the paper's protocol of running
every cell from one root seed (the figure specs) instead pin
``seed=base_seed`` on every point — both modes satisfy the determinism
contract because either way the seed is part of the spec.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigurationError
from ..sim.seed import DEFAULT_SEED

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..cache.store import CacheStats
    from .supervisor import RunnerHealth

__all__ = [
    "derive_seed",
    "SweepPoint",
    "SweepSpec",
    "PointError",
    "PointResult",
    "SweepResult",
    "SweepExecutionError",
]


def derive_seed(base_seed: int, key: str) -> int:
    """A stable 48-bit child seed for one sweep point.

    ``SHA-256(f"{base_seed}:{key}")`` truncated to 48 bits: process- and
    platform-independent, and changing the point set never perturbs the
    seeds of the points that stay (they are keyed, not ordered).
    """
    if base_seed < 0:
        raise ConfigurationError("base_seed must be non-negative")
    digest = hashlib.sha256(f"{int(base_seed)}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:6], "big")


@dataclass(frozen=True)
class SweepPoint:
    """One independent experiment point of a sweep."""

    #: Stable identity; used for seed derivation, merge labels and
    #: progress lines.  Unique within a spec.
    key: str
    #: Task parameters.  Must be picklable (they cross the process
    #: boundary under ``--workers > 1``).
    params: Mapping[str, Any] = field(default_factory=dict)
    #: The exact seed the task runs with (fixed before execution).
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not self.key:
            raise ConfigurationError("sweep point key must be non-empty")


@dataclass(frozen=True)
class SweepSpec:
    """A named, fully-determined set of sweep points plus their task.

    ``task`` is called as ``task(params, seed)`` for every point and must
    be a **module-level function** — worker processes are spawned (not
    forked), so the task is pickled by reference and re-imported on the
    other side.  Closures and lambdas are rejected up front rather than
    failing inside the pool.
    """

    name: str
    task: Callable[[Mapping[str, Any], int], Any]
    points: Tuple[SweepPoint, ...]
    base_seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("sweep name must be non-empty")
        if not self.points:
            raise ConfigurationError(f"sweep {self.name!r} has no points")
        qualname = getattr(self.task, "__qualname__", "")
        if not callable(self.task) or "<locals>" in qualname or "<lambda>" in qualname:
            raise ConfigurationError(
                f"sweep task must be a module-level function (got "
                f"{self.task!r}); spawn workers import tasks by reference"
            )
        seen = set()
        for point in self.points:
            if point.key in seen:
                raise ConfigurationError(
                    f"sweep {self.name!r} has duplicate point key {point.key!r}"
                )
            seen.add(point.key)

    @classmethod
    def from_grid(
        cls,
        name: str,
        task: Callable[[Mapping[str, Any], int], Any],
        grid: Mapping[str, Mapping[str, Any]],
        base_seed: int = DEFAULT_SEED,
        shared_seed: bool = False,
    ) -> "SweepSpec":
        """Build a spec from ``{key: params}`` in mapping order.

        ``shared_seed=True`` pins every point to ``base_seed`` (the
        paper-figure protocol: all cells of one figure share the root
        seed); the default derives an independent seed per key.
        """
        points = tuple(
            SweepPoint(
                key=key,
                params=dict(params),
                seed=base_seed if shared_seed else derive_seed(base_seed, key),
            )
            for key, params in grid.items()
        )
        return cls(name=name, task=task, points=points, base_seed=base_seed)


@dataclass(frozen=True)
class PointError:
    """A structured record of one failed point (the sweep continues).

    ``attempts`` is how many times the supervised runner executed the
    point before giving up (1 when the first failure was permanent), and
    ``retryable`` is the transient-vs-permanent verdict of
    :func:`repro.errors.is_retryable` on the last failure — a point that
    arrives here with ``retryable=True`` exhausted its retry budget and
    was *quarantined* rather than abandoned on first contact.
    """

    type: str
    message: str
    traceback: str
    attempts: int = 1
    retryable: bool = False

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {"type": self.type, "message": self.message,
                "traceback": self.traceback, "attempts": self.attempts,
                "retryable": self.retryable}

    def __str__(self) -> str:
        suffix = f" (after {self.attempts} attempts)" if self.attempts > 1 else ""
        return f"{self.type}: {self.message}{suffix}"


@dataclass
class PointResult:
    """Outcome of one executed sweep point.

    ``elapsed_s`` is host wall-clock — metadata for progress lines and
    speedup measurements only.  It is deliberately excluded from every
    merged export, which must stay bit-identical across worker counts.
    ``cached`` marks a point served from the result cache without
    executing (its ``elapsed_s`` is 0.0); the *value* of a cached point
    is bit-identical to an executed one, so ``cached`` too stays out of
    merged exports.
    """

    key: str
    index: int
    seed: int
    params: Dict[str, Any]
    ok: bool
    value: Any = None
    error: Optional[PointError] = None
    elapsed_s: float = 0.0
    cached: bool = False

    def as_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-ready form (no timings, no worker ids)."""
        return {
            "key": self.key,
            "index": self.index,
            "seed": self.seed,
            "ok": self.ok,
            "error": self.error.as_dict() if self.error is not None else None,
        }


class SweepExecutionError(RuntimeError):
    """Raised by :meth:`SweepResult.raise_failures` when points crashed."""

    def __init__(self, failures: List[PointResult]) -> None:
        self.failures = failures
        lines = [f"{len(failures)} sweep point(s) failed:"]
        for pr in failures:
            lines.append(f"  [{pr.key}] {pr.error}")
        super().__init__("\n".join(lines))


@dataclass
class SweepResult:
    """Every point's outcome, always in spec (not completion) order."""

    name: str
    base_seed: int
    workers: int
    results: List[PointResult]
    elapsed_s: float = 0.0
    #: Cache counter deltas for this run (None when run without a cache).
    cache_stats: Optional["CacheStats"] = None
    #: Runner robustness telemetry — retries, timeouts, crashes, worker
    #: restarts.  Sidecar metadata like :attr:`cache_stats`: host-level
    #: incident counts, deliberately excluded from merged exports (a run
    #: that retried must export byte-identically to one that did not).
    runner_health: Optional["RunnerHealth"] = None

    @property
    def ok(self) -> bool:
        """True when every point completed."""
        return all(pr.ok for pr in self.results)

    def failures(self) -> List[PointResult]:
        """The crashed points (empty when :attr:`ok`)."""
        return [pr for pr in self.results if not pr.ok]

    def raise_failures(self) -> "SweepResult":
        """Raise :class:`SweepExecutionError` if any point crashed."""
        failures = self.failures()
        if failures:
            raise SweepExecutionError(failures)
        return self

    def value(self, key: str) -> Any:
        """The value of one point by key."""
        for pr in self.results:
            if pr.key == key:
                if not pr.ok:
                    raise SweepExecutionError([pr])
                return pr.value
        raise KeyError(f"no sweep point with key {key!r}")

    def as_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-ready summary (excludes wall-clock)."""
        return {
            "name": self.name,
            "base_seed": self.base_seed,
            "points": [pr.as_dict() for pr in self.results],
        }

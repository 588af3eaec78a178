"""Declarative fault schedules: what goes wrong, where, and when.

A :class:`FaultPlan` is an ordered, validated list of
:class:`FaultEvent` windows against a platform's nodes and shared
resources.  Plans are *pure data* — deterministic, seedable, and
serializable to a human-readable trace — so the same plan drives the
epoch-model applications (which sample it at epoch boundaries), the
discrete-event applications (which sample it per token/op), and the
analytic Spark runner (which integrates it over stage windows).

The four fault kinds mirror what CXL RAS characterizations report for
real expanders ("Demystifying CXL Memory...", "Dissecting CXL Memory
Performance at Scale"):

* **LINK_DEGRADE** — CRC retries / link retraining: bandwidth drops by a
  multiplier and access latency inflates for a window;
* **ERROR_STORM** — correctable-error storms: latency inflation only
  (ECC corrections serialize the pipeline but bandwidth survives);
* **POISON** — uncorrectable errors: a fraction of the target node's
  pages return poison until scrubbed/rewritten;
* **DEVICE_FAIL** — the whole device drops off the bus for a window
  (``math.inf`` duration = permanent loss).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from ..sim.seed import DEFAULT_SEED

__all__ = ["FaultKind", "FaultEvent", "FaultPlan"]


class FaultKind(enum.Enum):
    """The modeled CXL RAS failure modes."""

    LINK_DEGRADE = "link-degrade"
    ERROR_STORM = "error-storm"
    POISON = "poison"
    DEVICE_FAIL = "device-fail"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault window against a node or resource."""

    kind: FaultKind
    start_ns: float
    duration_ns: float
    #: Target NUMA node (required for every kind except a pure
    #: resource-level LINK_DEGRADE).
    node_id: Optional[int] = None
    #: Explicit shared-resource target for LINK_DEGRADE; when None the
    #: degradation applies to the node's own resource chain.
    resource: Optional[str] = None
    #: Capacity multiplier while a LINK_DEGRADE window is active.
    bandwidth_multiplier: float = 1.0
    #: Access-latency multiplier while the window is active
    #: (LINK_DEGRADE and ERROR_STORM).
    latency_multiplier: float = 1.0
    #: Fraction of the target node's pages poisoned at ``start_ns``.
    poison_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.start_ns < 0:
            raise ConfigurationError("fault start must be >= 0")
        if self.duration_ns <= 0:
            raise ConfigurationError("fault duration must be positive")
        if self.kind is FaultKind.LINK_DEGRADE:
            if self.node_id is None and self.resource is None:
                raise ConfigurationError("link degrade needs a node or resource target")
            if not 0.0 < self.bandwidth_multiplier <= 1.0:
                raise ConfigurationError("bandwidth multiplier must be in (0, 1]")
            if self.latency_multiplier < 1.0:
                raise ConfigurationError("latency multiplier must be >= 1")
        elif self.kind is FaultKind.ERROR_STORM:
            if self.node_id is None:
                raise ConfigurationError("error storm needs a node target")
            if self.latency_multiplier <= 1.0:
                raise ConfigurationError("error storm needs latency multiplier > 1")
        elif self.kind is FaultKind.POISON:
            if self.node_id is None:
                raise ConfigurationError("poison needs a node target")
            if not 0.0 < self.poison_fraction <= 1.0:
                raise ConfigurationError("poison fraction must be in (0, 1]")
        elif self.kind is FaultKind.DEVICE_FAIL:
            if self.node_id is None:
                raise ConfigurationError("device failure needs a node target")

    @property
    def end_ns(self) -> float:
        """End of the fault window (inf = permanent)."""
        return self.start_ns + self.duration_ns

    def active_at(self, now_ns: float) -> bool:
        """True while the window covers ``now_ns``."""
        return self.start_ns <= now_ns < self.end_ns

    def overlap_ns(self, t0: float, t1: float) -> float:
        """Length of this window's overlap with ``[t0, t1)``."""
        if t1 <= t0:
            return 0.0
        return max(0.0, min(self.end_ns, t1) - max(self.start_ns, t0))

    def describe(self) -> str:
        """One deterministic human-readable line for the event trace."""
        target = self.resource if self.resource is not None else f"node{self.node_id}"
        end = "inf" if math.isinf(self.end_ns) else f"{self.end_ns / 1e6:.3f}ms"
        extras = []
        if self.kind is FaultKind.LINK_DEGRADE:
            extras.append(f"bw x{self.bandwidth_multiplier:g}")
        if self.kind in (FaultKind.LINK_DEGRADE, FaultKind.ERROR_STORM):
            extras.append(f"lat x{self.latency_multiplier:g}")
        if self.kind is FaultKind.POISON:
            extras.append(f"poison {self.poison_fraction * 100:g}%")
        detail = f" ({', '.join(extras)})" if extras else ""
        return (
            f"{self.kind.value} @ {target} "
            f"[{self.start_ns / 1e6:.3f}ms, {end}){detail}"
        )


class FaultPlan:
    """A seedable, ordered schedule of fault events."""

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.seed = int(seed)
        self.events: List[FaultEvent] = []

    # -- construction -----------------------------------------------------

    def add(self, event: FaultEvent) -> "FaultPlan":
        """Append one event, keeping the schedule sorted by start time."""
        self.events.append(event)
        self.events.sort(key=lambda e: (e.start_ns, e.kind.value))
        return self

    def degrade_link(
        self,
        start_ns: float,
        duration_ns: float,
        node_id: Optional[int] = None,
        resource: Optional[str] = None,
        bandwidth_multiplier: float = 0.25,
        latency_multiplier: float = 3.0,
    ) -> "FaultPlan":
        """Schedule a link-degradation window (CRC retry/retraining)."""
        return self.add(
            FaultEvent(
                FaultKind.LINK_DEGRADE,
                start_ns,
                duration_ns,
                node_id=node_id,
                resource=resource,
                bandwidth_multiplier=bandwidth_multiplier,
                latency_multiplier=latency_multiplier,
            )
        )

    def error_storm(
        self,
        start_ns: float,
        duration_ns: float,
        node_id: int,
        latency_multiplier: float = 8.0,
    ) -> "FaultPlan":
        """Schedule a correctable-error storm (latency inflation)."""
        return self.add(
            FaultEvent(
                FaultKind.ERROR_STORM,
                start_ns,
                duration_ns,
                node_id=node_id,
                latency_multiplier=latency_multiplier,
            )
        )

    def poison(
        self,
        start_ns: float,
        node_id: int,
        fraction: float = 0.02,
    ) -> "FaultPlan":
        """Poison a fraction of a node's pages at ``start_ns``.

        Poison is sticky: it persists until the owning application
        scrubs (rewrites/remaps) the page, so the nominal window length
        is irrelevant — a 1 ns duration marks the injection instant.
        """
        return self.add(
            FaultEvent(
                FaultKind.POISON,
                start_ns,
                1.0,
                node_id=node_id,
                poison_fraction=fraction,
            )
        )

    def fail_device(
        self,
        start_ns: float,
        node_id: int,
        duration_ns: float = math.inf,
    ) -> "FaultPlan":
        """Take a node offline at ``start_ns`` (permanent by default)."""
        return self.add(
            FaultEvent(
                FaultKind.DEVICE_FAIL, start_ns, duration_ns, node_id=node_id
            )
        )

    # -- queries ----------------------------------------------------------

    def events_of(self, kind: FaultKind) -> List[FaultEvent]:
        """All events of one kind, in schedule order."""
        return [e for e in self.events if e.kind is kind]

    def active_at(self, now_ns: float) -> List[FaultEvent]:
        """Events whose window covers ``now_ns``."""
        return [e for e in self.events if e.active_at(now_ns)]

    def window(self) -> Tuple[float, float]:
        """(first start, last *finite* end) across all events.

        Used by the recovery metrics to partition a run into
        before/during/after phases; a plan that only contains permanent
        failures reports ``end == inf``.
        """
        if not self.events:
            return (0.0, 0.0)
        start = min(e.start_ns for e in self.events)
        finite_ends = [e.end_ns for e in self.events if math.isfinite(e.end_ns)]
        end = max(finite_ends) if finite_ends else math.inf
        return (start, max(start, end))

    def describe(self) -> List[str]:
        """The schedule as deterministic one-line descriptions."""
        return [e.describe() for e in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed:#x}, events={len(self.events)})"

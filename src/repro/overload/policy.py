"""The overload policy and its runtime controller.

:class:`OverloadPolicy` is the declarative bundle the open-loop DES
KeyDB accepts — queue bound, token-bucket rate, default deadline
budget, and shedding switches.  It is inert configuration;
:class:`OverloadController` is the per-run state machine built from it
that the server consults, one scalar call per event:

* ``try_admit`` runs the admission pipeline at arrival (full queue →
  capacity-loss priority floor → token bucket) and accounts the offer
  and every rejection by reason;
* ``complete``/``shed`` close the loop in the funnel metrics, and
  ``record_latencies`` takes the completed work's latencies in batches;
* ``bind_faults`` connects the controller to a
  :class:`~repro.faults.injector.FaultInjector` so capacity lost to
  link degrade or device loss translates into *graceful* goodput
  reduction: the admitted-priority floor rises with the lost capacity
  fraction, shedding the lowest-priority work first instead of letting
  every request's latency collapse together.

A request's deadline is a plain float, its arrival time plus
:attr:`OverloadPolicy.default_budget_ns` (``inf`` when there is none).
The uncontrolled baseline is :meth:`OverloadPolicy.monitor_only`: it
admits and serves everything and only measures deadlines.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..errors import ConfigurationError
from .limiter import TokenBucketLimiter
from .metrics import OverloadMetrics

if TYPE_CHECKING:
    from ..faults.injector import FaultInjector

__all__ = ["OverloadPolicy", "OverloadController"]

#: Admission-rejection reason strings (shared with metrics/tests).
REASON_CAPACITY = "capacity-loss"
REASON_RATE = "rate"
REASON_QUEUE_FULL = "queue-full"
REASON_DOOMED = "doomed"
REASON_EXPIRED = "expired"


def _is_count(value: object) -> bool:
    """Whether ``value`` is an integer of at least 1."""
    return isinstance(value, numbers.Integral) and value >= 1


@dataclass(frozen=True)
class OverloadPolicy:
    """Declarative overload-protection configuration for one run."""

    #: Bound on waiting work (the server's FIFO admission queue).
    queue_capacity: int = 64
    #: Token-bucket admission rate (ops/s); None disables the bucket.
    rate_ops_per_s: Optional[float] = None
    burst_ops: float = 32.0
    #: Default absolute deadline budget stamped on requests (inf = none).
    default_budget_ns: float = math.inf
    #: Shed work that can no longer meet its deadline, early.
    shed_doomed: bool = True
    #: Raise the admitted-priority floor as fault capacity is lost.
    shed_on_capacity_loss: bool = True
    #: Number of priority classes (0 .. levels-1; higher = keep longest).
    priority_levels: int = 2

    def __post_init__(self) -> None:
        if not _is_count(self.queue_capacity):
            raise ConfigurationError("queue_capacity must be an integer >= 1")
        if self.rate_ops_per_s is not None and not 0 < self.rate_ops_per_s < math.inf:
            raise ConfigurationError("rate_ops_per_s must be a finite number > 0")
        if not 0 < self.burst_ops < math.inf:
            raise ConfigurationError("burst_ops must be a finite number > 0")
        if not self.default_budget_ns > 0:  # also rejects NaN
            raise ConfigurationError("default_budget_ns must be positive")
        if not _is_count(self.priority_levels):
            raise ConfigurationError("priority_levels must be an integer >= 1")

    @classmethod
    def monitor_only(cls, default_budget_ns: float = math.inf) -> "OverloadPolicy":
        """A policy that admits everything and only *measures*.

        This is the uncontrolled baseline: deadlines are stamped (so
        misses and goodput are measured) but nothing is ever rejected
        or shed, and late work is still served.
        """
        return cls(
            queue_capacity=2**31,
            rate_ops_per_s=None,
            default_budget_ns=default_budget_ns,
            shed_doomed=False,
            shed_on_capacity_loss=False,
        )


class OverloadController:
    """Per-run admission state machine built from an :class:`OverloadPolicy`."""

    def __init__(self, policy: OverloadPolicy) -> None:
        self.policy = policy
        self.metrics = OverloadMetrics()
        self.bucket: Optional[TokenBucketLimiter] = None
        if policy.rate_ops_per_s is not None:
            self.bucket = TokenBucketLimiter(policy.rate_ops_per_s, policy.burst_ops)
        self._injector: Optional[FaultInjector] = None
        self._fault_nodes: List[int] = []

    # -- wiring ------------------------------------------------------------

    def bind_faults(
        self, injector: FaultInjector, node_ids: Optional[List[int]] = None
    ) -> None:
        """Connect the capacity signal for SLO-aware shedding.

        ``node_ids`` are the memory nodes whose health backs this app's
        serving capacity (default: the platform's CXL nodes, the
        devices the fault catalog targets).
        """
        self._injector = injector
        if node_ids is None:
            node_ids = [n.node_id for n in injector.platform.cxl_nodes()]
        self._fault_nodes = list(node_ids)

    # -- capacity signal ---------------------------------------------------

    def capacity_fraction(self, now_ns: float) -> float:
        """Serving capacity still available, in [0, 1].

        The mean over the bound nodes of each node's deliverable
        bandwidth fraction: 0 when offline, its fault bandwidth
        multiplier otherwise.  1.0 when no fault signal is bound.
        """
        if self._injector is None or not self._fault_nodes:
            return 1.0
        total = 0.0
        for node in self._fault_nodes:
            if not self._injector.node_online(node, now_ns):
                continue
            total += self._injector.bandwidth_multiplier(node, now_ns)
        return total / len(self._fault_nodes)

    def priority_floor(self, now_ns: float) -> int:
        """Lowest priority still admitted given current capacity.

        With full capacity the floor is 0 (everything admitted).  As
        capacity is lost the floor rises proportionally through the
        priority classes, shedding the least important work first —
        graceful goodput reduction instead of uniform latency collapse.
        """
        if not self.policy.shed_on_capacity_loss:
            return 0
        lost = 1.0 - self.capacity_fraction(now_ns)
        if lost <= 0.05:  # ignore noise-level deratings
            return 0
        levels = self.policy.priority_levels
        return min(levels - 1, int(math.ceil(lost * levels)))

    # -- the admission pipeline -------------------------------------------

    def try_admit(self, priority: int, now_ns: float, queued: int = 0) -> bool:
        """Offer one unit of work arriving at ``now_ns``; True when admitted.

        ``priority`` is the unit's class, ``0 .. priority_levels - 1``,
        and ``queued`` the server's backlog of admitted work still
        waiting.  A full queue refuses first, then the capacity-loss
        priority floor, then the token bucket; the offer and any refusal
        are counted.  The caller pairs every admitted unit with exactly
        one ``complete`` or ``shed``.
        """
        metrics = self.metrics
        metrics.offered += 1
        if queued >= self.policy.queue_capacity:
            reason = REASON_QUEUE_FULL
        elif self._injector is not None and priority < self.priority_floor(now_ns):
            # Without a bound fault signal the floor is 0: no query needed.
            reason = REASON_CAPACITY
        elif self.bucket is not None and not self.bucket.try_acquire(now_ns):
            reason = REASON_RATE
        else:
            metrics.admitted += 1
            return True
        metrics.rejected[reason] = metrics.rejected.get(reason, 0) + 1
        return False

    # -- closing the loop --------------------------------------------------

    def complete(self, deadline_ns: float, now_ns: float) -> bool:
        """Admitted work finished at ``now_ns``; True when it made its deadline.

        Finishing exactly at ``deadline_ns`` is on time.
        """
        metrics = self.metrics
        metrics.completed += 1
        if now_ns > deadline_ns:
            metrics.deadline_misses += 1
            return False
        metrics.good += 1
        return True

    def shed(self, reason: str) -> None:
        """Admitted work abandoned before service.

        ``reason`` is :data:`REASON_EXPIRED` for a waiter whose deadline
        passed in the queue, :data:`REASON_DOOMED` for work that could
        no longer finish in time.
        """
        shed = self.metrics.shed
        shed[reason] = shed.get(reason, 0) + 1

    def record_latencies(self, latencies_ns: Sequence[float]) -> None:
        """Latencies of completed work, in completion order (floored at 1 ns)."""
        self.metrics.latency.record_all(
            [max(latency, 1.0) for latency in latencies_ns]
        )

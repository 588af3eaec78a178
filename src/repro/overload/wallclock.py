"""Wall-clock adapter for the sim-time overload primitives.

Everything in :mod:`repro.overload` prices time in nanoseconds against
*whatever clock the caller passes* — in simulation, the DES's
``sim.now``.  The serving stack (``repro serve``) needs the
same machinery against the host's real clock: a flash crowd of what-if
queries must meet a bounded queue, a token bucket, and deadline-aware
shedding measured in wall seconds, not simulated ones.

:class:`WallClock` rebases ``time.monotonic_ns()`` to the familiar
``now_ns`` contract, and :class:`WallClockAdmission` composes the three
existing throttles into the one decision the server needs per request:

* :class:`~repro.overload.limiter.TokenBucketLimiter` — caps the
  submission *rate* (a burst beyond it is shed with a precise
  Retry-After computed from the bucket's refill deficit);
* :class:`~repro.overload.queue.AdmissionQueue` — bounds work
  *waiting*; a full queue sheds with a Retry-After estimated from the
  observed service time (EWMA) and the backlog depth;
* :class:`~repro.overload.limiter.ConcurrencyLimiter` — bounds work
  *running*; slots are acquired when a queued request is promoted and
  released when it terminates.

Deadlines ride the existing :class:`~repro.overload.deadline.Deadline`
value object with wall-clock nanoseconds: a request that expires while
queued is shed by :meth:`AdmissionQueue.take`'s deadline check exactly
as simulated requests are, so none of the shedding logic is duplicated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import ConfigurationError
from .deadline import Deadline, Request
from .limiter import ConcurrencyLimiter, TokenBucketLimiter
from .queue import AdmissionQueue

__all__ = ["WallClock", "AdmissionDecision", "WallClockAdmission"]


class WallClock:
    """The host's monotonic clock under the overload layer's ``now_ns``
    contract.  A class (not a bare function) so tests can substitute a
    manually-advanced fake without monkeypatching ``time``."""

    def now_ns(self) -> float:
        """Monotonic host nanoseconds (never goes backwards)."""
        return float(time.monotonic_ns())

    def now_s(self) -> float:
        """Monotonic host seconds (same epoch as :meth:`now_ns`)."""
        return self.now_ns() / 1e9


@dataclass(frozen=True)
class AdmissionDecision:
    """The verdict of one admission attempt.

    ``retry_after_s`` is the shed path's backpressure signal: how long
    the client should wait before retrying (the server turns it into an
    HTTP ``Retry-After`` header).  It is a *hint*, computed from the
    rate deficit or the backlog estimate, never a reservation.
    """

    admitted: bool
    reason: str = ""
    retry_after_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "admitted": self.admitted,
            "reason": self.reason,
            "retry_after_s": self.retry_after_s,
        }


#: Smoothing factor of the service-time EWMA feeding queue-full
#: Retry-After estimates.
_EWMA_ALPHA = 0.3


class WallClockAdmission:
    """Bounded queue + token bucket + concurrency cap on the host clock.

    The flow mirrors an RPC server's admission path:

    1. :meth:`offer` — rate check, then bounded enqueue.  Rejections
       come back as an :class:`AdmissionDecision` with a computed
       Retry-After; acceptances enqueue a
       :class:`~repro.overload.deadline.Request` whose deadline is
       ``deadline_s`` of wall time from now.
    2. :meth:`next_runnable` — promotes the next serviceable request
       when a concurrency slot is free, shedding queued requests whose
       deadline already passed (their payloads surface via ``on_shed``).
    3. :meth:`release` — returns the slot when the work terminates.
    """

    def __init__(
        self,
        queue_depth: int,
        max_running: int,
        rate_per_s: Optional[float] = None,
        burst: Optional[float] = None,
        clock: Optional[WallClock] = None,
        on_shed: Optional[Callable[[Request], None]] = None,
    ) -> None:
        if rate_per_s is not None and rate_per_s <= 0:
            raise ConfigurationError("rate_per_s must be positive")
        if burst is not None and rate_per_s is None:
            raise ConfigurationError("burst needs rate_per_s")
        self.clock = clock if clock is not None else WallClock()
        self.queue = AdmissionQueue(queue_depth, on_shed=on_shed)
        self.running = ConcurrencyLimiter(max_running)
        self.bucket: Optional[TokenBucketLimiter] = None
        self._rate_per_s = rate_per_s
        if rate_per_s is not None:
            self.bucket = TokenBucketLimiter(
                rate_per_s, burst if burst is not None else max(1.0, rate_per_s)
            )
        #: EWMA of observed service seconds; seeds the queue-full
        #: Retry-After estimate before any job has completed.
        self.mean_service_s = 1.0
        self.rejected_rate = 0

    # -- admission ----------------------------------------------------------

    @property
    def saturated(self) -> bool:
        """True when the next :meth:`offer` is certain to shed."""
        return self.queue.full

    def backlog(self) -> int:
        """Requests waiting (excludes running work)."""
        return len(self.queue)

    def deadline_after(self, budget_s: Optional[float]) -> Deadline:
        """A wall-clock deadline ``budget_s`` from now (None = none)."""
        if budget_s is None:
            return Deadline()
        return Deadline.after(self.clock.now_ns(), budget_s * 1e9)

    def _queue_full_retry_s(self) -> float:
        # The backlog must drain through max_running slots before a new
        # request can even wait; estimate with the service-time EWMA.
        slots = self.running.limit
        waves = (len(self.queue) + 1 + slots - 1) // slots
        return max(0.5, waves * self.mean_service_s)

    def offer(
        self,
        payload: Any,
        deadline_s: Optional[float] = None,
        priority: int = 0,
    ) -> Tuple[AdmissionDecision, Optional[Request]]:
        """Admit ``payload`` or shed it with a Retry-After hint."""
        now_ns = self.clock.now_ns()
        if self.bucket is not None and not self.bucket.try_acquire(now_ns):
            self.rejected_rate += 1
            deficit = max(0.0, 1.0 - self.bucket.tokens(now_ns))
            assert self._rate_per_s is not None
            retry = max(0.1, deficit / self._rate_per_s)
            return AdmissionDecision(False, "rate", retry), None
        request = Request(
            arrival_ns=now_ns,
            deadline=self.deadline_after(deadline_s),
            priority=priority,
            payload=payload,
        )
        if not self.queue.offer(request):
            return (
                AdmissionDecision(False, "queue-full",
                                  self._queue_full_retry_s()),
                None,
            )
        return AdmissionDecision(True), request

    # -- promotion ----------------------------------------------------------

    def next_runnable(self) -> Optional[Request]:
        """The next request to run, holding one concurrency slot.

        Returns ``None`` when no slot is free or nothing serviceable is
        queued (expired waiters are shed on the way, via ``on_shed``).
        The caller owns the slot until it calls :meth:`release`.
        """
        if not self.running.try_acquire():
            return None
        request = self.queue.take(self.clock.now_ns())
        if request is None:
            self.running.release()
            return None
        return request

    def release(self, service_s: Optional[float] = None) -> None:
        """Return a slot; ``service_s`` feeds the Retry-After EWMA."""
        self.running.release()
        if service_s is not None and service_s >= 0:
            self.mean_service_s += _EWMA_ALPHA * (
                service_s - self.mean_service_s
            )

    def shed_expired(self) -> int:
        """Purge queued requests whose wall-clock deadline passed."""
        return self.queue.drain_expired(self.clock.now_ns())

    # -- telemetry ----------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot of the admission state."""
        return {
            "queued": len(self.queue),
            "queue_depth": self.queue.capacity,
            "running": self.running.in_flight,
            "max_running": self.running.limit,
            "rejected_full": self.queue.rejected_full,
            "rejected_rate": self.rejected_rate,
            "shed_expired": self.queue.shed_expired,
            "mean_service_s": self.mean_service_s,
        }

"""The bounded FIFO admission queue.

The first line of overload defense is a *bounded* queue with an
explicit rejection path: an unbounded queue converts excess offered
load into unbounded latency (the tail blowup past the bandwidth knee),
while a bounded queue converts it into cheap, early rejections.
Waiters are served oldest first; those whose deadline passed while
they waited are shed instead of served.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from ..errors import ConfigurationError
from .deadline import Request

__all__ = ["AdmissionQueue"]


class AdmissionQueue:
    """A bounded FIFO queue of :class:`Request` with explicit rejection.

    ``offer`` returns ``False`` (and counts the rejection) when the
    queue is full — the caller turns that into load shedding.  ``take``
    drops requests whose deadline already passed while they waited
    (counted as ``shed_expired``), so a burst that aged out in the
    queue never reaches service.
    """

    def __init__(
        self,
        capacity: int,
        on_shed: Optional[Callable[[Request], None]] = None,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError("queue capacity must be positive")
        self.capacity = capacity
        #: Invoked for every request shed while queued (expired waiting),
        #: so owners holding per-request state (metrics, payloads) can
        #: account for it.
        self.on_shed = on_shed
        self.rejected_full = 0
        self.shed_expired = 0
        self._fifo: Deque[Request] = deque()

    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def full(self) -> bool:
        """True when another ``offer`` would be rejected."""
        return len(self._fifo) >= self.capacity

    def offer(self, request: Request) -> bool:
        """Enqueue ``request``; ``False`` (counted) when the queue is full."""
        if self.full:
            self.rejected_full += 1
            return False
        self._fifo.append(request)
        return True

    def take(self, now_ns: float) -> Optional[Request]:
        """Dequeue the next serviceable request.

        Requests that expired while queued are shed (counted) rather
        than returned; ``None`` means nothing serviceable remains.
        """
        while self._fifo:
            request = self._fifo.popleft()
            if request.expired(now_ns):
                self.shed_expired += 1
                if self.on_shed is not None:
                    self.on_shed(request)
                continue
            return request
        return None

    def drain_expired(self, now_ns: float) -> int:
        """Shed every queued request whose deadline has passed.

        Returns how many were shed.  Useful at capacity-loss events:
        the queue is purged of doomed work in one sweep instead of
        lazily at pop time.
        """
        dropped: List[Request] = []
        keep: Deque[Request] = deque()
        for request in self._fifo:
            (dropped if request.expired(now_ns) else keep).append(request)
        self._fifo = keep
        self.shed_expired += len(dropped)
        if self.on_shed is not None:
            for request in dropped:
                self.on_shed(request)
        return len(dropped)

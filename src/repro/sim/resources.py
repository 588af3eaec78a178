"""Countable resources for the discrete-event engine.

:class:`Resource` models a pool of identical slots (server threads, SSD
queue depth, migration workers).  Requests queue FIFO; each grant is an
event the requesting process waits on.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from ..errors import SimulationError
from .engine import Event, Simulator

__all__ = ["Resource"]


class Resource:
    """A FIFO pool of ``capacity`` identical slots."""

    def __init__(self, sim: Simulator, capacity: int) -> None:
        if capacity <= 0:
            raise SimulationError("resource capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()
        # Compaction threshold for dead (already-triggered) waiters; see
        # _compact().  Doubling keeps the scan amortized O(1) per request.
        self._compact_at = 16

    @property
    def available(self) -> int:
        """Number of free slots right now."""
        return self.capacity - self.in_use

    def _compact(self) -> None:
        """Drop dead waiters so the queue stays bounded by live demand.

        A queued waiter whose grant event was failed externally (deadline
        shedder, fault injector) is dead: it will never hold the slot.
        ``release`` skips dead waiters at the head, but a long-lived
        queue shedding from the middle would otherwise accumulate them —
        and each dead event pins its waiting process's ``_resume``
        callback — so the queue is rebuilt without them once it outgrows
        a doubling threshold.
        """
        if len(self._waiters) >= self._compact_at:
            self._waiters = deque(ev for ev in self._waiters if not ev.triggered)
            self._compact_at = max(16, 2 * len(self._waiters))

    def request(self) -> Event:
        """Ask for one slot; the returned event fires when it is granted."""
        ev = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._compact()
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return one slot; hands it to the oldest *pending* waiter.

        A queued waiter may already be dead — its grant event failed by
        a deadline shedder or the fault injector while it sat in line.
        Handing the slot to such a waiter would consume the slot forever
        (nothing resumes to release it), so dead waiters are skipped and
        dropped here.
        """
        if self.in_use <= 0:
            raise SimulationError("release without matching request")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.triggered:
                continue  # shed/failed while queued: never held the slot
            # Slot moves directly to the next waiter; in_use is unchanged.
            waiter.succeed()
            return
        self.in_use -= 1

    @property
    def queue_length(self) -> int:
        """Number of *live* requests currently waiting for a slot."""
        return sum(1 for ev in self._waiters if not ev.triggered)


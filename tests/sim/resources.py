"""A countable resource for the test oracle engine.

:class:`Resource` models a pool of identical slots: the KeyDB server's
threads in the engine-process reference of the closed loop.  Requests
queue FIFO; each grant is an event the requesting process waits on.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.errors import SimulationError
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

    def request(self) -> Event:
        """Ask for one slot; the returned event fires when it is granted."""
        ev = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return one slot; hands it to the oldest waiter, if any."""
        if self.in_use <= 0:
            raise SimulationError("release without matching request")
        if self._waiters:
            # Slot moves directly to the next waiter; in_use is unchanged.
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1

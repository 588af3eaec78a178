"""The discrete-event engine the simulator's loops are checked against.

A classic event-heap + coroutine-process design (SimPy-style):

* :class:`Event` — a one-shot occurrence with a value and callbacks.
* :class:`Simulator` — owns the clock and the event heap; ``run()`` pops
  events in ``(time, sequence)`` order so simultaneous events fire in
  schedule order, making runs bit-for-bit reproducible.
* :class:`Process` — wraps a generator that ``yield``\\ s events; the
  process suspends until the yielded event fires and receives the event's
  value at resume.  A process is itself an event that fires when the
  generator returns, so processes can wait on each other.

The KeyDB loops of :mod:`repro.apps.kvstore.des_server` and the LLM
router's loop in :mod:`repro.apps.llm.router` are direct ``(time, seq)``
heaps that keep this engine's event order.  The tests in ``tests/apps``
rerun each of them as engine processes (with
:class:`~tests.sim.resources.Resource` for the KeyDB threads) and
require equal results, so this engine is their oracle.  It offers only
what those references use: timeouts, plain events and processes.  An
exception raised inside a process propagates out of
:meth:`Simulator.run`.

Time is in nanoseconds (see :mod:`repro.units`).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Tuple

from repro.errors import SimulationError

__all__ = ["Event", "Timeout", "Process", "Simulator"]


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; :meth:`succeed` makes it *triggered*,
    scheduling its callbacks to run at the current simulation time.
    Waiting processes are resumed with the event's value.
    """

    __slots__ = ("sim", "value", "_triggered", "_dispatched", "callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.value: Any = None
        self._triggered = False
        self._dispatched = False
        self.callbacks: List[Callable[["Event"], None]] = []

    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded."""
        return self._triggered

    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its callbacks now."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self.value = value
        self.sim._schedule_at(self.sim.now, self)
        return self

    def _dispatch(self) -> None:
        self._dispatched = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)


class Timeout(Event):
    """An event that fires automatically after a delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self._triggered = True  # scheduled at construction, cannot re-trigger
        self.value = value
        sim._schedule_at(sim.now + delay, self)


class Process(Event):
    """A coroutine driven by the events it yields.

    The wrapped generator yields :class:`Event` objects.  When a yielded
    event fires, the generator resumes with ``event.value``.  The process
    itself is an event that succeeds with the generator's return value.
    """

    __slots__ = ("_send",)

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any]) -> None:
        super().__init__(sim)
        self._send = gen.send
        # Kick off at the current time via an immediate timeout so that
        # process creation order does not bypass the event queue.
        Timeout(sim, 0.0).callbacks.append(self._resume)

    def _resume(self, trigger: Event) -> None:
        try:
            target = self._send(trigger.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Event objects"
            )
        if target._dispatched:
            # Already-dispatched event: its callback list is dead, so
            # resume via an immediate timeout carrying the same value.
            Timeout(self.sim, 0.0, value=target.value).callbacks.append(self._resume)
        else:
            target.callbacks.append(self._resume)


class Simulator:
    """The event loop: a clock plus a time-ordered event heap."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0

    def _schedule_at(self, time: float, event: Event) -> None:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past ({time} < {self.now})"
            )
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1

    # -- public factory helpers ------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator[Event, Any, Any]) -> Process:
        """Start a process from a generator; returns its completion event."""
        return Process(self, gen)

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        """Advance to and dispatch the next scheduled event."""
        if not self._heap:
            raise SimulationError("no scheduled events")
        self.now, _, event = heapq.heappop(self._heap)
        event._dispatch()

    def run(self) -> None:
        """Run until the heap drains."""
        while self._heap:
            self.step()

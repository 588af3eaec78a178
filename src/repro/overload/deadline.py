"""Deadline propagation primitives.

Every admitted unit of work carries an absolute :class:`Deadline`.
The open-loop DES KeyDB checks the *remaining* budget when a worker
picks a request up, so work that can no longer finish in time is shed
before it burns service time, and the admission queue sheds waiters
whose deadline passed — the standard deadline-propagation discipline
of RPC stacks, carried into the simulator.

The deadline is a plain value object; the clock it is compared against
is whatever the caller's notion of "now" is (the DES ``sim.now``, or
the host clock under ``repro serve``'s
:class:`~repro.overload.wallclock.WallClockAdmission`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from ..errors import ConfigurationError

__all__ = ["Deadline", "Request"]


@dataclass(frozen=True)
class Deadline:
    """An absolute point in simulated time by which work must finish.

    ``math.inf`` means "no deadline"; all checks then trivially pass,
    so unconfigured apps behave exactly as before.
    """

    at_ns: float = math.inf

    def __post_init__(self) -> None:
        if math.isnan(self.at_ns):
            raise ConfigurationError("deadline must be a time, not NaN")

    @classmethod
    def after(cls, now_ns: float, budget_ns: float) -> "Deadline":
        """Deadline ``budget_ns`` from ``now_ns`` (inf budget = none)."""
        if budget_ns <= 0:
            raise ConfigurationError("deadline budget must be positive")
        return cls(now_ns + budget_ns)

    @property
    def unbounded(self) -> bool:
        """True when no deadline was set."""
        return math.isinf(self.at_ns)

    def remaining_ns(self, now_ns: float) -> float:
        """Budget left at ``now_ns`` (negative once expired)."""
        return self.at_ns - now_ns

    def expired(self, now_ns: float) -> bool:
        """True once ``now_ns`` has passed the deadline."""
        return now_ns > self.at_ns

    def can_finish(self, now_ns: float, estimate_ns: float) -> bool:
        """Would work estimated at ``estimate_ns`` still make the deadline?

        This is the *doomed-work* check: a stage that cannot finish in
        the remaining budget should shed now rather than burn capacity
        on a response nobody will wait for.
        """
        if self.unbounded:
            return True
        return now_ns + estimate_ns <= self.at_ns


_REQUEST_IDS = itertools.count()


@dataclass
class Request:
    """One admitted (or candidate) unit of work moving through the stack.

    ``priority`` is ordinal: *higher* values are more important and are
    shed last.
    """

    arrival_ns: float
    deadline: Deadline = field(default_factory=Deadline)
    priority: int = 0
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))
    #: Opaque application payload (e.g. the YCSB operation being queued).
    payload: object = None

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise ConfigurationError("priority must be >= 0")

    def remaining_ns(self, now_ns: float) -> float:
        """Deadline budget left at ``now_ns``."""
        return self.deadline.remaining_ns(now_ns)

    def expired(self, now_ns: float) -> bool:
        """True once the request's deadline has passed."""
        return self.deadline.expired(now_ns)

    def doomed(self, now_ns: float, estimate_ns: float) -> bool:
        """True when ``estimate_ns`` more work cannot meet the deadline."""
        return not self.deadline.can_finish(now_ns, estimate_ns)

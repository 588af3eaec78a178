"""Deadline and request value objects for ``repro serve``'s admission.

Every job ``repro serve`` queues carries an absolute :class:`Deadline`
on the host clock, and its :class:`~repro.overload.queue.AdmissionQueue`
sheds waiters whose deadline passed — the standard
deadline-propagation discipline of RPC stacks.  The open-loop DES
KeyDB follows the same discipline on plain floats: a request's
deadline is its arrival time plus the policy's budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ConfigurationError

__all__ = ["Deadline", "Request"]


@dataclass(frozen=True)
class Deadline:
    """An absolute time, on the caller's clock, by which work must finish.

    ``math.inf`` means "no deadline": it never expires.
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

    def expired(self, now_ns: float) -> bool:
        """True once ``now_ns`` has passed the deadline."""
        return now_ns > self.at_ns


@dataclass
class Request:
    """One admitted (or candidate) unit of work moving through the stack.

    ``priority`` is ordinal: *higher* values are more important and are
    shed last.
    """

    arrival_ns: float
    deadline: Deadline = field(default_factory=Deadline)
    priority: int = 0
    #: Opaque application payload (e.g. the YCSB operation being queued).
    payload: object = None

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise ConfigurationError("priority must be >= 0")

    def expired(self, now_ns: float) -> bool:
        """True once the request's deadline has passed."""
        return self.deadline.expired(now_ns)

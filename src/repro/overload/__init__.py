"""Overload protection for open-loop KeyDB and ``repro serve``.

Admission control (a bounded FIFO queue and a token bucket),
absolute-deadline propagation with doomed-work shedding at dispatch,
and SLO-aware load shedding driven by the fault layer's capacity
signal.  Three callers run it: the offered-load sweep and the fault
comparison, both on the open-loop DES KeyDB
(:meth:`~repro.apps.kvstore.des_server.DesKeyDbServer.run_open_loop`,
which takes an :class:`OverloadController`), and ``repro serve``'s
wall-clock admission (:class:`WallClockAdmission`).
"""

from .deadline import Deadline, Request
from .limiter import ConcurrencyLimiter, TokenBucketLimiter
from .metrics import OverloadMetrics
from .policy import OverloadController, OverloadPolicy
from .queue import AdmissionQueue
from .wallclock import AdmissionDecision, WallClock, WallClockAdmission
from .runner import (
    OverloadRunSummary,
    calibrate_capacity_ops_per_s,
    run_fault_comparison,
    run_offered_load,
    sweep_offered_load,
)

__all__ = [
    "AdmissionDecision",
    "WallClock",
    "WallClockAdmission",
    "Deadline",
    "Request",
    "AdmissionQueue",
    "TokenBucketLimiter",
    "ConcurrencyLimiter",
    "OverloadMetrics",
    "OverloadPolicy",
    "OverloadController",
    "OverloadRunSummary",
    "calibrate_capacity_ops_per_s",
    "run_offered_load",
    "sweep_offered_load",
    "run_fault_comparison",
]

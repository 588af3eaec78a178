"""Overload protection for the open-loop KeyDB.

Admission control (a bounded FIFO queue and a token bucket),
absolute-deadline propagation with doomed-work shedding at dispatch,
and SLO-aware load shedding driven by the fault layer's capacity
signal.  The offered-load sweep and the fault comparison run it, both
on the open-loop DES KeyDB
(:meth:`~repro.apps.kvstore.des_server.DesKeyDbServer.run_open_loop`,
which takes an :class:`OverloadController`).  ``repro serve`` reuses
only the :class:`TokenBucketLimiter`, on the host clock.
"""

from .limiter import TokenBucketLimiter
from .metrics import OverloadMetrics
from .policy import OverloadController, OverloadPolicy
from .runner import (
    OverloadRunSummary,
    calibrate_capacity_ops_per_s,
    run_fault_comparison,
    run_offered_load,
    sweep_offered_load,
)

__all__ = [
    "TokenBucketLimiter",
    "OverloadMetrics",
    "OverloadPolicy",
    "OverloadController",
    "OverloadRunSummary",
    "calibrate_capacity_ops_per_s",
    "run_offered_load",
    "sweep_offered_load",
    "run_fault_comparison",
]

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

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "TokenBucketLimiter": ".limiter",
    "OverloadMetrics": ".metrics",
    "OverloadPolicy": ".policy",
    "OverloadController": ".policy",
    "OverloadRunSummary": ".runner",
    "calibrate_capacity_ops_per_s": ".runner",
    "run_offered_load": ".runner",
    "sweep_offered_load": ".runner",
    "run_fault_comparison": ".runner",
})

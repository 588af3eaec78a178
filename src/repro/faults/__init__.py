"""Fault injection and RAS (reliability/availability/serviceability).

The package models the CXL failure modes an ASIC-based expander fleet
must survive — link CRC retries and retraining (transient bandwidth and
latency derating), correctable-error storms (latency inflation),
uncorrectable poison on individual pages, and whole-device loss — and
the degradation policies the three paper applications use to ride them
out: retry with bounded exponential backoff, hot-page failover,
circuit-broken routing, and task re-execution.

Everything is deterministic: a :class:`FaultPlan` is a seedable,
pre-declared schedule, and the :class:`FaultInjector` derives all
randomness (e.g. which pages a poison event hits) from a named RNG
stream of the plan's seed, so the same seed always reproduces the same
event trace.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "FAULT_APPS": ".runner",
    "BreakerState": ".breaker",
    "CircuitBreaker": ".breaker",
    "FaultEvent": ".plan",
    "FaultInjector": ".injector",
    "FaultKind": ".plan",
    "FaultPlan": ".plan",
    "FaultRecoveryReport": ".metrics",
    "FaultedRunSummary": ".runner",
    "fault_sweep_spec": ".runner",
    "RecoveryTracker": ".metrics",
    "run_faulted_app": ".runner",
    "RetryPolicy": ".retry",
    "SCENARIOS": ".scenarios",
    "Scenario": ".scenarios",
    "build_scenario": ".scenarios",
    "retry_call": ".retry",
})

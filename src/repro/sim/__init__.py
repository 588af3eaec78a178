"""Deterministic simulation core: seeds, traffic, bandwidth, statistics.

This subpackage is application-agnostic.  The hardware model
(:mod:`repro.hw`) supplies capacities and latency surfaces; applications
(:mod:`repro.apps`) generate traffic and operations on top.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "BandwidthMonitor": ".monitor",
    "DEFAULT_SEED": ".seed",
    "RngFactory": ".rng",
    "CdfPoint": ".stats",
    "Counter": ".stats",
    "LatencyHistogram": ".stats",
    "RunningStat": ".stats",
    "TimeSeries": ".stats",
    "AllocationResult": ".traffic",
    "TrafficDemand": ".traffic",
    "max_min_allocate": ".traffic",
})

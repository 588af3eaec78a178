"""Deterministic simulation core: engine, resources, traffic, statistics.

This subpackage is application-agnostic.  The hardware model
(:mod:`repro.hw`) supplies capacities and latency surfaces; applications
(:mod:`repro.apps`) generate traffic and operations on top.
"""

from .engine import AllOf, AnyOf, Event, Process, Simulator, Timeout
from .monitor import BandwidthMonitor
from .resources import Resource
from .rng import DEFAULT_SEED, RngFactory
from .stats import CdfPoint, Counter, LatencyHistogram, RunningStat, TimeSeries
from .traffic import AllocationResult, TrafficDemand, max_min_allocate

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Process",
    "Simulator",
    "Timeout",
    "BandwidthMonitor",
    "Resource",
    "DEFAULT_SEED",
    "RngFactory",
    "CdfPoint",
    "Counter",
    "LatencyHistogram",
    "RunningStat",
    "TimeSeries",
    "AllocationResult",
    "TrafficDemand",
    "max_min_allocate",
]

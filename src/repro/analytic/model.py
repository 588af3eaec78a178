"""Shared machinery of the analytical backend: fixed points over knots.

The DES reaches steady state by *iterating epochs*: price a batch of
operations at the current loaded latencies, push the implied traffic
through the bandwidth allocator, refresh the latencies, repeat.  For
the paper's steady-state sweeps that loop converges to a fixed point of
one self-consistency map

    latency = L(utilization)            (the M/G/k-style loaded-latency
    utilization = U(throughput(latency))  model over the PeakBandwidthCurve
                                          knots in repro.hw)

so the analytical backend solves that map directly with damped
fixed-point iteration instead of simulating every event.  This module
owns only the generic solver; the per-application physics (which
traffic crosses which resources) lives in :mod:`repro.analytic.keydb`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigurationError

__all__ = [
    "FixedPoint",
    "solve_fixed_point",
]


@dataclass(frozen=True)
class FixedPoint:
    """Outcome of one fixed-point solve."""

    value: float
    iterations: int
    converged: bool
    residual: float


def solve_fixed_point(
    step: Callable[[float], float],
    initial: float,
    tolerance: float = 1e-10,
    max_iterations: int = 64,
    damping: float = 1.0,
) -> FixedPoint:
    """Iterate ``x <- x + damping * (step(x) - x)`` to convergence.

    ``step`` must map a scalar state (throughput, utilization, a mean
    service time) to its self-consistent update.  The relative residual
    ``|step(x) - x| / max(|x|, 1)`` below ``tolerance`` stops the loop.
    """
    if max_iterations <= 0:
        raise ConfigurationError("max_iterations must be positive")
    if not 0.0 < damping <= 1.0:
        raise ConfigurationError("damping must be in (0, 1]")
    x = float(initial)
    residual = float("inf")
    for iteration in range(1, max_iterations + 1):
        proposed = step(x)
        residual = abs(proposed - x) / max(abs(proposed), 1.0)
        x = x + damping * (proposed - x)
        if residual <= tolerance:
            return FixedPoint(x, iteration, True, residual)
    return FixedPoint(x, max_iterations, False, residual)


"""An Intel MLC-style loaded-latency probe over the simulated platform.

Reproduces the methodology of §3.1, where 16 MLC threads issue 64-byte
accesses at a controlled injection rate.  The model has no threads: it
offers their aggregate load to the bandwidth allocator as one flow,
sweeps it from near-idle to beyond saturation and records ``(achieved
bandwidth, loaded latency)`` pairs — the loaded-latency curves of
Fig. 3 and Fig. 4.

Access *pattern* (sequential vs random) is accepted for API fidelity
but does not change the result: §3.3 reports "we do not observe any
significant performance disparities under these conditions", and the
model encodes that finding directly.

Beyond saturation, write-heavy flows on remote paths show the paper's
Fig. 3(b) anomaly — "bandwidth decreases and latency increases with
heavier loads" — modeled as a small overload droop proportional to the
write share on remote paths (head-of-line blocking on the one busy UPI
direction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import WorkloadError
from ..units import to_gb_per_s

if TYPE_CHECKING:
    from ..hw.paths import MemoryPath
    from ..hw.topology import Platform

__all__ = ["MlcPoint", "MlcCurve", "MlcProbe", "PAPER_MIXES", "load_fractions"]

#: The read:write mixes the paper sweeps (Fig. 3 legends / Fig. 4 panels).
PAPER_MIXES: Tuple[Tuple[int, int], ...] = ((1, 0), (3, 1), (2, 1), (1, 1), (1, 2), (0, 1))


def load_fractions(points: int) -> List[float]:
    """MLC's automatic ramp: ``points`` offered loads, evenly spaced from
    2 % to 115 % of peak.  At the stock 8 and 24 points these are the
    same floats as ``numpy.linspace(0.02, 1.15, points)``."""
    if points < 2:
        raise WorkloadError("a load ramp needs at least 2 points")
    return [0.02 + i * (1.13 / (points - 1)) for i in range(points)]


@dataclass(frozen=True)
class MlcPoint:
    """One sample of the loaded-latency curve."""

    offered_bytes_per_s: float
    achieved_bytes_per_s: float
    latency_ns: float

    @property
    def achieved_gbps(self) -> float:
        """Achieved bandwidth in the paper's GB/s convention."""
        return to_gb_per_s(self.achieved_bytes_per_s)


@dataclass
class MlcCurve:
    """A full loaded-latency sweep for one path and mix."""

    path_kind: str
    write_fraction: float
    points: List[MlcPoint]

    @property
    def idle_latency_ns(self) -> float:
        """Latency of the lightest-load sample."""
        return self.points[0].latency_ns

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Maximum achieved bandwidth across the sweep."""
        return max(p.achieved_gbps for p in self.points)

    def knee_bandwidth_fraction(self, threshold_ns: float = 50.0) -> float:
        """Fraction of peak bandwidth where latency exceeds idle+threshold."""
        idle = self.idle_latency_ns
        peak = max(p.achieved_bytes_per_s for p in self.points)
        for p in self.points:
            if p.latency_ns > idle + threshold_ns:
                return p.achieved_bytes_per_s / peak
        return 1.0


class MlcProbe:
    """Sweeps offered load against one memory path."""

    def __init__(self, platform: Platform, pattern: str = "sequential") -> None:
        if pattern not in ("sequential", "random"):
            raise WorkloadError(f"unknown access pattern {pattern!r}")
        self.platform = platform
        self.pattern = pattern

    def loaded_latency_curve(
        self,
        path: MemoryPath,
        reads: int,
        writes: int,
        load_points: Optional[Sequence[float]] = None,
        background: Sequence[Tuple[MemoryPath, float, float]] = (),
    ) -> MlcCurve:
        """Sweep the path at the given read:write mix.

        ``load_points`` are offered loads as fractions of the path's peak
        bandwidth (defaults to a 24-point sweep up to 115 % of peak, like
        MLC's automatic ramp).  ``background`` adds steady interfering
        flows as ``(path, bytes_per_s, write_fraction)`` tuples — used by
        the bandwidth-contention ablations.
        """
        if reads < 0 or writes < 0 or reads + writes == 0:
            raise WorkloadError("invalid read:write mix")
        write_fraction = writes / (reads + writes)
        if load_points is None:
            load_points = load_fractions(24)
        if len(load_points) == 0:
            raise WorkloadError("load_points must not be empty")
        for fraction in load_points:
            if not (math.isfinite(fraction) and fraction > 0):
                raise WorkloadError("load fractions must be finite and positive")

        peak = path.peak_bandwidth(write_fraction)
        points: List[MlcPoint] = []
        for fraction in load_points:
            offered = fraction * peak
            demands = [
                self.platform.demand("probe", path, offered, write_fraction)
            ]
            for i, (bg_path, bg_rate, bg_wf) in enumerate(background):
                demands.append(
                    self.platform.demand(f"bg{i}", bg_path, bg_rate, bg_wf)
                )
            result = self.platform.allocate(demands)
            achieved = result.achieved["probe"]
            utilization = path.bottleneck_utilization(result.utilization)
            latency = path.loaded_latency_ns(utilization, write_fraction)
            achieved = self._overload_droop(path, write_fraction, offered, achieved)
            points.append(MlcPoint(offered, achieved, latency))
        return MlcCurve(path.kind.value, write_fraction, points)

    def _overload_droop(
        self,
        path: MemoryPath,
        write_fraction: float,
        offered: float,
        achieved: float,
    ) -> float:
        """Fig. 3(b)'s past-saturation droop for write-heavy remote flows."""
        if not path.kind.is_remote or write_fraction == 0.0:
            return achieved
        overload = max(0.0, offered / max(achieved, 1.0) - 1.0)
        droop = 0.20 * write_fraction * min(1.0, overload)
        return achieved * (1.0 - droop)

    def sweep_mixes(
        self,
        path: MemoryPath,
        mixes: Sequence[Tuple[int, int]] = PAPER_MIXES,
    ) -> List[MlcCurve]:
        """Loaded-latency curves for several mixes (one Fig. 3 panel)."""
        return [self.loaded_latency_curve(path, r, w) for r, w in mixes]

    # -- MLC's matrix modes -------------------------------------------------

    def latency_matrix(self) -> "Dict[Tuple[int, int], float]":
        """``mlc --latency_matrix``: idle latency from every socket to
        every node, in ns.  Keys are ``(initiator_socket, node_id)``."""
        out: "Dict[Tuple[int, int], float]" = {}
        for socket in range(self.platform.spec.sockets):
            for node_id in self.platform.nodes:
                path = self.platform.path(socket, node_id)
                out[(socket, node_id)] = path.idle_latency_ns(0.0)
        return out

    def bandwidth_matrix(self, reads: int = 1, writes: int = 0) -> "Dict[Tuple[int, int], float]":
        """``mlc --bandwidth_matrix``: single-initiator peak bandwidth
        (bytes/s) from every socket to every node at the given mix."""
        if reads < 0 or writes < 0 or reads + writes == 0:
            raise WorkloadError("invalid read:write mix")
        wf = writes / (reads + writes)
        out: "Dict[Tuple[int, int], float]" = {}
        for socket in range(self.platform.spec.sockets):
            for node_id in self.platform.nodes:
                path = self.platform.path(socket, node_id)
                demand = self.platform.demand("probe", path, float("inf"), wf)
                result = self.platform.allocate([demand])
                out[(socket, node_id)] = result.achieved["probe"]
        return out

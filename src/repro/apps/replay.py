"""Trace replay: run any :class:`~repro.workloads.trace.PageTrace`
against the platform.

The generic counterpart of the purpose-built application models: pages
are placed by a mempolicy, the trace's accesses are priced epoch by
epoch at the current loaded latencies (the same fixed-point-over-epochs
scheme the KeyDB server uses), an optional tiering daemon migrates
pages between epochs, and the result reports latency distribution,
achieved bandwidth and placement statistics.

This is the harness behind the §7.2 "other applications" studies and a
convenient way to evaluate custom policies against custom access
patterns without writing a new application model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from ..errors import ConfigurationError
from ..hw.paths import MemoryPath
from ..hw.topology import Platform
from ..mem.address_space import AddressSpace
from ..mem.tiering.base import TieringDaemon
from ..sim.monitor import BandwidthMonitor
from ..sim.stats import LatencyHistogram
from ..units import CACHELINE_SIZE, gb_per_s

if TYPE_CHECKING:
    from ..workloads.trace import PageTrace

__all__ = ["ReplayResult", "TraceReplayer"]

#: Kernel page-copy bandwidth charged for daemon migrations.
MIGRATION_BANDWIDTH = gb_per_s(6.0)


@dataclass
class ReplayResult:
    """What a trace replay measured."""

    accesses: int = 0
    elapsed_ns: float = 0.0
    latency: LatencyHistogram = field(
        default_factory=lambda: LatencyHistogram(min_value=10.0)
    )
    migrated_bytes: int = 0
    node_access_counts: Dict[int, int] = field(default_factory=dict)
    #: PCM-style per-resource utilization history across epochs.
    monitor: BandwidthMonitor = field(default_factory=BandwidthMonitor)

    @property
    def average_latency_ns(self) -> float:
        """Mean access latency over the replay."""
        return self.latency.mean

    @property
    def achieved_bandwidth(self) -> float:
        """Data moved per second of simulated time (bytes/s)."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.accesses * CACHELINE_SIZE / (self.elapsed_ns / 1e9)

    def node_fraction(self, node_ids) -> float:
        """Share of accesses that landed on the given nodes."""
        total = sum(self.node_access_counts.values())
        if total == 0:
            return 0.0
        wanted = set(node_ids)
        return sum(c for n, c in self.node_access_counts.items() if n in wanted) / total


class TraceReplayer:
    """Replays a page trace with a given placement (and optional daemon)."""

    def __init__(
        self,
        platform: Platform,
        space: AddressSpace,
        socket: int = 0,
        concurrency: int = 8,
        tiering: Optional[TieringDaemon] = None,
    ) -> None:
        if concurrency <= 0:
            raise ConfigurationError("concurrency must be positive")
        self.platform = platform
        self.space = space
        self.socket = socket
        self.concurrency = concurrency
        self.tiering = tiering
        self._paths: Dict[int, MemoryPath] = {}
        self._utilization: Dict[str, float] = {}
        self.now_ns = 0.0

    def _path(self, node_id: int) -> MemoryPath:
        if node_id not in self._paths:
            self._paths[node_id] = self.platform.path(self.socket, node_id)
        return self._paths[node_id]

    def replay(self, trace: PageTrace, epoch_accesses: int = 5000) -> ReplayResult:
        """Run the trace; returns latency/bandwidth/placement results."""
        if epoch_accesses <= 0:
            raise ConfigurationError("epoch_accesses must be positive")
        if trace.page_count > len(self.space.pages):
            raise ConfigurationError(
                f"trace spans {trace.page_count} pages but the space has "
                f"{len(self.space.pages)}"
            )
        result = ReplayResult()
        self._monitor_sink = result.monitor
        pages = self.space.pages
        position = 0
        while position < len(trace):
            chunk = slice(position, min(position + epoch_accesses, len(trace)))
            idxs = trace.pages[chunk]
            wrts = trace.writes[chunk]
            # Pre-compute per-node latency tables for this epoch.
            read_lat = {
                n: self._path(n).loaded_latency_ns(
                    self._path(n).bottleneck_utilization(self._utilization), 0.0
                )
                for n in self.platform.nodes
            }
            write_lat = {
                n: self._path(n).loaded_latency_ns(
                    self._path(n).bottleneck_utilization(self._utilization), 1.0
                )
                for n in self.platform.nodes
            }
            epoch_busy = 0.0
            node_read_bytes: Dict[int, float] = {}
            node_write_bytes: Dict[int, float] = {}
            for page_idx, is_write in zip(idxs, wrts):
                page = pages[int(page_idx)]
                page.touch(self.now_ns, is_write=bool(is_write))
                node = page.node_id
                lat = write_lat[node] if is_write else read_lat[node]
                epoch_busy += lat
                result.latency.record(lat)
                result.node_access_counts[node] = (
                    result.node_access_counts.get(node, 0) + 1
                )
                bucket = node_write_bytes if is_write else node_read_bytes
                bucket[node] = bucket.get(node, 0.0) + CACHELINE_SIZE

            epoch_ns = epoch_busy / self.concurrency
            if self.tiering is not None:
                round_ = self.tiering.tick(self.now_ns + epoch_ns)
                if round_.moved_bytes:
                    epoch_ns += round_.moved_bytes / MIGRATION_BANDWIDTH * 1e9
                    result.migrated_bytes += round_.moved_bytes
            self.now_ns += epoch_ns
            result.elapsed_ns += epoch_ns
            result.accesses += len(idxs)
            position = chunk.stop
            self._refresh_utilization(node_read_bytes, node_write_bytes, epoch_ns)
        return result

    def _refresh_utilization(
        self,
        node_read_bytes: Dict[int, float],
        node_write_bytes: Dict[int, float],
        epoch_ns: float,
    ) -> None:
        if epoch_ns <= 0:
            return
        demands = []
        for node in set(node_read_bytes) | set(node_write_bytes):
            reads = node_read_bytes.get(node, 0.0)
            writes = node_write_bytes.get(node, 0.0)
            total = reads + writes
            if total <= 0:
                continue
            rate = total / (epoch_ns / 1e9)
            demands.append(
                self.platform.demand(
                    f"replay/{node}", self._path(node), rate, writes / total
                )
            )
        if demands:
            result = self.platform.allocate(demands)
            self._utilization = result.utilization
            self._monitor_sink.observe(self.now_ns, result, interval_ns=epoch_ns)
        else:
            self._utilization = {}

"""The query runner: per-stage execution-time model for Fig. 7.

Each stage runs two phases over the cluster's memory tiers:

* a **compute/scan phase** — instruction work overlapped with streaming
  input reads, plus dependent-load stalls (join probes, row decoding)
  priced at the tiers' *loaded* latency;
* a **shuffle phase** — partition/sort/fetch streams the shuffle
  working set through memory ``MEMORY_PASSES`` times while hash
  partitioning issues random dependent accesses; spill adds SSD passes
  and the all-to-all adds a network leg.

The hardware coupling is open-loop, the way a many-core Spark executor
fleet actually behaves: cores' prefetchers *offer* traffic at their
streaming rate regardless of stalls, so a tier whose placement share
exceeds its bandwidth share sits at saturation — utilization ~1 and
loaded latency at the top of the §3 curve — while every dependent load
from any core eats that loaded latency.  Under N:M interleaving the CXL
tier saturates first (its traffic share is fixed by page placement
while its bandwidth is a fraction of DRAM's); the resulting stalls, not
raw idle-latency arithmetic, produce the paper's 1.4x-9.8x interleave
slowdowns and motivate §5.3's bandwidth-aware-placement insight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ...errors import ConfigurationError
from ...faults.plan import FaultKind
from ...hw.calibration import path_latency_model
from ...workloads.tpch import QueryProfile, QueryStage
from .cluster import ClusterConfig, tier_bandwidths
from .executor import SparkAppSpec
from .shuffle import MEMORY_PASSES, network_time_ns, plan_spill, ssd_time_ns

if TYPE_CHECKING:
    from ...faults.injector import FaultInjector

__all__ = ["PhaseCosts", "StageResult", "QueryResult", "SparkQueryRunner"]


@dataclass(frozen=True)
class PhaseCosts:
    """Per-byte costs of the two stage phases (calibration constants)."""

    #: Scales the profile's instruction work per scanned byte.
    compute_cpu_scale: float = 1.0
    #: Scales the profile's dependent loads per scanned byte.
    compute_rand_scale: float = 1.0
    #: Per-core streaming demand in the compute phase (bytes/s).
    compute_stream_per_core: float = 2e9
    #: Instruction work per shuffled byte (serialization, comparator).
    shuffle_cpu_ns_per_byte: float = 0.15
    #: Dependent loads per shuffled byte (hash partitioning).
    shuffle_rand_per_byte: float = 0.004
    #: Per-core streaming demand in the shuffle phase (bytes/s).
    shuffle_stream_per_core: float = 2e9


@dataclass
class StageResult:
    """Times for one stage (all ns, cluster wall-clock)."""

    name: str
    compute_ns: float = 0.0
    shuffle_write_ns: float = 0.0
    shuffle_read_ns: float = 0.0
    spill_ssd_ns: float = 0.0
    network_ns: float = 0.0
    spilled_bytes: int = 0
    #: Extra wall-clock re-executing tasks lost to device failure or
    #: whose shuffle pages were poisoned.
    reexec_ns: float = 0.0
    #: Shuffle bytes invalidated by poison and regenerated.
    poisoned_bytes: int = 0

    @property
    def shuffle_ns(self) -> float:
        """Total shuffle time: memory passes + spill + network."""
        return self.shuffle_write_ns + self.shuffle_read_ns

    @property
    def total_ns(self) -> float:
        """Stage wall-clock (including any fault re-execution)."""
        return self.compute_ns + self.shuffle_ns + self.reexec_ns


@dataclass
class QueryResult:
    """Times for one query under one cluster configuration."""

    query: str
    config: str
    stages: List[StageResult] = field(default_factory=list)

    @property
    def total_ns(self) -> float:
        """Query wall-clock."""
        return sum(s.total_ns for s in self.stages)

    @property
    def shuffle_ns(self) -> float:
        """Time spent in shuffle (write + read, incl. spill/network)."""
        return sum(s.shuffle_ns for s in self.stages)

    @property
    def shuffle_write_ns(self) -> float:
        """Shuffle-write component (solid bars of Fig. 7(b))."""
        return sum(s.shuffle_write_ns for s in self.stages)

    @property
    def shuffle_read_ns(self) -> float:
        """Shuffle-read component (hollow bars of Fig. 7(b))."""
        return sum(s.shuffle_read_ns for s in self.stages)

    @property
    def shuffle_fraction(self) -> float:
        """Fraction of query time spent shuffling (Fig. 7(b))."""
        total = self.total_ns
        return self.shuffle_ns / total if total > 0 else 0.0

    @property
    def spilled_bytes(self) -> int:
        """Bytes spilled to SSD across the query."""
        return sum(s.spilled_bytes for s in self.stages)


class SparkQueryRunner:
    """Runs query profiles against one cluster configuration."""

    def __init__(self, config: ClusterConfig, costs: PhaseCosts = PhaseCosts()) -> None:
        self.config = config
        self.costs = costs
        # Shuffle traffic is roughly half writes; scans are read-heavy.
        self._bw = tier_bandwidths(config.platform, write_fraction=0.5)
        self._latency_dram = path_latency_model("mmem_local")
        self._latency_cxl = path_latency_model("cxl_local")
        #: Baseline idle latency baked into the profiles' cpu_ns figures.
        self._l0 = self._latency_dram.idle_ns(0.2)
        self.faults: Optional[FaultInjector] = None
        self._cxl_node: Optional[int] = None
        #: Cluster wall-clock across everything this runner has executed,
        #: used to place fault windows against phase boundaries.
        self._now_ns = 0.0

    def attach_faults(self, injector: FaultInjector) -> None:
        """Enable RAS behaviour: degraded phases and task re-execution.

        Spark's degradation policy is the framework's own: tasks do not
        retry in place — work lost to a failed expander (or poisoned
        shuffle partitions) is *re-executed* on surviving DRAM, so
        faults show up as re-execution time, never as wrong results.
        """
        self.faults = injector
        cxl = self.config.platform.cxl_nodes()
        self._cxl_node = cxl[0].node_id if cxl else None
        self._now_ns = 0.0
        #: Poison is sticky: injections are charged to the *next* phase
        #: that reads poisonable data, wherever in time they landed.
        self._poison_cursor_ns = 0.0

    def _phase_time_ns(
        self,
        bytes_per_server: float,
        cores: int,
        cpu_ns_per_byte: float,
        rand_per_byte: float,
        stream_per_core: float,
        amplification: float,
        write_fraction: float,
        lat_mult_cxl: float = 1.0,
        bw_mult_cxl: float = 1.0,
        dram_only: bool = False,
    ) -> float:
        """Wall time of one phase on one server.

        ``T = max(T_cpu, T_stream) + T_stall`` where the streaming
        transfer overlaps instruction work, but dependent-load stalls in
        excess of the local-DRAM baseline cannot be hidden.

        ``lat_mult_cxl``/``bw_mult_cxl`` derate the CXL tier for fault
        windows; ``dram_only`` prices the phase as if all executor
        memory were DRAM (the re-execution placement after the expander
        is lost).
        """
        if cores <= 0:
            raise ConfigurationError("cores must be positive")
        if dram_only:
            f_d, f_c = 1.0, 0.0
        else:
            f_d, f_c = self.config.dram_fraction, self.config.cxl_fraction
        b_d = max(self._bw["dram"], 1.0)
        b_c = max(self._bw["cxl"] * bw_mult_cxl, 1.0)

        offered_traffic = cores * stream_per_core * amplification
        # Deliverable traffic for this placement: the tier with the worst
        # bandwidth-per-placement-share binds the pipeline.
        b_eff = b_d / f_d if f_d > 0 else float("inf")
        if f_c > 0:
            b_eff = min(b_eff, b_c / f_c)
        u_d = min(1.0, offered_traffic * f_d / b_d)
        u_c = min(1.0, offered_traffic * f_c / b_c) if f_c > 0 else 0.0
        latency = f_d * self._latency_dram.latency_ns(u_d, write_fraction)
        if f_c > 0:
            latency += (
                f_c * self._latency_cxl.latency_ns(u_c, write_fraction) * lat_mult_cxl
            )

        t_cpu = bytes_per_server * cpu_ns_per_byte / cores
        t_stream = (
            bytes_per_server * amplification / min(offered_traffic, b_eff) * 1e9
        )
        excess_latency = max(0.0, latency - self._l0)
        t_stall = bytes_per_server * rand_per_byte * excess_latency / cores
        return max(t_cpu, t_stream) + t_stall

    # -- fault integration -------------------------------------------------------

    def _window_multipliers(
        self, node_id: int, t0: float, t1: float
    ) -> "tuple[float, float]":
        """Time-weighted (latency, bandwidth) multipliers over a phase."""
        assert self.faults is not None
        span = max(t1 - t0, 1.0)
        lat = 1.0
        bw = 1.0
        for event in self.faults.plan.events:
            if event.node_id != node_id:
                continue
            weight = event.overlap_ns(t0, t1) / span
            if weight <= 0:
                continue
            if event.kind in (FaultKind.LINK_DEGRADE, FaultKind.ERROR_STORM):
                lat += (event.latency_multiplier - 1.0) * weight
            if event.kind is FaultKind.LINK_DEGRADE:
                bw -= (1.0 - event.bandwidth_multiplier) * weight
        return lat, max(bw, 0.05)

    def _run_phase(
        self, poisonable_bytes: float = 0.0, **phase_kwargs: float
    ) -> "tuple[float, float, int]":
        """One phase on the fault timeline.

        Returns ``(phase_ns, reexec_ns, poisoned_bytes)``.  Fault
        exposure is estimated first-order over the phase's healthy
        duration: transient degradation shows up as time-weighted
        latency/bandwidth multipliers, device loss as the lost fraction
        of tasks re-executed DRAM-only, and poison landing on the CXL
        tier as re-generated shuffle bytes.
        """
        healthy = self._phase_time_ns(**phase_kwargs)
        if self.faults is None or self._cxl_node is None:
            self._now_ns += healthy
            return healthy, 0.0, 0
        node = self._cxl_node
        self.faults.advance(self._now_ns)
        t0 = self._now_ns
        t1 = t0 + healthy
        off_frac = min(1.0, self.faults.offline_overlap(node, t0, t1) / max(healthy, 1.0))
        if off_frac >= 1.0:
            # The expander is gone for the whole phase: every task runs
            # (and re-runs, for lost cached partitions) DRAM-only.  The
            # displaced working set cannot make the phase *faster* than
            # the healthy placement — capacity loss is never a win.
            phase_ns = max(healthy, self._phase_time_ns(dram_only=True, **phase_kwargs))
            reexec_ns = 0.0
        else:
            lat_m, bw_m = self._window_multipliers(node, t0, t1)
            phase_ns = self._phase_time_ns(
                lat_mult_cxl=lat_m, bw_mult_cxl=bw_m, **phase_kwargs
            )
            # Tasks in flight when the device dropped are re-executed on
            # the surviving DRAM tier.
            reexec_ns = (
                off_frac
                * max(healthy, self._phase_time_ns(dram_only=True, **phase_kwargs))
                if off_frac > 0
                else 0.0
            )
        poisoned = 0
        if poisonable_bytes > 0:
            pf = self.faults.poison_fraction_in(node, self._poison_cursor_ns, t1)
            self._poison_cursor_ns = t1
            if pf > 0:
                frac = min(1.0, pf) * self.config.cxl_fraction
                poisoned = int(poisonable_bytes * frac)
                reexec_ns += frac * phase_ns
        self._now_ns = t1 + reexec_ns
        return phase_ns, reexec_ns, poisoned

    # -- stage execution ---------------------------------------------------------

    def _run_stage(self, stage: QueryStage, app: SparkAppSpec) -> StageResult:
        cfg = self.config
        costs = self.costs
        result = StageResult(stage.name)
        cores_per_server = app.total_cores // cfg.servers

        result.compute_ns, compute_reexec_ns, _ = self._run_phase(
            bytes_per_server=stage.input_bytes / cfg.servers,
            cores=cores_per_server,
            cpu_ns_per_byte=stage.cpu_ns_per_byte * costs.compute_cpu_scale,
            rand_per_byte=stage.rand_per_byte * costs.compute_rand_scale,
            stream_per_core=costs.compute_stream_per_core,
            amplification=1.0,
            write_fraction=0.2,
        )

        spill = plan_spill(app, stage.shuffle_bytes, cfg.memory_restriction)
        result.spilled_bytes = spill.spilled_bytes
        shuffle_mem_ns, shuffle_reexec_ns, result.poisoned_bytes = self._run_phase(
            poisonable_bytes=float(stage.shuffle_bytes),
            bytes_per_server=stage.shuffle_bytes / cfg.servers,
            cores=cores_per_server,
            cpu_ns_per_byte=costs.shuffle_cpu_ns_per_byte,
            rand_per_byte=costs.shuffle_rand_per_byte,
            stream_per_core=costs.shuffle_stream_per_core,
            amplification=MEMORY_PASSES,
            write_fraction=0.5,
        )
        result.reexec_ns = compute_reexec_ns + shuffle_reexec_ns
        spill_ns = ssd_time_ns(
            spill.spilled_bytes, cfg.servers, cfg.platform.spec.ssds[0]
        )
        result.spill_ssd_ns = spill_ns
        net_ns = network_time_ns(stage.shuffle_bytes, cfg.servers, cfg.platform.spec.nic)
        result.network_ns = net_ns
        # SSD and network legs advance the fault timeline too.
        self._now_ns += spill_ns + net_ns
        # Write side: partition+sort (half the memory passes) plus the
        # spill write; read side: fetch/merge plus spill read-back and
        # the network leg.
        result.shuffle_write_ns = shuffle_mem_ns * 0.5 + spill_ns * 0.5
        result.shuffle_read_ns = shuffle_mem_ns * 0.5 + spill_ns * 0.5 + net_ns

        # Tiering-daemon thrashing (hot-promote under low locality).
        if cfg.thrash_overhead > 0:
            result.compute_ns *= 1.0 + cfg.thrash_overhead
            result.shuffle_write_ns *= 1.0 + cfg.thrash_overhead
            result.shuffle_read_ns *= 1.0 + cfg.thrash_overhead
        return result

    def run_query(self, profile: QueryProfile) -> QueryResult:
        """Execute one TPC-H query profile; returns per-stage times."""
        result = QueryResult(query=profile.name, config=self.config.name)
        for stage in profile.stages:
            result.stages.append(self._run_stage(stage, self.config.app))
        return result

    def run_queries(self, profiles: Dict[str, QueryProfile]) -> Dict[str, QueryResult]:
        """Execute several queries (one Fig. 7 configuration column)."""
        return {name: self.run_query(profile) for name, profile in profiles.items()}

"""The KeyDB server model: multi-threaded closed-loop operation pricing.

KeyDB runs several *server threads* over the standard Redis event loop
(seven in the paper, §4.1.1).  The simulation advances in epochs:

1. draw a batch of YCSB operations and resolve them to a
   :class:`~repro.apps.kvstore.store.BatchPlan` (touching pages so the
   tiering daemons see real access history);
2. price every operation using the *current* loaded latencies —
   structure walks at the store's placement mix, value accesses at the
   key's own page (one service table per epoch, indexed by
   ``(is_write, node)``), SSD faults/persistence at the FLASH tier;
3. advance the clock by ``sum(op times) / threads`` (threads drain the
   closed-loop client in parallel);
4. feed the epoch's traffic back through the platform's bandwidth
   allocator to refresh per-node utilizations for the next epoch, and
   let the tiering daemon run — migration bytes stall the server for
   ``bytes / migration_bandwidth``.

This fixed-point-over-epochs scheme converges in one or two epochs for
these workloads because capacity-bound KV traffic sits far below the
bandwidth knee (which is precisely the paper's point in §4.1.2: "our
workload [is] primarily constrained by memory capacity rather than
memory bandwidth").

Within an epoch the clock, the latencies and the SSD utilization are
fixed, so the epoch is priced as arrays, with the float operations of a
per-op loop in its order (busy time is a running sum, latencies go
through a sequential Welford update).  Two steps stay per operation:
the store's FLASH LRU walk and, in a faulted run, the RAS gate, since
each depends on the operations before it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ...errors import (
    ConfigurationError,
    DeviceFaultError,
    MigrationError,
    PoisonedReadError,
    RetryExhaustedError,
)
from ...faults.injector import FaultInjector
from ...faults.metrics import RecoveryTracker
from ...faults.retry import RetryPolicy, retry_call
from ...hw.paths import MemoryPath
from ...hw.topology import Platform
from ...mem.page import Page
from ...mem.tiering.base import TieringDaemon
from ...sim.stats import Counter
from ...units import gb_per_s
from ...workloads.ycsb import YcsbGenerator
from .result import KeyDbResult
from .store import BatchPlan, KeyValueStore

__all__ = ["KeyDbResult", "KeyDbServer"]

#: Effective single-threaded kernel page-copy bandwidth for migrations.
MIGRATION_BANDWIDTH = gb_per_s(6.0)


class KeyDbServer:
    """Prices YCSB operations against the platform's memory paths."""

    def __init__(
        self,
        platform: Platform,
        store: KeyValueStore,
        threads: int = 7,
        socket: int = 0,
        tiering: Optional[TieringDaemon] = None,
    ) -> None:
        if threads <= 0:
            raise ConfigurationError("threads must be positive")
        self.platform = platform
        self.store = store
        self.threads = threads
        self.socket = socket
        self.tiering = tiering
        self._paths: Dict[int, MemoryPath] = {}
        self._utilization: Dict[str, float] = {}
        #: Access-weighted node mix of the previous epoch.  Shared server
        #: structures (hash buckets, robjs) are touched in proportion to
        #: key popularity, so after Hot-Promote converges the structure
        #: walk runs almost entirely out of DRAM even though half the
        #: *bytes* still sit on CXL — this is why Hot-Promote tracks the
        #: MMEM configuration in Fig. 5(a).
        self._access_mix: Dict[int, float] = {}
        self.now_ns = 0.0
        self.faults: Optional[FaultInjector] = None
        self.retry_policy = RetryPolicy()
        self.recovery: Optional[RecoveryTracker] = None

    def attach_faults(
        self,
        injector: FaultInjector,
        retry_policy: Optional[RetryPolicy] = None,
        tracker: Optional[RecoveryTracker] = None,
    ) -> None:
        """Enable RAS behaviour: fault gating, failover, retry budget.

        The degradation policy is the one a production KeyDB deployment
        with a replica would use: a poisoned value page is remapped to
        healthy DRAM and rewritten (scrubbing the poison); a page on a
        failed device is remapped and refilled the same way; either
        path retries under ``retry_policy``'s backoff budget and the
        operation is *shed* once the budget is exhausted.
        """
        self.faults = injector
        if retry_policy is not None:
            self.retry_policy = retry_policy
        self.recovery = tracker
        injector.bind_pages(lambda: self.store.pages)

    def _path(self, node_id: int) -> MemoryPath:
        if node_id not in self._paths:
            self._paths[node_id] = self.platform.path(self.socket, node_id)
        return self._paths[node_id]

    def _node_latency(self, node_id: int, write_fraction: float) -> float:
        path = self._path(node_id)
        u = path.bottleneck_utilization(self._utilization)
        return path.loaded_latency_ns(u, write_fraction)

    def _epoch_latency_tables(self) -> np.ndarray:
        """The service table of one epoch: ``table[is_write, node]`` ns.

        Each entry is :meth:`ServiceProfile.service_ns` at the node's
        loaded latency (times any fault multiplier) and the struct walk's
        mix-average latency, without SSD work.  Latencies change only
        when utilization or placement changes — once per epoch — so
        pricing 2000 ops must not recompute the placement mix 2000 times.
        """
        mix = self._access_mix or self.store.node_mix()
        read_lat = {n: self._node_latency(n, 0.0) for n in self.platform.nodes}
        write_lat = {n: self._node_latency(n, 1.0) for n in self.platform.nodes}
        if self.faults is not None:
            for n in read_lat:
                mult = self.faults.latency_multiplier(n, self.now_ns)
                if mult != 1.0:
                    read_lat[n] *= mult
                    write_lat[n] *= mult
        struct_read = sum(frac * read_lat[n] for n, frac in mix.items())
        struct_write = sum(frac * write_lat[n] for n, frac in mix.items())
        profile = self.store.profile
        table = np.zeros((2, max(self.platform.nodes) + 1))
        for n in read_lat:
            table[0, n] = profile.service_ns(struct_read, read_lat[n])
            table[1, n] = profile.service_ns(struct_write, write_lat[n])
        return table

    def _price(
        self,
        is_write: np.ndarray,
        nodes: np.ndarray,
        ssd_read: np.ndarray,
        ssd_utilization: float,
        table: np.ndarray,
    ) -> np.ndarray:
        """Service time of each operation at current latencies.

        The per-op sum, one operation after another: the service table's
        entry for the op, plus the SSD read, plus the SSD write.
        Elementwise float64 arithmetic rounds as scalar arithmetic does,
        so the times are the per-op ones to the bit.
        """
        times = table[is_write.astype(np.intp), nodes]
        flash = self.store.flash
        if flash is not None:
            reads = np.flatnonzero(ssd_read)
            if len(reads):
                times[reads] += flash.read_times_ns(
                    len(reads), self.store.value_size, ssd_utilization
                )
            writes = int(np.count_nonzero(is_write))
            if writes:
                times[is_write] += flash.write_time_ns(
                    self.store.value_size, ssd_utilization, count=writes
                )
        return times

    # -- degradation policy ------------------------------------------------

    def _failover_page(self, page: Page) -> bool:
        """Remap a page off its (failed/poisoned) node onto healthy DRAM."""
        for node in self.platform.dram_nodes(online_only=True):
            if node.node_id == page.node_id:
                continue
            try:
                self.store.space.move_page(page, node.node_id)
            except MigrationError:
                continue
            return True
        return False

    def _apply_fault_policy(
        self, page: Page, counters: Counter
    ) -> "tuple[bool, float]":
        """Gate one read of ``page`` against RAS state.

        Returns ``(serviceable, extra_ns)`` where ``extra_ns`` is time
        spent on retries, backoff, and failover copies.  A False first
        element means the op was shed after exhausting the retry budget.
        """
        faults = self.faults
        assert faults is not None
        extra = 0.0

        def note_backoff(attempt: int, backoff_ns: float) -> None:
            nonlocal extra
            del attempt
            extra += backoff_ns
            counters.add("fault_retries", 1)
            counters.add("retry_backoff_ns", backoff_ns)

        def attempt(_n: int) -> bool:
            nonlocal extra
            try:
                faults.check_read(page)
            except PoisonedReadError:
                # Remap to healthy DRAM and rewrite from the replica /
                # FLASH copy; the rewrite scrubs the poison.  The retry
                # (after backoff) then lands on clean memory.
                counters.add("poison_reads", 1)
                if self._failover_page(page):
                    counters.add("failover_bytes", page.size)
                    extra += page.size / MIGRATION_BANDWIDTH * 1e9
                faults.scrub(page)
                raise
            except DeviceFaultError:
                counters.add("device_fault_reads", 1)
                if self._failover_page(page):
                    counters.add("failover_bytes", page.size)
                    extra += page.size / MIGRATION_BANDWIDTH * 1e9
                raise
            return True

        try:
            retry_call(attempt, self.retry_policy, note_backoff)
        except RetryExhaustedError:
            return False, extra
        return True, extra

    def _gate(
        self, plan: BatchPlan, counters: Counter
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gate every operation of an epoch, in order, before pricing.

        Returns per-op arrays: the node the value is read from after any
        failover, the extra ns spent on retries and failover, and whether
        the operation is served.  A failover moves the page for the
        operations after it, so the gate runs op by op.
        """
        nodes, extra, served = [], [], []
        for i in plan.page_index.tolist():
            page = plan.pages[i]
            serviceable, extra_ns = self._apply_fault_policy(page, counters)
            if not serviceable:
                counters.add("ops_shed", 1)
            nodes.append(page.node_id)
            extra.append(extra_ns)
            served.append(serviceable)
        return np.array(nodes), np.array(extra), np.array(served, dtype=bool)

    def run(
        self,
        generator: YcsbGenerator,
        total_ops: int,
        epoch_ops: int = 2000,
        warmup_ops: int = 0,
    ) -> KeyDbResult:
        """Run ``total_ops`` operations; discard ``warmup_ops`` from stats.

        Warmup lets the Hot-Promote daemon converge before measurement,
        matching how the paper loads the dataset and runs YCSB after the
        kernel has had time to react.
        """
        if total_ops <= 0 or epoch_ops <= 0:
            raise ConfigurationError("op counts must be positive")
        result = KeyDbResult()
        touched = self.store.op_bytes()
        ssd_utilization = 0.0
        done = 0
        while done < total_ops:
            if self.faults is not None:
                self.faults.advance(self.now_ns)
            batch = min(epoch_ops, total_ops - done)
            keys, is_write = generator.next_batch(batch)
            plan = self.store.plan_batch(keys, is_write, self.now_ns)
            measuring = done >= warmup_ops
            table = self._epoch_latency_tables()
            if self.faults is None:
                node_of_page = np.array([page.node_id for page in plan.pages])
                nodes = node_of_page[plan.page_index]
                extra = np.zeros(batch)
                served = np.ones(batch, dtype=bool)
            else:
                nodes, extra, served = self._gate(plan, result.counters)
            is_write, nodes, ssd_read = (
                is_write[served], nodes[served], plan.ssd_read[served]
            )
            times = self._price(is_write, nodes, ssd_read, ssd_utilization, table)
            # Busy time is a running sum, left to right, over each op's
            # gate time and then its service time (none for a shed op).
            # Adding 0.0 leaves the sum unchanged.
            steps = np.zeros(2 * batch)
            steps[0::2] = extra
            steps[1::2][served] = times
            busy = np.cumsum(steps)
            epoch_busy_ns = float(busy[-1])
            latencies = times + extra[served]
            if measuring:
                result.write_latency.record_all(latencies[is_write].tolist())
                result.read_latency.record_all(latencies[~is_write].tolist())
                if self.recovery is not None:
                    self._record_recovery(busy, served, extra, latencies)
            ssd_bytes = self.store.value_size * int(np.count_nonzero(ssd_read))
            if self.store.flash is not None:
                ssd_bytes += self.store.value_size * int(np.count_nonzero(is_write))
            node_read_bytes = self._node_bytes(nodes[~is_write], touched)
            node_write_bytes = self._node_bytes(nodes[is_write], touched)

            epoch_ns = epoch_busy_ns / self.threads
            # Tiering daemon reacts to the access history of this epoch.
            if self.tiering is not None:
                round_ = self.tiering.tick(self.now_ns + epoch_ns)
                if round_.moved_bytes:
                    stall = round_.moved_bytes / MIGRATION_BANDWIDTH * 1e9
                    epoch_ns += stall
                    result.counters.add("migration_stall_ns", stall)
                    result.counters.add("migrated_bytes", round_.moved_bytes)

            self.now_ns += epoch_ns
            done += batch
            if measuring:
                result.ops += len(times)
                result.elapsed_ns += epoch_ns
            result.counters.add("ssd_bytes", ssd_bytes)

            # Refresh utilizations and the access-weighted node mix from
            # this epoch's traffic.
            self._refresh_utilization(node_read_bytes, node_write_bytes, epoch_ns)
            total_touched = sum(node_read_bytes.values()) + sum(node_write_bytes.values())
            if total_touched > 0:
                self._access_mix = {
                    node: (node_read_bytes.get(node, 0.0) + node_write_bytes.get(node, 0.0))
                    / total_touched
                    for node in set(node_read_bytes) | set(node_write_bytes)
                }
            ssd_utilization = self._ssd_utilization(ssd_bytes, epoch_ns)
        return result

    @staticmethod
    def _node_bytes(nodes: np.ndarray, touched: int) -> Dict[int, float]:
        """Bytes the operations on ``nodes`` move, per node."""
        return {
            node: float(count * touched)
            for node, count in enumerate(np.bincount(nodes).tolist())
            if count
        }

    def _record_recovery(
        self,
        busy: np.ndarray,
        served: np.ndarray,
        extra: np.ndarray,
        latencies: np.ndarray,
    ) -> None:
        """Report each gated operation to the recovery tracker, in order.

        ``busy`` holds the running busy time after each gate and after
        each service; an op finishes (or is shed) when its last step ends.
        """
        assert self.recovery is not None
        at = (self.now_ns + busy / self.threads).tolist()
        served_latency = iter(latencies.tolist())
        for i, (ok, extra_ns) in enumerate(zip(served.tolist(), extra.tolist())):
            if ok:
                self.recovery.record(at[2 * i + 1], next(served_latency), ok=True)
            else:
                self.recovery.record(at[2 * i], extra_ns, ok=False)

    def _refresh_utilization(
        self,
        node_read_bytes: Dict[int, float],
        node_write_bytes: Dict[int, float],
        epoch_ns: float,
    ) -> None:
        if epoch_ns <= 0:
            return
        demands = []
        nodes = set(node_read_bytes) | set(node_write_bytes)
        for node in nodes:
            reads = node_read_bytes.get(node, 0.0)
            writes = node_write_bytes.get(node, 0.0)
            total = reads + writes
            if total <= 0:
                continue
            rate = total / (epoch_ns / 1e9)
            demands.append(
                self.platform.demand(
                    f"keydb/{node}", self._path(node), rate, writes / total
                )
            )
        if demands:
            self._utilization = self.platform.allocate(demands).utilization
        else:
            self._utilization = {}

    def _ssd_utilization(self, ssd_bytes: int, epoch_ns: float) -> float:
        if epoch_ns <= 0 or ssd_bytes == 0 or self.store.flash is None:
            return 0.0
        rate = ssd_bytes / (epoch_ns / 1e9)
        cap = self.store.flash.ssd.spec.read_bandwidth_bytes_per_s
        return min(0.9, rate / cap)

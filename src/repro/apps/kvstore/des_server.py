"""Event-driven KeyDB: the closed-loop DES counterpart of the epoch model.

:class:`~repro.apps.kvstore.server.KeyDbServer` advances in epochs — a
fast fixed-point over thousands of operations.  This module runs the
*same* store and pricing event by event instead:

* the server's threads are a FIFO pool of seven (as in §4.1.1);
* each closed-loop client draws an operation, waits for a thread,
  holds it for the op's priced service time, and immediately issues
  the next request;
* latencies now include *queueing for a server thread*, which the epoch
  model folds into its averaging.

Running both and comparing (see ``tests/apps/test_des_server.py``)
validates the epoch scheme's shortcut: aggregate throughput agrees to
within a few percent while the DES path additionally exposes the
thread-contention component of the tails.  The closed loop
(:meth:`DesKeyDbServer.run`) runs on the discrete-event engine, with a
:class:`~repro.sim.resources.Resource` for the threads.  It has no
admission control: it self-clocks at the service rate and cannot
overload the server.

:meth:`DesKeyDbServer.run_open_loop` is the overload experiments'
server: Poisson arrivals at a fixed offered rate, gated by the
:class:`~repro.overload.policy.OverloadController` it is given.  It is
a direct loop over arrival and completion times that keeps the
engine's event order, so it needs no engine processes and no object
per arrival; ``tests/apps/test_open_loop.py`` pins it to the
engine-process loop it replaced.

Both loops serve an op the same way: :meth:`KeyValueStore.plan_op
<repro.apps.kvstore.store.KeyValueStore.plan_op>` touches its page and
walks the FLASH tier, and :meth:`DesKeyDbServer._price` reads the op's
memory time from a service table, ``{is_write: {node: ns}}``, and adds
any SSD time.  The table is rebuilt with the latency tables at each
utilization refresh, and its entries are
:meth:`~repro.apps.kvstore.store.ServiceProfile.service_ns`, as in the
epoch server's table.  Latencies are recorded in batches at each
refresh (:meth:`~repro.sim.stats.LatencyHistogram.record_all`).
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ...errors import ConfigurationError
from ...faults.injector import FaultInjector
from ...hw.paths import MemoryPath
from ...hw.topology import Platform
from ...mem.page import Page
from ...obs.tracing import NULL_TRACER, Tracer
from ...overload.policy import REASON_DOOMED, REASON_EXPIRED, OverloadController
from ...sim.engine import Simulator
from ...sim.resources import Resource
from ...workloads.ycsb import YcsbGenerator
from .result import KeyDbResult
from .store import KeyValueStore

__all__ = ["DesKeyDbServer"]

#: Arrivals drawn per block by the open loop: gaps, times and operations
#: stream in blocks of this size, so memory does not grow with the run.
_ARRIVAL_BLOCK = 2048


def _arrivals(
    generator: YcsbGenerator,
    rate_ops_per_s: float,
    duration_ns: float,
    seed: int,
) -> Iterator[Tuple[float, Optional[int], bool]]:
    """Poisson arrivals with their operations, up to the close.

    Yields ``(time, key, is_write)`` for each arrival before
    ``duration_ns``, then ``(time, None, False)`` for the first arrival
    at or past it, which closes the stream and draws no operation.
    Each block's times are sequential float sums from the previous
    arrival, the same numbers as adding one gap at a time; the gap
    stream belongs to the run, so drawing a block ahead changes nothing.
    """
    rng = np.random.default_rng(seed)
    mean_gap_ns = 1e9 / rate_ops_per_s
    t = 0.0
    while True:
        gaps = rng.exponential(mean_gap_ns, size=_ARRIVAL_BLOCK)
        times = np.cumsum(np.concatenate(([t], gaps)))[1:]
        t = times[-1]
        before = int(np.searchsorted(times, duration_ns))
        if before:
            keys, writes = generator.next_batch(before)
            yield from zip(times[:before].tolist(), keys.tolist(),
                           writes.tolist())
        if before < _ARRIVAL_BLOCK:
            yield float(times[before]), None, False
            return


class DesKeyDbServer:
    """A thread-pool server under closed-loop clients or open-loop arrivals."""

    def __init__(
        self,
        platform: Platform,
        store: KeyValueStore,
        threads: int = 7,
        socket: int = 0,
        clients: int = 16,
        utilization_refresh_ops: int = 2000,
        tracer: Tracer = NULL_TRACER,
        engine_profile=None,
    ) -> None:
        if threads <= 0 or clients <= 0:
            raise ConfigurationError("threads and clients must be positive")
        if utilization_refresh_ops <= 0:
            raise ConfigurationError("utilization_refresh_ops must be positive")
        self.platform = platform
        self.store = store
        self.threads = threads
        self.socket = socket
        self.clients = clients
        self.refresh_ops = utilization_refresh_ops
        #: Request-scoped span recorder (no-op unless a live Tracer is
        #: passed; tracing must never perturb the simulation).
        self.tracer = tracer
        #: Optional :class:`repro.obs.profile.EngineProfile` installed
        #: on each closed-loop run's simulator (the open loop runs none).
        self.engine_profile = engine_profile
        self._paths: Dict[int, MemoryPath] = {}
        self._utilization: Dict[str, float] = {}
        self._lat_cache: Dict[int, Dict[int, float]] = {}
        self._service: Dict[int, Dict[int, float]] = {}

    def _path(self, node_id: int) -> MemoryPath:
        if node_id not in self._paths:
            self._paths[node_id] = self.platform.path(self.socket, node_id)
        return self._paths[node_id]

    def _latency_tables(self) -> None:
        self._lat_cache = {
            0: {
                n: self._path(n).loaded_latency_ns(
                    self._path(n).bottleneck_utilization(self._utilization), 0.0
                )
                for n in self.platform.nodes
            },
            1: {
                n: self._path(n).loaded_latency_ns(
                    self._path(n).bottleneck_utilization(self._utilization), 1.0
                )
                for n in self.platform.nodes
            },
        }
        mix = self.store.node_mix()
        self._struct = {
            w: sum(frac * self._lat_cache[w][n] for n, frac in mix.items())
            for w in (0, 1)
        }
        profile = self.store.profile
        self._service = {
            w: {
                n: profile.service_ns(self._struct[w], latency)
                for n, latency in self._lat_cache[w].items()
            }
            for w in (0, 1)
        }

    def _price(
        self, page: Page, is_write: bool, ssd_read: int, ssd_write: int
    ) -> float:
        """Service time of one op on ``page``: the table, then SSD time."""
        time_ns = self._service[is_write][page.node_id]
        if ssd_read:
            time_ns += self.store.flash.read_time_ns(ssd_read)
        if ssd_write:
            time_ns += self.store.flash.write_time_ns(ssd_write)
        return time_ns

    def _emit_op_trace(
        self,
        page: Page,
        is_write: bool,
        arrival_ns: float,
        service_start_ns: float,
        end_ns: float,
        service_ns: float,
        cpu_ns: float,
        struct_ns: float,
        value_ns: float,
        degrade_ns: float = 0.0,
    ) -> None:
        """Record one op's per-layer spans; they sum to ``end - arrival``.

        The layer components were captured at pricing time (a
        utilization refresh may retune the latency tables mid-service),
        and the SSD share is derived as the pricing residual so the
        spans reproduce the priced service time exactly.
        """
        op = self.tracer.op("ycsb.set" if is_write else "ycsb.get", arrival_ns)
        op.span("admission", "queue_wait", arrival_ns,
                service_start_ns - arrival_ns)
        t = service_start_ns
        op.span("app", "redis_cpu", t, cpu_ns)
        t += cpu_ns
        op.span("mem", "struct_walk", t, struct_ns,
                accesses=self.store.profile.struct_accesses)
        t += struct_ns
        op.span("hw", "value_access", t, value_ns, node=page.node_id)
        t += value_ns
        flash_ns = service_ns - cpu_ns - struct_ns - value_ns
        # Strictly-positive residual can still be fp noise from the
        # subtraction; only a residual visible at op scale is real IO.
        if flash_ns > 1e-9 * service_ns:
            op.span("device", "flash_io", t, flash_ns)
            t += flash_ns
        if degrade_ns > 0.0:
            op.span("device", "fault_degrade", t, degrade_ns)
        op.finish(end_ns)

    def run(self, generator: YcsbGenerator, total_ops: int) -> KeyDbResult:
        """Run the closed loop until ``total_ops`` complete."""
        if total_ops <= 0:
            raise ConfigurationError("total_ops must be positive")
        sim = Simulator()
        if self.engine_profile is not None:
            self.engine_profile.attach(sim)
        tracer = self.tracer
        server_threads = Resource(sim, self.threads)
        result = KeyDbResult()
        self._latency_tables()
        profile = self.store.profile
        touched = self.store.op_bytes()
        state = {"issued": 0, "done": 0, "since_refresh": 0}
        node_bytes: Dict[int, float] = {}
        node_write_bytes: Dict[int, float] = {}
        refresh_anchor = {"t": 0.0}

        def client():
            while state["issued"] < total_ops:
                state["issued"] += 1
                op = generator.next_operation()
                is_write = op.is_write
                arrival = sim.now
                grant = server_threads.request()
                yield grant
                page, ssd_read, ssd_write = self.store.plan_op(
                    op.key, is_write, sim.now
                )
                service = self._price(page, is_write, ssd_read, ssd_write)
                if tracer.enabled:
                    trace_start = sim.now
                    trace_cpu = profile.cpu_ns
                    trace_struct = profile.struct_accesses * self._struct[is_write]
                    trace_value = (
                        profile.value_accesses
                        * self._lat_cache[is_write][page.node_id]
                    )
                yield sim.timeout(service)
                if tracer.enabled:
                    self._emit_op_trace(
                        page, is_write, arrival, trace_start, sim.now, service,
                        trace_cpu, trace_struct, trace_value,
                    )
                server_threads.release()
                total_latency = sim.now - arrival  # queueing + service
                if is_write:
                    result.write_latency.record(total_latency)
                else:
                    result.read_latency.record(total_latency)
                node = page.node_id
                node_bytes[node] = node_bytes.get(node, 0.0) + touched
                if is_write:
                    node_write_bytes[node] = (
                        node_write_bytes.get(node, 0.0) + touched
                    )
                state["done"] += 1
                state["since_refresh"] += 1
                if state["since_refresh"] >= self.refresh_ops:
                    state["since_refresh"] = 0
                    self._refresh(node_bytes, node_write_bytes,
                                  sim.now - refresh_anchor["t"])
                    refresh_anchor["t"] = sim.now
                    node_bytes.clear()
                    node_write_bytes.clear()

        for _ in range(self.clients):
            sim.process(client())
        sim.run()
        result.ops = state["done"]
        result.elapsed_ns = sim.now
        return result

    def run_open_loop(
        self,
        generator: YcsbGenerator,
        controller: OverloadController,
        arrival_rate_ops_per_s: float,
        duration_ns: float,
        seed: int = 0,
        injector: Optional[FaultInjector] = None,
    ) -> KeyDbResult:
        """Open-loop (Poisson-arrival) run for the overload experiments.

        Unlike the closed loop — which self-clocks and can never
        overload the server — arrivals here come at a fixed offered
        rate regardless of completions, so offered load past the
        capacity knee piles into the FIFO admission queue.  Under a
        controlling policy ``controller`` rejects arrivals at a full
        queue, below the capacity-loss priority floor or past the token
        bucket; expired waiters are shed at dispatch, and so is work
        that cannot finish before its deadline.  Under
        :meth:`~repro.overload.policy.OverloadPolicy.monitor_only` the
        queue is effectively unbounded and every arrival is served,
        however late — the uncontrolled baseline of the goodput
        experiments.

        The run is a direct loop over arrival and completion times, with
        no engine processes, but it orders events as the engine does: by
        time, then by the order they were scheduled.  An admitting
        arrival wakes an idle thread before it schedules the next
        arrival, and a dispatch schedules its completion, so a
        completion that lands exactly on an arrival time keeps its
        place.  The first arrival at or past ``duration_ns`` closes the
        stream: idle threads stop and busy ones drain the queue.
        """
        if not (math.isfinite(arrival_rate_ops_per_s) and arrival_rate_ops_per_s > 0):
            raise ConfigurationError("arrival_rate_ops_per_s must be finite and positive")
        if not (math.isfinite(duration_ns) and duration_ns > 0):
            raise ConfigurationError("duration_ns must be finite and positive")
        tracer = self.tracer
        result = KeyDbResult()
        counters = result.counters
        self._latency_tables()
        policy = controller.policy
        levels = policy.priority_levels
        budget = policy.default_budget_ns
        shed_late = policy.shed_doomed
        try_admit = controller.try_admit
        complete = controller.complete
        shed = controller.shed
        plan_op = self.store.plan_op
        price = self._price
        profile = self.store.profile
        touched = self.store.op_bytes()
        refresh_ops = self.refresh_ops
        arrivals = _arrivals(
            generator, arrival_rate_ops_per_s, duration_ns, seed
        )
        # Admitted requests waiting for a thread, oldest first:
        # (arrival_ns, deadline_ns, key, is_write).
        waiting: Deque[Tuple[float, float, int, bool]] = deque()
        # (time, seq, job): a woken idle thread (job None) or a
        # completion; seq is the scheduling order.  At most one entry
        # per thread.
        events: List[Tuple[float, int, Optional[tuple]]] = []
        idle = self.threads
        closed = False
        now = 0.0
        t_next, key, is_write = next(arrivals)
        seq_next = 0
        seq = 1
        offered = done = since_refresh = shed_expired = 0
        node_bytes: Dict[int, float] = {}
        node_write_bytes: Dict[int, float] = {}
        refresh_anchor = 0.0
        # Latencies since the last flush, in completion order.
        latencies: List[float] = []
        read_latencies: List[float] = []
        write_latencies: List[float] = []

        def flush() -> None:
            controller.record_latencies(latencies)
            result.read_latency.record_all(read_latencies)
            result.write_latency.record_all(write_latencies)
            latencies.clear()
            read_latencies.clear()
            write_latencies.clear()

        while True:
            if events and (
                events[0][0] < t_next
                or (events[0][0] == t_next and events[0][1] < seq_next)
            ):
                now, _, job = heappop(events)
                if job is not None:
                    page, op_write, arrival, deadline, trace = job
                    if trace is not None:
                        start, base, cpu, struct, value, degrade = trace
                        self._emit_op_trace(
                            page, op_write, arrival, start, now, base, cpu,
                            struct, value, degrade_ns=degrade,
                        )
                    latency = now - arrival  # queueing + service
                    if not complete(deadline, now):
                        counters.add("deadline_misses", 1)
                    latencies.append(latency)
                    node = page.node_id
                    node_bytes[node] = node_bytes.get(node, 0.0) + touched
                    if op_write:
                        write_latencies.append(latency)
                        node_write_bytes[node] = (
                            node_write_bytes.get(node, 0.0) + touched
                        )
                    else:
                        read_latencies.append(latency)
                    done += 1
                    since_refresh += 1
                    if since_refresh >= refresh_ops:
                        since_refresh = 0
                        self._refresh(node_bytes, node_write_bytes,
                                      now - refresh_anchor)
                        refresh_anchor = now
                        node_bytes.clear()
                        node_write_bytes.clear()
                        flush()
                # The free thread takes the next serviceable request.
                while waiting:
                    arrival, deadline, op_key, op_write = waiting.popleft()
                    if shed_late and now > deadline:
                        shed_expired += 1
                        shed(REASON_EXPIRED)
                        continue
                    page, ssd_read, ssd_write = plan_op(op_key, op_write, now)
                    service = base = price(page, op_write, ssd_read, ssd_write)
                    if injector is not None:
                        service *= injector.latency_multiplier(page.node_id, now)
                    if shed_late and now + service > deadline:
                        counters.add("ops_shed_doomed", 1)
                        shed(REASON_DOOMED)
                        continue
                    trace = None
                    if tracer.enabled:
                        trace = (
                            now,
                            base,
                            profile.cpu_ns,
                            profile.struct_accesses * self._struct[op_write],
                            profile.value_accesses
                            * self._lat_cache[op_write][page.node_id],
                            service - base,
                        )
                    heappush(events, (now + service, seq,
                                      (page, op_write, arrival, deadline, trace)))
                    seq += 1
                    break
                else:  # nothing to serve: idle, or stop once closed
                    if not closed:
                        idle += 1
                continue
            if closed:
                break
            now = t_next
            if key is None:  # the first arrival at or past the duration
                closed = True
                t_next = math.inf
                continue
            if injector is not None:
                injector.advance(now)
            if try_admit(offered % levels, now, len(waiting)):
                waiting.append((now, now + budget, key, is_write))
                if idle:
                    idle -= 1
                    heappush(events, (now, seq, None))
                    seq += 1
            else:
                counters.add("ops_rejected", 1)
            offered += 1
            t_next, key, is_write = next(arrivals)
            seq_next = seq
            seq += 1
        flush()
        counters.add("ops_shed_expired", shed_expired)
        result.ops = done
        result.elapsed_ns = max(now, duration_ns)
        return result

    def _refresh(
        self,
        node_bytes: Dict[int, float],
        node_write_bytes: Dict[int, float],
        window_ns: float,
    ) -> None:
        if window_ns <= 0:
            return
        demands = []
        for node, total in node_bytes.items():
            writes = node_write_bytes.get(node, 0.0)
            rate = total / (window_ns / 1e9)
            demands.append(
                self.platform.demand(
                    f"des/{node}", self._path(node), rate, writes / total
                )
            )
        if demands:
            self._utilization = self.platform.allocate(demands).utilization
        self._latency_tables()

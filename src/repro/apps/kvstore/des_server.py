"""Event-driven KeyDB: the closed-loop DES counterpart of the epoch model.

:class:`~repro.apps.kvstore.server.KeyDbServer` advances in epochs — a
fast fixed-point over thousands of operations.  This module runs the
*same* store and pricing through the discrete-event engine instead:

* the server's threads are a FIFO :class:`~repro.sim.resources.Resource`
  (seven slots, as in §4.1.1);
* each closed-loop client process draws an operation, waits for a
  thread, holds it for the op's priced service time, and immediately
  issues the next request;
* latencies now include *queueing for a server thread*, which the epoch
  model folds into its averaging.

Running both and comparing (see ``tests/apps/test_des_server.py``)
validates the epoch scheme's shortcut: aggregate throughput agrees to
within a few percent while the DES path additionally exposes the
thread-contention component of the tails.  The closed loop has no
admission control: it self-clocks at the service rate and cannot
overload the server.

:meth:`DesKeyDbServer.run_open_loop` is the overload experiments'
server: Poisson arrivals at a fixed offered rate, gated by the
:class:`~repro.overload.policy.OverloadController` it is given.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

import numpy as np

from ...errors import ConfigurationError
from ...faults.injector import FaultInjector
from ...hw.paths import MemoryPath
from ...hw.topology import Platform
from ...obs.tracing import NULL_TRACER, Tracer
from ...overload.policy import REASON_QUEUE_FULL, OverloadController
from ...sim.engine import Event, Simulator
from ...sim.resources import Resource
from ...workloads.ycsb import YcsbGenerator
from .server import KeyDbResult
from .store import KeyValueStore

__all__ = ["DesKeyDbServer"]


class DesKeyDbServer:
    """Closed-loop clients against a thread-pool server, on the DES."""

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
        #: on each run's simulator.
        self.engine_profile = engine_profile
        self._paths: Dict[int, MemoryPath] = {}
        self._utilization: Dict[str, float] = {}
        self._lat_cache: Dict[int, Dict[int, float]] = {}

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

    def _price(self, plan) -> float:
        w = 1 if plan.is_write else 0
        time_ns = self.store.profile.cpu_ns
        time_ns += plan.struct_accesses * self._struct[w]
        time_ns += plan.value_accesses * self._lat_cache[w][plan.value_page.node_id]
        if self.store.flash is not None:
            if plan.ssd_read_bytes:
                time_ns += self.store.flash.read_time_ns(plan.ssd_read_bytes)
            if plan.ssd_write_bytes:
                time_ns += self.store.flash.write_time_ns(plan.ssd_write_bytes)
        return time_ns

    def _emit_op_trace(
        self,
        plan,
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
        op = self.tracer.op("ycsb.set" if plan.is_write else "ycsb.get", arrival_ns)
        op.span("admission", "queue_wait", arrival_ns,
                service_start_ns - arrival_ns)
        t = service_start_ns
        op.span("app", "redis_cpu", t, cpu_ns)
        t += cpu_ns
        op.span("mem", "struct_walk", t, struct_ns,
                accesses=plan.struct_accesses)
        t += struct_ns
        op.span("hw", "value_access", t, value_ns,
                node=plan.value_page.node_id)
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
        state = {"issued": 0, "done": 0, "since_refresh": 0}
        node_bytes: Dict[int, float] = {}
        node_write_bytes: Dict[int, float] = {}
        refresh_anchor = {"t": 0.0}

        def client():
            while state["issued"] < total_ops:
                state["issued"] += 1
                op = generator.next_operation()
                arrival = sim.now
                grant = server_threads.request()
                yield grant
                if op.is_write:
                    plan = self.store.plan_set(op.key, sim.now)
                else:
                    plan = self.store.plan_get(op.key, sim.now)
                service = self._price(plan)
                if tracer.enabled:
                    w = 1 if plan.is_write else 0
                    trace_start = sim.now
                    trace_cpu = self.store.profile.cpu_ns
                    trace_struct = plan.struct_accesses * self._struct[w]
                    trace_value = (
                        plan.value_accesses
                        * self._lat_cache[w][plan.value_page.node_id]
                    )
                yield sim.timeout(service)
                if tracer.enabled:
                    self._emit_op_trace(
                        plan, arrival, trace_start, sim.now, service,
                        trace_cpu, trace_struct, trace_value,
                    )
                server_threads.release()
                total_latency = sim.now - arrival  # queueing + service
                if plan.is_write:
                    result.write_latency.record(total_latency)
                else:
                    result.read_latency.record(total_latency)
                node = plan.value_page.node_id
                touched = plan.value_bytes + 64 * (
                    plan.struct_accesses + plan.value_accesses
                )
                node_bytes[node] = node_bytes.get(node, 0.0) + touched
                if plan.is_write:
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
        capacity knee piles into ``controller``'s FIFO admission queue.
        Under a controlling policy the bounded queue and the token
        bucket reject the excess, expired waiters are shed at dispatch,
        and doomed work is dropped before service.  Under
        :meth:`~repro.overload.policy.OverloadPolicy.monitor_only` the
        queue is effectively unbounded and every arrival is served,
        however late — the uncontrolled baseline of the goodput
        experiments.
        """
        if arrival_rate_ops_per_s <= 0:
            raise ConfigurationError("arrival_rate_ops_per_s must be positive")
        if duration_ns <= 0:
            raise ConfigurationError("duration_ns must be positive")
        sim = Simulator()
        if self.engine_profile is not None:
            self.engine_profile.attach(sim)
        tracer = self.tracer
        rng = np.random.default_rng(seed)
        result = KeyDbResult()
        self._latency_tables()
        queue = controller.new_queue()
        levels = controller.policy.priority_levels
        shed_doomed = controller.policy.shed_doomed
        idle: Deque[Event] = deque()
        state = {"done": 0, "since_refresh": 0, "closed": False}
        node_bytes: Dict[int, float] = {}
        node_write_bytes: Dict[int, float] = {}
        refresh_anchor = {"t": 0.0}
        mean_gap_ns = 1e9 / arrival_rate_ops_per_s
        stop = object()  # sentinel waking idle workers at shutdown

        def arrivals():
            seq = 0
            while True:
                yield sim.timeout(rng.exponential(mean_gap_ns))
                if sim.now >= duration_ns:
                    break
                if injector is not None:
                    injector.advance(sim.now)
                request = controller.make_request(sim.now, priority=seq % levels)
                request.payload = generator.next_operation()
                seq += 1
                if queue.full:
                    controller.metrics.reject(REASON_QUEUE_FULL)
                    queue.rejected_full += 1
                    result.counters.add("ops_rejected", 1)
                    continue
                admitted, _ = controller.try_admit(request, sim.now)
                if not admitted:
                    result.counters.add("ops_rejected", 1)
                    continue
                queue.offer(request)
                if idle:
                    idle.popleft().succeed()
            state["closed"] = True
            while idle:
                idle.popleft().succeed(stop)

        def worker():
            while True:
                request = queue.take(sim.now)
                if request is None:
                    if state["closed"]:
                        return
                    gate = sim.event()
                    idle.append(gate)
                    value = yield gate
                    if value is stop:
                        return
                    continue
                op = request.payload
                arrival = request.arrival_ns
                if op.is_write:
                    plan = self.store.plan_set(op.key, sim.now)
                else:
                    plan = self.store.plan_get(op.key, sim.now)
                service = base_service = self._price(plan)
                if injector is not None:
                    service *= injector.latency_multiplier(
                        plan.value_page.node_id, sim.now
                    )
                if shed_doomed and request.doomed(sim.now, service):
                    result.counters.add("ops_shed_doomed", 1)
                    controller.shed(request, sim.now)
                    continue
                if tracer.enabled:
                    w = 1 if plan.is_write else 0
                    trace_start = sim.now
                    trace_cpu = self.store.profile.cpu_ns
                    trace_struct = plan.struct_accesses * self._struct[w]
                    trace_value = (
                        plan.value_accesses
                        * self._lat_cache[w][plan.value_page.node_id]
                    )
                yield sim.timeout(service)
                if tracer.enabled:
                    self._emit_op_trace(
                        plan, arrival, trace_start, sim.now, base_service,
                        trace_cpu, trace_struct, trace_value,
                        degrade_ns=service - base_service,
                    )
                latency = sim.now - arrival  # queueing + service
                if not controller.complete(request, sim.now, latency):
                    result.counters.add("deadline_misses", 1)
                if plan.is_write:
                    result.write_latency.record(latency)
                else:
                    result.read_latency.record(latency)
                node = plan.value_page.node_id
                touched = plan.value_bytes + 64 * (
                    plan.struct_accesses + plan.value_accesses
                )
                node_bytes[node] = node_bytes.get(node, 0.0) + touched
                if plan.is_write:
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

        sim.process(arrivals())
        for _ in range(self.threads):
            sim.process(worker())
        sim.run()
        result.counters.add("ops_shed_expired", queue.shed_expired)
        result.ops = state["done"]
        result.elapsed_ns = max(sim.now, duration_ns)
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

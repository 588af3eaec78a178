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
(:meth:`DesKeyDbServer.run`) has no admission control: it self-clocks
at the service rate and cannot overload the server.

:meth:`DesKeyDbServer.run_open_loop` is the overload experiments'
server: Poisson arrivals at a fixed offered rate, gated by the
:class:`~repro.overload.policy.OverloadController` it is given.

Neither loop needs an event engine.  Each walks a ``(time, seq)`` heap
of the few events it has in flight and fires them as an engine would:
by time, then in the order they were scheduled.  Operations are drawn
in blocks, and a request is a plain tuple.
``tests/apps/test_closed_loop.py`` and ``tests/apps/test_open_loop.py``
pin each loop to the engine-process loop it replaced.

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

import itertools
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
from ...workloads.ycsb import YcsbGenerator
from .result import KeyDbResult
from .store import KeyValueStore

__all__ = ["DesKeyDbServer"]

#: Operations drawn per block by both loops (with their arrival gaps in
#: the open loop), so memory does not grow with the run.
_BLOCK = 2048


def _operations(
    generator: YcsbGenerator, count: int
) -> Iterator[Tuple[int, bool]]:
    """The next ``count`` operations as ``(key, is_write)``, drawn in blocks."""
    while count > 0:
        keys, writes = generator.next_batch(min(count, _BLOCK))
        yield from zip(keys.tolist(), writes.tolist())
        count -= len(keys)


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
        gaps = rng.exponential(mean_gap_ns, size=_BLOCK)
        times = np.cumsum(np.concatenate(([t], gaps)))[1:]
        t = times[-1]
        before = int(np.searchsorted(times, duration_ns))
        if before:
            keys, writes = generator.next_batch(before)
            yield from zip(times[:before].tolist(), keys.tolist(),
                           writes.tolist())
        if before < _BLOCK:
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
        #: Request-scoped span recorder of the closed loop (no-op unless
        #: a live Tracer is passed; tracing must never perturb the
        #: simulation).  The open loop records no spans.
        self.tracer = tracer
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
        end_ns: float,
        service_start_ns: float,
        service_ns: float,
        cpu_ns: float,
        struct_ns: float,
        value_ns: float,
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
        op.finish(end_ns)

    def run(self, generator: YcsbGenerator, total_ops: int) -> KeyDbResult:
        """Run the closed loop until ``total_ops`` complete.

        Every client issues its first request at time 0 and its next as
        soon as the last completes; requests take the threads first come
        first served.  The run is a direct loop over a heap of grants
        and completions that orders events as the engine did: by time,
        then by the order they were scheduled.  At a completion the
        client's next request joins the queue, and the freed thread
        takes the oldest request.  That grant serves its op (plans the
        page, prices the service) at once when no other event shares its
        time.  Otherwise it waits in the heap behind the events scheduled
        at that time before it, since a refresh that one of them
        triggers changes the price.  A thread with nothing left to take
        stays idle: no later request needs it.
        """
        if total_ops <= 0:
            raise ConfigurationError("total_ops must be positive")
        result = KeyDbResult()
        self._latency_tables()
        tracing = self.tracer.enabled
        profile = self.store.profile
        plan_op = self.store.plan_op
        price = self._price
        touched = self.store.op_bytes()
        refresh_ops = self.refresh_ops
        ops = _operations(generator, total_ops)
        # Requests waiting for a thread, oldest first:
        # (arrival_ns, key, is_write).
        waiting: Deque[Tuple[float, int, bool]] = deque()
        # (time, seq, granted, job): a granted request whose op starts at
        # that time (job as in ``waiting``), or a completion (job:
        # arrival, page, is_write and the priced spans when tracing).
        events: List[Tuple[float, int, bool, tuple]] = []
        seq = itertools.count()
        done = since_refresh = 0
        node_bytes: Dict[int, float] = {}
        node_write_bytes: Dict[int, float] = {}
        refresh_anchor = 0.0
        # Latencies since the last flush, in completion order.
        read_latencies: List[float] = []
        write_latencies: List[float] = []

        def serve(now: float, arrival: float, key: int, is_write: bool) -> None:
            page, ssd_read, ssd_write = plan_op(key, is_write, now)
            service = price(page, is_write, ssd_read, ssd_write)
            spans = None
            if tracing:
                # Captured now: a refresh may retune the tables mid-service.
                spans = (
                    now, service, profile.cpu_ns,
                    profile.struct_accesses * self._struct[is_write],
                    profile.value_accesses * self._lat_cache[is_write][page.node_id],
                )
            heappush(events, (now + service, next(seq), False,
                              (arrival, page, is_write, spans)))

        def flush() -> None:
            result.read_latency.record_all(read_latencies)
            result.write_latency.record_all(write_latencies)
            read_latencies.clear()
            write_latencies.clear()

        issued = min(self.clients, total_ops)
        waiting.extend((0.0, key, is_write)
                       for key, is_write in itertools.islice(ops, issued))
        for _ in range(min(self.threads, issued)):
            heappush(events, (0.0, next(seq), True, waiting.popleft()))
        now = 0.0
        while events:
            now, _, granted, job = heappop(events)
            if granted:
                serve(now, *job)
                continue
            arrival, page, is_write, spans = job
            if spans is not None:
                self._emit_op_trace(page, is_write, arrival, now, *spans)
            latency = now - arrival  # queueing + service
            node = page.node_id
            node_bytes[node] = node_bytes.get(node, 0.0) + touched
            if is_write:
                write_latencies.append(latency)
                node_write_bytes[node] = node_write_bytes.get(node, 0.0) + touched
            else:
                read_latencies.append(latency)
            done += 1
            since_refresh += 1
            if since_refresh >= refresh_ops:
                since_refresh = 0
                self._refresh(node_bytes, node_write_bytes, now - refresh_anchor)
                refresh_anchor = now
                node_bytes.clear()
                node_write_bytes.clear()
                flush()
            if issued < total_ops:  # the client's next request
                issued += 1
                key, op_write = next(ops)
                waiting.append((now, key, op_write))
            if waiting:  # the freed thread takes the oldest request
                if events and events[0][0] == now:
                    heappush(events, (now, next(seq), True, waiting.popleft()))
                else:
                    serve(now, *waiting.popleft())
        flush()
        result.ops = done
        result.elapsed_ns = now
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
                    page, op_write, arrival, deadline = job
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
                    service = price(page, op_write, ssd_read, ssd_write)
                    if injector is not None:
                        service *= injector.latency_multiplier(page.node_id, now)
                    if shed_late and now + service > deadline:
                        counters.add("ops_shed_doomed", 1)
                        shed(REASON_DOOMED)
                        continue
                    heappush(events, (now + service, seq,
                                      (page, op_write, arrival, deadline)))
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

"""The direct open loop equals the engine-driven loop it replaced, bit for bit.

:meth:`DesKeyDbServer.run_open_loop` walks arrival and completion times
in one loop.  The reference below is the loop it replaced: an arrivals
process and one process per server thread on the event engine, with a
request, a deadline and a queue entry per arrival.  The request-object
admission calls it made are kept here too, since ``src/`` no longer
provides them.  Both loops run the same freshly built experiment, and
every observable result must match exactly: float equality, not
approximate equality.
"""

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest

from repro.apps.kvstore.des_server import DesKeyDbServer
from repro.apps.kvstore.server import KeyDbResult
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.scenarios import build_scenario
from repro.overload.policy import (
    REASON_CAPACITY,
    REASON_DOOMED,
    REASON_EXPIRED,
    REASON_QUEUE_FULL,
    REASON_RATE,
    OverloadController,
    OverloadPolicy,
)
from repro.overload.runner import (
    _fresh_server,
    baseline_policy,
    calibrate_capacity_ops_per_s,
    control_policy,
    default_budget_ns,
)
from tests.sim.engine import Simulator

RECORDS = 2048
DURATION_NS = 5e6
CONFIG = "1:1"
THREADS = 7
SEEDS = (7, 0xC0FFEE)


# -- the reference: today's generator loop over the engine -----------------


class _Queue:
    """The FIFO admission queue the reference loop waited in."""

    def __init__(self, capacity, shed_expired_waiters, on_shed):
        self.capacity = capacity
        self.shed_expired_waiters = shed_expired_waiters
        self.on_shed = on_shed
        self.shed_expired = 0
        self.fifo = deque()

    @property
    def full(self):
        return len(self.fifo) >= self.capacity

    def offer(self, request):
        self.fifo.append(request)

    def take(self, now_ns):
        while self.fifo:
            request = self.fifo.popleft()
            if self.shed_expired_waiters and request.expired(now_ns):
                self.shed_expired += 1
                self.on_shed(request)
                continue
            return request
        return None


@dataclass
class _Request:
    """One arrival waiting in the reference queue (deadline inf = none)."""

    arrival_ns: float
    deadline_ns: float
    priority: int
    payload: object = None

    def expired(self, now_ns):
        return now_ns > self.deadline_ns


def _count(counts, reason):
    counts[reason] = counts.get(reason, 0) + 1


def _make_request(controller, now_ns, priority):
    controller.metrics.offered += 1
    budget = controller.policy.default_budget_ns
    deadline_ns = math.inf if math.isinf(budget) else now_ns + budget
    return _Request(now_ns, deadline_ns, priority)


def _try_admit(controller, request, now_ns):
    metrics = controller.metrics
    if request.priority < controller.priority_floor(now_ns):
        _count(metrics.rejected, REASON_CAPACITY)
        return False
    if controller.bucket is not None and not controller.bucket.try_acquire(now_ns):
        _count(metrics.rejected, REASON_RATE)
        return False
    metrics.admitted += 1
    return True


def _doomed(request, now_ns, estimate_ns):
    return not now_ns + estimate_ns <= request.deadline_ns


def _complete(controller, request, now_ns, latency_ns):
    metrics = controller.metrics
    missed = request.expired(now_ns)
    metrics.completed += 1
    metrics.latency.record(max(latency_ns, 1.0))
    if missed:
        metrics.deadline_misses += 1
    else:
        metrics.good += 1
    return not missed


def reference_open_loop(
    server, generator, controller, arrival_rate_ops_per_s, duration_ns,
    seed=0, injector=None,
):
    """The open loop as engine processes: one op, one request per arrival."""
    sim = Simulator()
    profile = server.store.profile
    rng = np.random.default_rng(seed)
    result = KeyDbResult()
    server._latency_tables()
    queue = _Queue(
        controller.policy.queue_capacity,
        shed_expired_waiters=controller.policy.shed_doomed,
        on_shed=lambda request: _count(controller.metrics.shed, REASON_EXPIRED),
    )
    levels = controller.policy.priority_levels
    shed_doomed = controller.policy.shed_doomed
    idle = deque()
    state = {"done": 0, "since_refresh": 0, "closed": False}
    node_bytes = {}
    node_write_bytes = {}
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
            request = _make_request(controller, sim.now, priority=seq % levels)
            request.payload = generator.next_operation()
            seq += 1
            if queue.full:
                _count(controller.metrics.rejected, REASON_QUEUE_FULL)
                result.counters.add("ops_rejected", 1)
                continue
            if not _try_admit(controller, request, sim.now):
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
            page, ssd_read, ssd_write = server.store.plan_op(
                op.key, op.is_write, sim.now
            )
            service = server._price(page, op.is_write, ssd_read, ssd_write)
            if injector is not None:
                service *= injector.latency_multiplier(page.node_id, sim.now)
            if shed_doomed and _doomed(request, sim.now, service):
                result.counters.add("ops_shed_doomed", 1)
                _count(controller.metrics.shed, REASON_DOOMED)
                continue
            yield sim.timeout(service)
            latency = sim.now - arrival  # queueing + service
            if not _complete(controller, request, sim.now, latency):
                result.counters.add("deadline_misses", 1)
            if op.is_write:
                result.write_latency.record(latency)
            else:
                result.read_latency.record(latency)
            node = page.node_id
            touched = server.store.value_size + 64 * (
                profile.struct_accesses + profile.value_accesses
            )
            node_bytes[node] = node_bytes.get(node, 0.0) + touched
            if op.is_write:
                node_write_bytes[node] = (
                    node_write_bytes.get(node, 0.0) + touched
                )
            state["done"] += 1
            state["since_refresh"] += 1
            if state["since_refresh"] >= server.refresh_ops:
                state["since_refresh"] = 0
                server._refresh(node_bytes, node_write_bytes,
                                sim.now - refresh_anchor["t"])
                refresh_anchor["t"] = sim.now
                node_bytes.clear()
                node_write_bytes.clear()

    sim.process(arrivals())
    for _ in range(server.threads):
        sim.process(worker())
    sim.run()
    result.counters.add("ops_shed_expired", queue.shed_expired)
    result.ops = state["done"]
    result.elapsed_ns = max(sim.now, duration_ns)
    return result


# -- running both on identical fresh experiments ---------------------------


@functools.lru_cache(maxsize=None)
def _capacity(seed):
    return calibrate_capacity_ops_per_s(
        CONFIG, RECORDS, seed, THREADS, calibrate_ops=2000
    )


def _policy(controlled, seed):
    capacity = _capacity(seed)
    budget = default_budget_ns(capacity, THREADS)
    if controlled:
        return control_policy(capacity, budget, THREADS)
    return baseline_policy(budget)


def _histogram(hist):
    stat = hist.stat
    return hist._buckets, stat.count, stat._mean, stat._m2, stat.min, stat.max


def _scenario(name, seed):
    """The catalog scenario over 30-40 % of the run, as the runner places it."""
    window = (0.30 * DURATION_NS, 0.40 * DURATION_NS)
    return lambda platform: build_scenario(name, platform, seed, window)


def _run(loop, policy, rate, seed, faults=None, price=None,
         refresh_ops=None, duration_ns=DURATION_NS):
    """One open-loop run as ``run_offered_load`` sets it up; its final state.

    ``faults`` builds the run's fault plan from its platform.  ``price``,
    when given, makes a fresh ``(server, page, is_write, ssd_read,
    ssd_write) -> ns`` stub for the run's ``_price``.
    """
    controller = OverloadController(policy)
    server, generator, platform = _fresh_server(CONFIG, RECORDS, seed, THREADS)
    if price is not None:
        server._price = functools.partial(price(), server)
    if refresh_ops is not None:
        server.refresh_ops = refresh_ops
    injector = None
    if faults is not None:
        injector = FaultInjector(platform, faults(platform))
        controller.bind_faults(injector)
    result = loop(server, generator, controller, rate, duration_ns,
                  seed=seed, injector=injector)
    metrics = controller.metrics
    state = {
        "ops": result.ops,
        "elapsed_ns": result.elapsed_ns,
        "counters": list(result.counters.as_dict().items()),
        "read": _histogram(result.read_latency),
        "write": _histogram(result.write_latency),
        "funnel": (
            metrics.offered, metrics.admitted, metrics.completed,
            metrics.good, metrics.deadline_misses,
            list(metrics.rejected.items()), list(metrics.shed.items()),
        ),
        "funnel_latency": _histogram(metrics.latency),
        "pages": [
            (p.page_id, p.node_id, p.heat, p.last_access_ns, p.access_count,
             p.write_count)
            for p in server.store.pages
        ],
        "utilization": list(server._utilization.items()),
    }
    if injector is not None:
        state["fault_trace"] = list(injector.trace)
    return state


def _both(policy, rate, seed, **kwargs):
    return (
        _run(reference_open_loop, policy, rate, seed, **kwargs),
        _run(DesKeyDbServer.run_open_loop, policy, rate, seed, **kwargs),
    )


# -- the tests -------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "factor, scenario",
    [(0.5, None), (1.0, None), (1.5, None),
     (1.0, "link-degrade"), (1.0, "device-loss")],
)
@pytest.mark.parametrize("controlled", [True, False],
                         ids=["controlled", "uncontrolled"])
def test_direct_loop_matches_engine_reference(controlled, factor, scenario, seed):
    policy = _policy(controlled, seed)
    faults = _scenario(scenario, seed) if scenario is not None else None
    reference, direct = _both(policy, factor * _capacity(seed), seed,
                              faults=faults)
    assert reference["funnel"][0] > 0
    assert direct == reference


def _arrival_times(rate, seed, count):
    gaps = np.random.default_rng(seed).exponential(1e9 / rate, size=count)
    return np.cumsum(gaps).tolist()


@pytest.mark.parametrize("offset", [1, 2], ids=["arrival-first", "completion-first"])
@pytest.mark.parametrize("dispatch", [40, 400])
def test_completion_tied_with_an_arrival_keeps_engine_order(dispatch, offset):
    """A completion that lands exactly on an arrival time keeps its place.

    The ``dispatch``-th service is stubbed to end exactly on a later
    arrival: the first one after it starts (that arrival was scheduled
    first, so it goes first) or the second (the completion goes first).
    The link of the op's node degrades at that arrival and every
    completion refreshes the latency tables, so the order of the two
    events changes the price of the arrival's own request: at half load
    it is admitted and served at once, after both events.
    """
    seed = SEEDS[0]
    policy = _policy(True, seed)
    rate = 0.5 * _capacity(seed)
    duration_ns = DURATION_NS / 2
    real_price = DesKeyDbServer._price
    dispatched = []

    def recording_price(server, page, *op):
        dispatched.append((page.last_access_ns, page.node_id))
        return real_price(server, page, *op)

    _run(DesKeyDbServer.run_open_loop, policy, rate, seed,
         price=lambda: recording_price, refresh_ops=1, duration_ns=duration_ns)
    t0, node = dispatched[dispatch]
    arrivals = _arrival_times(rate, seed, 4 * len(dispatched))
    after = next(i for i, t in enumerate(arrivals) if t > t0)
    t1 = arrivals[after + offset - 1]
    # Sterbenz: t1 - t0 is exact, so the completion lands exactly on t1.
    assert t1 / 2 <= t0 <= 2 * t1
    assert t0 + (t1 - t0) == t1

    stubbed = []  # when each run dispatched the stubbed service

    def tied_price():
        calls = itertools.count()

        def price(server, page, *op):
            if next(calls) == dispatch:
                stubbed.append(page.last_access_ns)
                return t1 - t0
            return real_price(server, page, *op)

        return price

    def degrade_at_t1(platform):
        return FaultPlan(seed=seed).degrade_link(
            t1, duration_ns, node_id=node, bandwidth_multiplier=0.05
        )

    reference, direct = _both(
        policy, rate, seed, faults=degrade_at_t1,
        price=tied_price, refresh_ops=1, duration_ns=duration_ns,
    )
    # Both runs dispatched it at t0, so it completed exactly at t1.
    assert stubbed == [t0, t0]
    assert direct == reference


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
def test_rejects_rates_and_durations_that_are_not_finite_and_positive(bad):
    server, generator, _ = _fresh_server(CONFIG, RECORDS, SEEDS[0], THREADS)
    controller = OverloadController(OverloadPolicy())
    with pytest.raises(ConfigurationError, match="arrival_rate_ops_per_s"):
        server.run_open_loop(generator, controller, bad, DURATION_NS)
    with pytest.raises(ConfigurationError, match="duration_ns"):
        server.run_open_loop(generator, controller, 1e5, bad)

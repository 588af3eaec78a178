"""The direct closed loop equals the engine-driven loop it replaced, bit for bit.

:meth:`DesKeyDbServer.run` walks grants and completions in one heap.
The reference below is the loop it replaced: one engine process per
client, each drawing one operation at a time and waiting for a thread
of a FIFO :class:`~tests.sim.resources.Resource`.  Both loops run the
same freshly built experiment, and every observable result must match
exactly: float equality, not approximate equality.
"""

import functools

import pytest

from repro.apps.kvstore.des_server import DesKeyDbServer
from repro.apps.kvstore.experiment import build_keydb_experiment
from repro.apps.kvstore.result import KeyDbResult
from repro.obs.tracing import NULL_TRACER, Tracer
from tests.sim.engine import Simulator
from tests.sim.resources import Resource

SEEDS = (0xC0FFEE, 7)


# -- the reference: the generator loop over the engine ---------------------


def reference_closed_loop(server, generator, total_ops):
    """The closed loop as engine processes: one per client."""
    sim = Simulator()
    tracer = server.tracer
    threads = Resource(sim, server.threads)
    result = KeyDbResult()
    server._latency_tables()
    profile = server.store.profile
    touched = server.store.op_bytes()
    state = {"issued": 0, "done": 0, "since_refresh": 0}
    node_bytes = {}
    node_write_bytes = {}
    refresh_anchor = {"t": 0.0}

    def client():
        while state["issued"] < total_ops:
            state["issued"] += 1
            op = generator.next_operation()
            is_write = op.is_write
            arrival = sim.now
            yield threads.request()
            page, ssd_read, ssd_write = server.store.plan_op(
                op.key, is_write, sim.now
            )
            service = server._price(page, is_write, ssd_read, ssd_write)
            if tracer.enabled:
                start = sim.now
                cpu = profile.cpu_ns
                struct = profile.struct_accesses * server._struct[is_write]
                value = (profile.value_accesses
                         * server._lat_cache[is_write][page.node_id])
            yield sim.timeout(service)
            if tracer.enabled:
                server._emit_op_trace(page, is_write, arrival, sim.now, start,
                                      service, cpu, struct, value)
            threads.release()
            latency = sim.now - arrival  # queueing + service
            if is_write:
                result.write_latency.record(latency)
            else:
                result.read_latency.record(latency)
            node = page.node_id
            node_bytes[node] = node_bytes.get(node, 0.0) + touched
            if is_write:
                node_write_bytes[node] = node_write_bytes.get(node, 0.0) + touched
            state["done"] += 1
            state["since_refresh"] += 1
            if state["since_refresh"] >= server.refresh_ops:
                state["since_refresh"] = 0
                server._refresh(node_bytes, node_write_bytes,
                                sim.now - refresh_anchor["t"])
                refresh_anchor["t"] = sim.now
                node_bytes.clear()
                node_write_bytes.clear()

    for _ in range(server.clients):
        sim.process(client())
    sim.run()
    result.ops = state["done"]
    result.elapsed_ns = sim.now
    return result


# -- running both on identical fresh experiments ---------------------------


def _histogram(hist):
    stat = hist.stat
    return hist._buckets, stat.count, stat._mean, stat._m2, stat.min, stat.max


def _run(loop, total_ops, config="1:1", workload="A", seed=SEEDS[0],
         records=4096, threads=7, clients=16, tracing=False, price=None,
         refresh_ops=2000):
    """One closed-loop run as ``run_observed_keydb`` sets it up; its final state.

    ``price``, when given, is a ``(server, page, is_write, ssd_read,
    ssd_write) -> ns`` stub for the run's ``_price``.
    """
    experiment = build_keydb_experiment(
        config, workload=workload, record_count=records, seed=seed,
        threads=threads,
    )
    server = DesKeyDbServer(
        experiment.platform, experiment.server.store, threads=threads,
        clients=clients, utilization_refresh_ops=refresh_ops,
        tracer=Tracer() if tracing else NULL_TRACER,
    )
    if price is not None:
        server._price = functools.partial(price, server)
    result = loop(server, experiment.generator, total_ops)
    store = server.store
    state = {
        "ops": result.ops,
        "elapsed_ns": result.elapsed_ns,
        "counters": list(result.counters.as_dict().items()),
        "read": _histogram(result.read_latency),
        "write": _histogram(result.write_latency),
        "pages": [
            (p.page_id, p.node_id, p.heat, p.last_access_ns, p.access_count,
             p.write_count)
            for p in store.pages
        ],
        "records": (store.record_count, experiment.generator.record_count),
        "utilization": list(server._utilization.items()),
        "spans": [op.as_dict() for op in server.tracer.ops],
    }
    flash = store.flash
    if flash is not None:
        state["flash"] = (
            flash.total_values, flash.faults, flash.evictions, flash.hits,
            list(flash._resident), flash._rng.bit_generator.state,
        )
    return state


def _both(total_ops, **kwargs):
    return (
        _run(reference_closed_loop, total_ops, **kwargs),
        _run(DesKeyDbServer.run, total_ops, **kwargs),
    )


def _rounded(quantum_ns):
    """A ``_price`` stub rounding every service time to ``quantum_ns``."""

    def price(server, page, *op):
        return round(DesKeyDbServer._price(server, page, *op) / quantum_ns) * quantum_ns

    return price


# -- the tests -------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_calibration_run_matches_engine_reference(seed):
    """The overload calibration: 20k ops on the 1:1 interleave."""
    reference, direct = _both(20_000, records=16_384, seed=seed)
    assert reference["ops"] == 20_000
    assert direct == reference


def test_flash_tier_and_inserts_match_engine_reference():
    """FLASH reads and writes and insert-grown keys (mmem-ssd-0.2, YCSB-D)."""
    reference, direct = _both(6_000, config="mmem-ssd-0.2", workload="D")
    assert reference["flash"][1] > 0  # values faulted in from the SSD
    assert reference["records"][0] > 4096  # inserts grew the key space
    assert direct == reference


@pytest.mark.parametrize("clients, threads", [(16, 3), (3, 7), (7, 7)],
                         ids=["queued", "fewer-clients", "as-many"])
def test_thread_pool_sizes_match_engine_reference(clients, threads):
    reference, direct = _both(6_000, config="mmem", clients=clients,
                              threads=threads)
    assert direct == reference


def test_fewer_ops_than_clients_matches_engine_reference():
    reference, direct = _both(10)
    assert reference["ops"] == 10
    assert direct == reference


def test_traced_run_matches_engine_reference():
    reference, direct = _both(3_000, tracing=True, refresh_ops=500)
    assert len(reference["spans"]) == 3_000
    assert direct == reference


@pytest.mark.parametrize("quantum_ns", [1000.0, 250.0])
@pytest.mark.parametrize("refresh_ops", [2, 3, 500])
def test_tied_completions_keep_engine_order(quantum_ns, refresh_ops):
    """Rounded service times make completions tie, and ties keep their order.

    Every completion at one time fires before any grant made at that
    time, so a refresh that a later tied completion triggers reprices
    the earlier grant, and latencies and spans are recorded in the
    engine's order.
    """
    reference, direct = _both(2_000, tracing=True, refresh_ops=refresh_ops,
                              price=_rounded(quantum_ns))
    ends = [op["end_ns"] for op in reference["spans"]]
    assert len(set(ends)) < len(ends)  # real ties
    assert direct == reference

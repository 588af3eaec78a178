"""The array-priced epoch server equals a per-op reference loop, bit for bit.

:meth:`KeyDbServer.run` resolves and prices each epoch as arrays.  The
reference below is the per-op loop it replaced: one ``next_operation``,
one ``plan_op`` and one scalar price per operation, and one ``record``
per latency.  Both run the same freshly built experiment,
and every observable result and every piece of final state must match
exactly: float equality, not approximate equality.
"""

import dataclasses
import json
from typing import Dict

import pytest

from repro.apps.kvstore import TABLE1_CONFIGS, build_keydb_experiment
from repro.apps.kvstore.server import MIGRATION_BANDWIDTH, KeyDbResult, KeyDbServer
from repro.faults.injector import FaultInjector
from repro.faults.metrics import RecoveryTracker
from repro.faults.retry import RetryPolicy
from repro.faults.runner import FAULT_AT_FRACTION, FAULT_SPAN_FRACTION
from repro.faults.scenarios import build_scenario

RECORDS = 2048
OPS = 5000
EPOCH = 1000
WARMUP = 1000
SEED = 0xC0FFEE


def _epoch_latencies(server):
    """Per-node read and write latencies and the struct walk's mix averages.

    Fault latency multipliers are applied to the node latencies before
    the mix averages, as the server does once per epoch.
    """
    mix = server._access_mix or server.store.node_mix()
    read_lat = {n: server._node_latency(n, 0.0) for n in server.platform.nodes}
    write_lat = {n: server._node_latency(n, 1.0) for n in server.platform.nodes}
    if server.faults is not None:
        for n in read_lat:
            mult = server.faults.latency_multiplier(n, server.now_ns)
            if mult != 1.0:
                read_lat[n] *= mult
                write_lat[n] *= mult
    struct_read = sum(frac * read_lat[n] for n, frac in mix.items())
    struct_write = sum(frac * write_lat[n] for n, frac in mix.items())
    return read_lat, write_lat, struct_read, struct_write


def _memory_time(server, is_write, node, read_lat, write_lat, struct_read, struct_write):
    """CPU, struct walk and value accesses of one operation, in that order."""
    profile = server.store.profile
    time_ns = profile.cpu_ns
    time_ns += profile.struct_accesses * (struct_write if is_write else struct_read)
    time_ns += profile.value_accesses * (write_lat if is_write else read_lat)[node]
    return time_ns


def _price_op(server, op, ssd_utilization, *latencies):
    """Service time of one planned ``(is_write, page, ssd_read, ssd_write)``."""
    is_write, page, ssd_read, ssd_write = op
    time_ns = _memory_time(server, is_write, page.node_id, *latencies)
    if server.store.flash is not None:
        if ssd_read:
            time_ns += server.store.flash.read_time_ns(ssd_read, ssd_utilization)
        if ssd_write:
            time_ns += server.store.flash.write_time_ns(ssd_write, ssd_utilization)
    return time_ns


def reference_run(server, generator, total_ops, epoch_ops=2000, warmup_ops=0):
    """The per-op epoch loop: one plan, one price, one record per operation."""
    result = KeyDbResult()
    ssd_utilization = 0.0
    done = 0
    while done < total_ops:
        if server.faults is not None:
            server.faults.advance(server.now_ns)
        batch = min(epoch_ops, total_ops - done)
        plans = []
        for _ in range(batch):
            op = generator.next_operation()
            page, ssd_read, ssd_write = server.store.plan_op(op.key, op.is_write, server.now_ns)
            plans.append((op.is_write, page, ssd_read, ssd_write))

        measuring = done >= warmup_ops
        epoch_busy_ns = 0.0
        ssd_bytes = 0
        node_read_bytes: Dict[int, float] = {}
        node_write_bytes: Dict[int, float] = {}
        shed = 0
        latencies = _epoch_latencies(server)
        for plan in plans:
            is_write, page, ssd_read, ssd_write = plan
            fault_extra = 0.0
            if server.faults is not None:
                serviceable, fault_extra = server._apply_fault_policy(
                    page, result.counters
                )
                epoch_busy_ns += fault_extra
                if not serviceable:
                    shed += 1
                    result.counters.add("ops_shed", 1)
                    if measuring and server.recovery is not None:
                        server.recovery.record(
                            server.now_ns + epoch_busy_ns / server.threads,
                            fault_extra,
                            ok=False,
                        )
                    continue
            t = _price_op(server, plan, ssd_utilization, *latencies)
            epoch_busy_ns += t
            finish_ns = server.now_ns + epoch_busy_ns / server.threads
            if measuring:
                if is_write:
                    result.write_latency.record(t + fault_extra)
                else:
                    result.read_latency.record(t + fault_extra)
                if server.recovery is not None:
                    server.recovery.record(finish_ns, t + fault_extra, ok=True)
            ssd_bytes += ssd_read + ssd_write
            node = page.node_id
            profile = server.store.profile
            touched = server.store.value_size + 64 * (
                profile.struct_accesses + profile.value_accesses
            )
            if is_write:
                node_write_bytes[node] = node_write_bytes.get(node, 0.0) + touched
            else:
                node_read_bytes[node] = node_read_bytes.get(node, 0.0) + touched

        epoch_ns = epoch_busy_ns / server.threads
        if server.tiering is not None:
            round_ = server.tiering.tick(server.now_ns + epoch_ns)
            if round_.moved_bytes:
                stall = round_.moved_bytes / MIGRATION_BANDWIDTH * 1e9
                epoch_ns += stall
                result.counters.add("migration_stall_ns", stall)
                result.counters.add("migrated_bytes", round_.moved_bytes)

        server.now_ns += epoch_ns
        done += batch
        if measuring:
            result.ops += batch - shed
            result.elapsed_ns += epoch_ns
        result.counters.add("ssd_bytes", ssd_bytes)

        server._refresh_utilization(node_read_bytes, node_write_bytes, epoch_ns)
        total_touched = sum(node_read_bytes.values()) + sum(node_write_bytes.values())
        if total_touched > 0:
            server._access_mix = {
                node: (node_read_bytes.get(node, 0.0) + node_write_bytes.get(node, 0.0))
                / total_touched
                for node in set(node_read_bytes) | set(node_write_bytes)
            }
        ssd_utilization = server._ssd_utilization(ssd_bytes, epoch_ns)
    return result


def _histogram(hist):
    stat = hist.stat
    return hist._buckets, stat.count, stat._mean, stat._m2, stat.min, stat.max


def _state(experiment, result):
    """Everything a run leaves behind that the two loops could disagree on."""
    server = experiment.server
    store = server.store
    state = {
        "ops": result.ops,
        "elapsed_ns": result.elapsed_ns,
        "counters": list(result.counters.as_dict().items()),
        "read": _histogram(result.read_latency),
        "write": _histogram(result.write_latency),
        "now_ns": server.now_ns,
        "pages": [
            (p.page_id, p.node_id, p.heat, p.last_access_ns, p.access_count,
             p.write_count, p.migrations)
            for p in store.pages
        ],
        "record_count": store.record_count,
        "generator_records": experiment.generator.record_count,
        "access_mix": list(server._access_mix.items()),
        "utilization": list(server._utilization.items()),
    }
    if store.flash is not None:
        flash = store.flash
        state["flash"] = (
            list(flash._resident), flash.total_values, flash.faults,
            flash.evictions, flash.hits, flash.ssd.bytes_read, flash.ssd.bytes_written,
            flash._rng.random(),
        )
    if server.tiering is not None:
        state["threshold"] = server.tiering.threshold
    if server.recovery is not None:
        tracker = server.recovery
        state["recovery"] = (
            json.dumps(dataclasses.asdict(tracker.report()), sort_keys=True),
            tracker._windows,
            tracker.phase_counts,
            [_histogram(tracker.latency(phase)) for phase in ("before", "during", "after")],
        )
    if server.faults is not None:
        state["trace"] = list(server.faults.trace)
        state["poisoned"] = sorted(server.faults._poisoned)
    return state


def _both(config, workload, total_ops=OPS, records=RECORDS, prepare=None):
    """Run the reference and the array server on identical fresh experiments."""
    states = []
    for run in (reference_run, KeyDbServer.run):
        experiment = build_keydb_experiment(
            config, workload=workload, record_count=records, seed=SEED
        )
        if prepare is not None:
            prepare(experiment)
        result = run(
            experiment.server, experiment.generator, total_ops,
            epoch_ops=EPOCH, warmup_ops=WARMUP,
        )
        states.append(_state(experiment, result))
    return states


@pytest.mark.parametrize("records", [RECORDS, 128])
@pytest.mark.parametrize("workload", "ABCD")
@pytest.mark.parametrize("config", TABLE1_CONFIGS)
def test_table1_cell_matches_per_op_reference(config, workload, records):
    # 128 records crowd the ops onto 32 pages, so a page takes hundreds
    # of touches per epoch and any rounding shortcut in its heat shows.
    reference, batched = _both(config, workload, records=records)
    assert batched == reference


def test_hot_promote_migrations_match_per_op_reference():
    # Long enough for the daemon's scans to promote and demote pages.
    reference, batched = _both("hot-promote", "A", total_ops=40_000, records=1024)
    assert dict(reference["counters"]).get("migrated_bytes", 0) > 0
    assert batched == reference


def _healthy_elapsed_ns():
    experiment = build_keydb_experiment("1:1", workload="A", record_count=RECORDS, seed=SEED)
    return experiment.server.run(experiment.generator, OPS, epoch_ops=EPOCH).elapsed_ns


@pytest.mark.parametrize(
    "scenario",
    ["device-flap", "device-loss", "error-storm", "link-degrade", "meltdown", "poison"],
)
@pytest.mark.parametrize("attempts", [4, 1], ids=["retry", "no-retry"])
def test_faulted_run_matches_per_op_reference(scenario, attempts):
    elapsed = _healthy_elapsed_ns()
    window = (elapsed * FAULT_AT_FRACTION, elapsed * FAULT_SPAN_FRACTION)

    def attach(experiment):
        plan = build_scenario(scenario, experiment.platform, SEED, window)
        start, end = plan.window()
        experiment.server.attach_faults(
            FaultInjector(experiment.platform, plan),
            retry_policy=RetryPolicy(max_attempts=attempts),
            tracker=RecoveryTracker(start, end, window_ns=elapsed / 25.0),
        )

    reference, batched = _both("1:1", "A", prepare=attach)
    counters = dict(reference["counters"])
    if scenario in ("device-flap", "device-loss", "meltdown"):
        assert counters["device_fault_reads"] > 0
    if scenario == "poison":
        assert counters["poison_reads"] > 0
    if attempts == 1 and scenario not in ("error-storm", "link-degrade"):
        assert counters["ops_shed"] > 0
    assert batched == reference


@pytest.mark.parametrize("scenario", [None, "link-degrade", "error-storm"])
def test_service_table_matches_scalar_formula(scenario):
    """Every ``(is_write, node)`` entry, with fault multipliers in force."""
    experiment = build_keydb_experiment("1:1", workload="A", record_count=RECORDS, seed=SEED)
    server = experiment.server
    if scenario is not None:
        elapsed = _healthy_elapsed_ns()
        window = (elapsed * FAULT_AT_FRACTION, elapsed * FAULT_SPAN_FRACTION)
        plan = build_scenario(scenario, experiment.platform, SEED, window)
        server.attach_faults(FaultInjector(experiment.platform, plan))
    # Two epochs load the paths and set an access-weighted struct mix.
    server.run(experiment.generator, 2 * EPOCH, epoch_ops=EPOCH)
    assert server._utilization and server._access_mix
    if scenario is not None:
        start, end = plan.window()
        server.now_ns = (start + end) / 2
        assert any(
            server.faults.latency_multiplier(n, server.now_ns) != 1.0
            for n in experiment.platform.nodes
        )
    table = server._epoch_latency_tables()
    latencies = _epoch_latencies(server)
    for is_write in (False, True):
        for n in experiment.platform.nodes:
            assert table[int(is_write), n] == _memory_time(server, is_write, n, *latencies)

"""The array-priced epoch server equals a per-op reference loop, bit for bit.

:meth:`KeyDbServer.run` resolves and prices each epoch as arrays.  The
reference below is the per-op loop it replaced: one ``next_operation``,
one ``plan_get``/``plan_set`` and one scalar price per operation, and
one ``record`` per latency.  Both run the same freshly built experiment,
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


def _price_op(server, plan, ssd_utilization, read_lat, write_lat, struct_read, struct_write):
    """Service time of one operation at current latencies."""
    if plan.is_write:
        node_lat = write_lat[plan.value_page.node_id]
        struct_lat = struct_write
    else:
        node_lat = read_lat[plan.value_page.node_id]
        struct_lat = struct_read
    time_ns = server.store.profile.cpu_ns
    time_ns += plan.struct_accesses * struct_lat
    time_ns += plan.value_accesses * node_lat
    if server.store.flash is not None:
        if plan.ssd_read_bytes:
            time_ns += server.store.flash.read_time_ns(plan.ssd_read_bytes, ssd_utilization)
        if plan.ssd_write_bytes:
            time_ns += server.store.flash.write_time_ns(plan.ssd_write_bytes, ssd_utilization)
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
            if op.is_write:
                plans.append(server.store.plan_set(op.key, server.now_ns))
            else:
                plans.append(server.store.plan_get(op.key, server.now_ns))

        measuring = done >= warmup_ops
        epoch_busy_ns = 0.0
        ssd_bytes = 0
        node_read_bytes: Dict[int, float] = {}
        node_write_bytes: Dict[int, float] = {}
        shed = 0
        tables = server._epoch_latency_tables()
        for plan in plans:
            fault_extra = 0.0
            if server.faults is not None:
                serviceable, fault_extra = server._apply_fault_policy(
                    plan.value_page, result.counters
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
            t = _price_op(server, plan, ssd_utilization, *tables)
            epoch_busy_ns += t
            finish_ns = server.now_ns + epoch_busy_ns / server.threads
            if measuring:
                if plan.is_write:
                    result.write_latency.record(t + fault_extra)
                else:
                    result.read_latency.record(t + fault_extra)
                if server.recovery is not None:
                    server.recovery.record(finish_ns, t + fault_extra, ok=True)
            ssd_bytes += plan.ssd_read_bytes + plan.ssd_write_bytes
            node = plan.value_page.node_id
            touched = plan.value_bytes + 64 * (plan.struct_accesses + plan.value_accesses)
            if plan.is_write:
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

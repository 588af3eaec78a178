"""The LLM router's direct loop equals the engine-driven loop it replaced.

:meth:`LlmRouter.serve` resumes its sequences from one ``(time, seq)``
heap.  The reference below is the loop it replaced: one engine process
per sequence, each waiting on a timeout per step.  Both loops serve the
same requests on freshly built routers, and every observable result
must match exactly, down to the order in which steps were priced.
"""

import pytest

from repro.apps.llm.router import REPREFILL_STEP_FRACTION, LlmRouter, ServingResult
from repro.apps.llm.serving import LlmServingExperiment
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.runner import _fault_window, _tracker_for
from repro.faults.scenarios import build_scenario
from repro.sim import RngFactory
from repro.workloads.llm_trace import ChatRequest, chat_trace
from tests.sim.engine import Simulator

SEED = 0xC0FFEE


# -- the reference: one engine process per sequence ------------------------


def reference_serve(router, requests):
    """:meth:`LlmRouter.serve` as engine processes."""
    sim = Simulator()
    result = ServingResult()
    point = router.experiment.serving_point(router.n_backends)
    backend = router.experiment.backend

    def healthy_step_time(idx, seq_id):
        share = router.experiment.spec.offered_bandwidth / max(
            1, router.active_sequences[idx]
        )
        return backend.token_time_ns(
            bandwidth_share=share,
            loaded_latency_ns=point.loaded_latency_ns,
            kv_bytes=router.caches[idx].bytes_of(seq_id),
        )

    def step_time(idx, seq_id):
        step_ns = healthy_step_time(idx, seq_id)
        if router.faults is not None:
            step_ns *= router.faults.latency_multiplier(
                router.backend_nodes[idx], sim.now
            )
        return step_ns

    def fail():
        result.requests_failed += 1
        if router.recovery is not None:
            router.recovery.record(sim.now, 0.0, ok=False)

    def sequence(seq_id, request):
        start = sim.now
        if router.faults is not None:
            router.faults.advance(sim.now)
            idx = router._pick_healthy_backend(sim.now)
            if idx is None:
                fail()
                return
        else:
            idx = router._pick_backend()
        router.caches[idx].admit(seq_id, request.prompt_tokens)
        router.active_sequences[idx] += 1
        generated = 0

        def leave(i):
            router.caches[i].release(seq_id)
            router.active_sequences[i] -= 1

        def reroute(from_idx):
            leave(from_idx)
            new = router._pick_healthy_backend(sim.now)
            if new is None:
                return None
            router.caches[new].admit(seq_id, request.prompt_tokens + generated)
            router.active_sequences[new] += 1
            result.reroutes += 1
            return new

        def refill(idx):
            return (REPREFILL_STEP_FRACTION
                    * (request.prompt_tokens + generated) * step_time(idx, seq_id))

        while generated < request.max_new_tokens:
            if router.faults is not None:
                router.faults.advance(sim.now)
                if not router.faults.node_online(router.backend_nodes[idx], sim.now):
                    router.breakers[idx].record_failure(sim.now)
                    new = reroute(idx)
                    if new is None:
                        fail()
                        return
                    idx = new
                    yield sim.timeout(refill(idx))
                    continue
            step_ns = step_time(idx, seq_id)
            deadline_ns = healthy_step_time(idx, seq_id) * router.step_timeout_factor
            if router.faults is not None and step_ns > deadline_ns:
                router.breakers[idx].record_failure(sim.now)
                yield sim.timeout(deadline_ns)
                new = reroute(idx)
                if new is None:
                    fail()
                    return
                if new != idx:
                    yield sim.timeout(refill(new))
                idx = new
                continue
            yield sim.timeout(step_ns)
            if router.faults is not None:
                router.breakers[idx].record_success(sim.now)
            router.caches[idx].append_token(seq_id)
            generated += 1
            result.tokens_generated += 1
            if router.recovery is not None:
                router.recovery.record(sim.now, step_ns, ok=True)
        leave(idx)
        result.requests_completed += 1
        result.request_latency.record(sim.now - start)

    for seq_id, request in enumerate(requests):
        sim.process(sequence(seq_id, request))
    sim.run()
    result.elapsed_ns = sim.now
    return result


# -- running both on identical fresh routers -------------------------------


def _requests(count=16, seed=SEED):
    """The fault catalog's quick LLM trace."""
    rng = RngFactory(seed).stream("llm-fault-trace")
    return list(chat_trace(rng, count, mean_new_tokens=24))


def _histogram(hist):
    stat = hist.stat
    return hist._buckets, stat.count, stat._mean, stat._m2, stat.min, stat.max


def _router(plan=None, healthy_ns=None, quantum_ns=None, backends=4):
    """A fresh 3:1 router that logs every priced and recorded step.

    ``plan(platform, window)`` builds the fault plan to attach, over the
    window and with the recovery tracker that ``repro faults run`` places
    after a healthy run of ``healthy_ns``.  ``quantum_ns`` rounds every
    step time to that quantum, so steps of different sequences end at
    equal times.
    """
    experiment = LlmServingExperiment("3:1")
    router = LlmRouter(experiment, backends=backends)
    backend = experiment.backend
    real = backend.token_time_ns
    log = []

    def token_time_ns(bandwidth_share, loaded_latency_ns, kv_bytes=0):
        ns = real(bandwidth_share, loaded_latency_ns, kv_bytes)
        if quantum_ns is not None:
            ns = max(1, round(ns / quantum_ns)) * quantum_ns
        log.append(("price", bandwidth_share, kv_bytes, ns))
        return ns

    backend.token_time_ns = token_time_ns
    injector = None
    if plan is not None:
        fault_plan = plan(experiment.platform, _fault_window(healthy_ns))
        injector = FaultInjector(experiment.platform, fault_plan)
        tracker = _tracker_for(fault_plan, healthy_ns)
        real_record = tracker.record

        def record(now_ns, latency_ns, ok=True):
            log.append(("step", now_ns, latency_ns, ok))
            real_record(now_ns, latency_ns, ok=ok)

        tracker.record = record
        router.attach_faults(injector, tracker=tracker)
    return router, injector, log


def _run(serve, requests, **kwargs):
    router, injector, log = _router(**kwargs)
    result = serve(router, list(requests))
    state = {
        "result": (result.requests_completed, result.tokens_generated,
                   result.elapsed_ns, result.requests_failed, result.reroutes),
        "latency": _histogram(result.request_latency),
        "active": list(router.active_sequences),
        "caches": [dict(cache._tokens) for cache in router.caches],
        "log": log,
    }
    if injector is not None:
        tracker = router.recovery
        state["breakers"] = [
            (b.state, b.consecutive_failures, b.opened_at_ns, b.times_opened)
            for b in router.breakers
        ]
        state["tracker"] = (
            tracker.offered, tracker.completed, tracker.failed,
            dict(tracker._windows), dict(tracker.phase_counts),
            {phase: _histogram(h) for phase, h in tracker._latency.items()},
        )
        state["fault_trace"] = list(injector.trace)
    return state


def _both(requests, **kwargs):
    return (
        _run(reference_serve, requests, **kwargs),
        _run(LlmRouter.serve, requests, **kwargs),
    )


def _healthy_ns(requests):
    """How long a healthy run of ``requests`` takes."""
    return LlmRouter(LlmServingExperiment("3:1"), backends=4).serve(requests).elapsed_ns


# -- the tests -------------------------------------------------------------

#: Exact step times, and step times rounded to 1 ms so that steps of
#: different sequences end together: a loop that resumed tied sequences
#: in another order would price their next steps differently.
QUANTA = pytest.mark.parametrize("quantum_ns", [None, 1e6], ids=["exact", "tied"])


def _ties(state):
    steps = [entry[1] for entry in state["log"] if entry[0] == "step"]
    return len(steps) - len(set(steps))


@QUANTA
def test_healthy_run_matches_engine_reference(quantum_ns):
    reference, direct = _both(_requests(), quantum_ns=quantum_ns)
    assert reference["result"][0] == 16
    assert direct == reference


@QUANTA
@pytest.mark.parametrize("scenario", ["device-loss", "link-degrade"])
def test_faulted_run_matches_engine_reference(scenario, quantum_ns):
    reference, direct = _both(
        _requests(), healthy_ns=_healthy_ns(_requests()), quantum_ns=quantum_ns,
        plan=lambda platform, window: build_scenario(scenario, platform, SEED, window),
    )
    assert reference["fault_trace"]
    if quantum_ns is not None:
        assert _ties(reference) > 0
    assert direct == reference


def test_tied_steps_through_a_device_loss_keep_engine_order():
    """Sequences of equal step times finish one by one while the CXL
    backends go offline and their sequences reroute."""
    requests = [ChatRequest(64 * (1 + i % 3), 4 + 3 * i) for i in range(8)]

    def plan(platform, window):
        cxl = platform.cxl_nodes()[0].node_id
        return FaultPlan(seed=SEED).fail_device(window[0], cxl, duration_ns=window[1])

    reference, direct = _both(requests, healthy_ns=_healthy_ns(requests),
                              plan=plan, quantum_ns=4e6)
    assert _ties(reference) > 0
    assert reference["result"][4] > 0  # sequences were rerouted
    assert direct == reference


def test_no_requests():
    reference, direct = _both([])
    assert direct["result"] == (0, 0, 0.0, 0, 0)
    assert direct == reference

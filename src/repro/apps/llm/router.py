"""The serving stack of Fig. 9: HTTP frontend, router, backends.

"The HTTPserver frontend receives LLM inference requests and forwards
the tokenized requests to a router.  The router is responsible for
distributing these requests to different CPU backend instances."

This module runs that pipeline event by event: every
:class:`~repro.workloads.llm_trace.ChatRequest` enters at time 0, the
router assigns each to the least-loaded backend when its sequence
starts, and every backend decodes token by token — each step priced by
the :class:`~repro.apps.llm.backend.CpuBackend` model with the
sequence's actual KV-cache size, growing the cache as it goes.  The fault
catalog's LLM case (:func:`repro.faults.runner.run_faulted_llm`) runs
it to route around failing backends, and
``examples/llm_bandwidth_tuning.py`` runs it as an event-driven
cross-check of the analytic sweep in :mod:`repro.apps.llm.serving`,
which is what Fig. 10 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Tuple

from ...errors import ConfigurationError
from ...faults.breaker import CircuitBreaker
from ...faults.metrics import RecoveryTracker
from ...sim.stats import LatencyHistogram
from ...units import GIB
from .backend import CpuBackend
from .kvcache import KvCache
from .serving import LlmServingExperiment

if TYPE_CHECKING:
    from ...faults.injector import FaultInjector
    from ...workloads.llm_trace import ChatRequest

__all__ = ["ServingResult", "LlmRouter"]

#: Fraction of a decode step's cost each context token costs to
#: re-prefill after a sequence is rerouted to another backend.  Prefill
#: is compute-parallel where decode is bandwidth-serial, so a context
#: token re-processes roughly an order of magnitude cheaper than a
#: decode step.
REPREFILL_STEP_FRACTION = 0.05


@dataclass
class ServingResult:
    """What a routed serving run produced."""

    requests_completed: int = 0
    tokens_generated: int = 0
    elapsed_ns: float = 0.0
    request_latency: LatencyHistogram = field(
        default_factory=lambda: LatencyHistogram(min_value=1e6)
    )
    #: Requests abandoned because no healthy backend remained.
    requests_failed: int = 0
    #: Sequences migrated to another backend (device loss / breaker).
    reroutes: int = 0

    @property
    def tokens_per_second(self) -> float:
        """Aggregate decode throughput."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.tokens_generated / (self.elapsed_ns / 1e9)


class LlmRouter:
    """Least-loaded request router over N simulated CPU backends."""

    def __init__(
        self,
        experiment: LlmServingExperiment,
        backends: int,
        kv_capacity_bytes: int = 64 * GIB,
    ) -> None:
        if backends <= 0:
            raise ConfigurationError("backends must be positive")
        self.experiment = experiment
        self.n_backends = backends
        self.model = experiment.backend.model
        self.caches = [
            KvCache(self.model, kv_capacity_bytes) for _ in range(backends)
        ]
        self.active_sequences = [0] * backends
        self.faults: Optional[FaultInjector] = None
        self.backend_nodes: List[int] = []
        self.breakers: List[CircuitBreaker] = []
        self.step_timeout_factor = float("inf")
        self.recovery: Optional[RecoveryTracker] = None

    def attach_faults(
        self,
        injector: FaultInjector,
        backend_nodes: Optional[List[int]] = None,
        step_timeout_factor: float = 4.0,
        failure_threshold: int = 3,
        reset_timeout_ns: float = 200e6,
        tracker: Optional[RecoveryTracker] = None,
    ) -> None:
        """Enable RAS routing: timeouts, circuit breakers, failover.

        ``backend_nodes`` maps each backend to the memory node its KV
        cache lives on; by default backends round-robin across all
        memory nodes (DRAM first, then CXL), so losing the CXL expander
        takes out a share of the fleet but not all of it.  A decode step
        slower than ``step_timeout_factor`` x its healthy time misses
        its deadline: the miss counts against the backend's circuit
        breaker and the sequence is rerouted (paying a re-prefill of
        its context on the new backend).  The deadline is relative —
        keyed to degradation, not absolute step time — so the policy is
        load-independent.
        """
        platform = injector.platform
        if backend_nodes is None:
            # CXL first so the expander always backs a share of the
            # fleet even when DRAM nodes outnumber the backends.
            pool = [n.node_id for n in platform.cxl_nodes()]
            pool += [n.node_id for n in platform.dram_nodes()]
            backend_nodes = [pool[i % len(pool)] for i in range(self.n_backends)]
        if len(backend_nodes) != self.n_backends:
            raise ConfigurationError("backend_nodes must map every backend")
        if step_timeout_factor <= 1.0:
            raise ConfigurationError("step_timeout_factor must exceed 1")
        self.faults = injector
        self.backend_nodes = list(backend_nodes)
        self.step_timeout_factor = step_timeout_factor
        self.recovery = tracker
        self.breakers = [
            CircuitBreaker(failure_threshold, reset_timeout_ns)
            for _ in range(self.n_backends)
        ]

    def _pick_backend(self) -> int:
        return min(range(self.n_backends), key=lambda i: self.active_sequences[i])

    def _pick_healthy_backend(self, now_ns: float) -> Optional[int]:
        """Least-loaded backend that is online and breaker-admitted."""
        assert self.faults is not None
        order = sorted(range(self.n_backends), key=lambda i: self.active_sequences[i])
        for i in order:
            if not self.faults.node_online(self.backend_nodes[i], now_ns):
                continue
            if self.breakers[i].allow(now_ns):
                return i
        return None

    def serve(self, requests: Iterable[ChatRequest]) -> ServingResult:
        """Run all requests to completion.

        Every sequence enters at t=0; the router assigns each to a
        backend when it starts.  Each sequence is a generator that
        yields how long it waits before its next step.  The run resumes
        them from a ``(time, seq)`` heap, in the order an event engine
        would: by time, then in the order the waits were scheduled,
        creation order first at t=0.
        """
        now = 0.0
        result = ServingResult()
        # The steady-state operating point prices every token step; the
        # DES adds queueing/assignment dynamics on top.
        point = self.experiment.serving_point(self.n_backends)

        backend: CpuBackend = self.experiment.backend

        def healthy_step_time(idx: int, seq_id: int) -> float:
            share = self.experiment.spec.offered_bandwidth / max(
                1, self.active_sequences[idx]
            )
            return backend.token_time_ns(
                bandwidth_share=share,
                loaded_latency_ns=point.loaded_latency_ns,
                kv_bytes=self.caches[idx].bytes_of(seq_id),
            )

        def step_time(idx: int, seq_id: int) -> float:
            step_ns = healthy_step_time(idx, seq_id)
            if self.faults is not None:
                step_ns *= self.faults.latency_multiplier(
                    self.backend_nodes[idx], now
                )
            return step_ns

        def sequence(seq_id: int, request: ChatRequest) -> Iterator[float]:
            start = now
            # Pick the backend when the sequence actually starts, so the
            # least-loaded choice sees the real active counts (and, under
            # faults, the current health picture).
            if self.faults is not None:
                self.faults.advance(now)
                idx = self._pick_healthy_backend(now)
                if idx is None:
                    result.requests_failed += 1
                    if self.recovery is not None:
                        self.recovery.record(now, 0.0, ok=False)
                    return
            else:
                idx = self._pick_backend()
            self.caches[idx].admit(seq_id, request.prompt_tokens)
            self.active_sequences[idx] += 1
            generated = 0

            def leave(i: int) -> None:
                self.caches[i].release(seq_id)
                self.active_sequences[i] -= 1

            def reroute(from_idx: int):
                """Move the sequence to a healthy backend (or give up)."""
                leave(from_idx)
                new = self._pick_healthy_backend(now)
                if new is None:
                    return None
                self.caches[new].admit(seq_id, request.prompt_tokens + generated)
                self.active_sequences[new] += 1
                result.reroutes += 1
                return new

            while generated < request.max_new_tokens:
                if self.faults is not None:
                    self.faults.advance(now)
                    node = self.backend_nodes[idx]
                    if not self.faults.node_online(node, now):
                        self.breakers[idx].record_failure(now)
                        new = reroute(idx)
                        if new is None:
                            result.requests_failed += 1
                            if self.recovery is not None:
                                self.recovery.record(now, 0.0, ok=False)
                            return
                        idx = new
                        refill = (
                            REPREFILL_STEP_FRACTION
                            * (request.prompt_tokens + generated)
                            * step_time(idx, seq_id)
                        )
                        yield refill
                        continue
                step_ns = step_time(idx, seq_id)
                deadline_ns = healthy_step_time(idx, seq_id) * self.step_timeout_factor
                if self.faults is not None and step_ns > deadline_ns:
                    # Step deadline blown: count against the breaker and
                    # try a healthier backend after the timeout elapses.
                    self.breakers[idx].record_failure(now)
                    yield deadline_ns
                    new = reroute(idx)
                    if new is None:
                        result.requests_failed += 1
                        if self.recovery is not None:
                            self.recovery.record(now, 0.0, ok=False)
                        return
                    if new != idx:
                        refill = (
                            REPREFILL_STEP_FRACTION
                            * (request.prompt_tokens + generated)
                            * step_time(new, seq_id)
                        )
                        yield refill
                    idx = new
                    continue
                yield step_ns
                if self.faults is not None:
                    self.breakers[idx].record_success(now)
                self.caches[idx].append_token(seq_id)
                generated += 1
                result.tokens_generated += 1
                if self.recovery is not None:
                    self.recovery.record(now, step_ns, ok=True)
            leave(idx)
            result.requests_completed += 1
            result.request_latency.record(now - start)

        waits: List[Tuple[float, int, Iterator[float]]] = [
            (0.0, seq_id, sequence(seq_id, request))
            for seq_id, request in enumerate(requests)
        ]
        order = len(waits)
        while waits:
            now, _, steps = heappop(waits)
            delay = next(steps, None)
            if delay is not None:  # None: the sequence finished
                heappush(waits, (now + delay, order, steps))
                order += 1
        result.elapsed_ns = now
        return result

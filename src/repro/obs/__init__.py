"""``repro.obs`` — the unified observability layer.

Three pieces, all deterministic and all off the hot path by default:

* :mod:`~repro.obs.registry` — a Prometheus-style metrics registry the
  stack's accounting objects (``Counter``, ``OverloadMetrics``,
  ``EngineProfile``, the cache and serve snapshots) register into, with
  one JSON/CSV snapshot exporter.
* :mod:`~repro.obs.tracing` — request-scoped per-layer spans in sim
  time.  Pass :data:`NULL_TRACER` (the default everywhere) for zero-cost
  no-ops; a live :class:`Tracer` decomposes each op's latency without
  perturbing the simulation.
* :mod:`~repro.obs.profile` — engine-level profiling: per-process event
  counts and sim-time-in-state accounting on :class:`~repro.sim.engine.Simulator`.

``repro metrics`` / ``repro trace`` drive all three over a small
YCSB-on-CXL run via :func:`~repro.obs.run.run_observed_keydb`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "EngineProfile": ".profile",
    "GaugeFamily": ".registry",
    "MetricsRegistry": ".registry",
    "NULL_TRACER": ".tracing",
    "NullTracer": ".tracing",
    "ObservedRun": ".run",
    "OpTrace": ".tracing",
    "Sample": ".registry",
    "Span": ".tracing",
    "Tracer": ".tracing",
    "histogram_samples": ".registry",
    "run_observed_keydb": ".run",
})

"""``repro.obs`` — the unified observability layer.

Two pieces, both deterministic and both off the hot path by default:

* :mod:`~repro.obs.registry` — a Prometheus-style metrics registry the
  stack's accounting objects (``Counter``, ``OverloadMetrics``, the
  cache and serve snapshots) register into, with one JSON/CSV snapshot
  exporter.
* :mod:`~repro.obs.tracing` — request-scoped per-layer spans in sim
  time.  Pass :data:`NULL_TRACER` (the default everywhere) for zero-cost
  no-ops; a live :class:`Tracer` decomposes each op's latency without
  perturbing the simulation.

``repro metrics`` / ``repro trace`` drive both over a small
YCSB-on-CXL run via :func:`~repro.obs.run.run_observed_keydb`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
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

"""Deterministic parallel experiment runner.

Every sweep in the reproduction — figure cells, offered-load factors,
fault-catalog cases — is embarrassingly parallel: each point is an
independent deterministic simulation keyed by (params, seed).  This
package fans those points out across worker processes while keeping the
results **bit-identical** to a serial run:

* :mod:`repro.parallel.jobs` — the :class:`SweepSpec`/:class:`SweepPoint`
  /:class:`PointResult` job model with per-point derived seeds;
* :mod:`repro.parallel.runner` — :func:`run_sweep`: ``workers=1``
  in-process execution (zero behavior change when nothing fails) or
  fan-out over the supervised worker pool, worker count from
  ``--workers`` or ``$REPRO_WORKERS``;
* :mod:`repro.parallel.supervisor` — the supervised execution layer:
  spawn workers with heartbeat liveness, crash detection and
  re-dispatch, per-point deadlines, bounded retry with exponential
  backoff, quarantine, and graceful SIGINT/SIGTERM drain
  (:class:`SupervisorConfig`, :class:`RunnerHealth`);
* :mod:`repro.parallel.chaos` — fault injection for the runner itself:
  real worker kills, hangs past the deadline, transient exceptions and
  at-rest cache corruption, with a byte-identity guarantee against
  clean runs;
* :mod:`repro.parallel.merge` — merging per-point ``repro.metrics/v1``
  snapshots into one document, in spec order;
* :mod:`repro.parallel.tasks` — the stock spawn-importable tasks behind
  ``repro sweep``, the figure benchmarks, the fault catalog and
  ``repro serve``.

Importing the package loads none of these modules: its exports resolve
on first use, so a spawned worker loads only the supervisor and the
stack of its own task, and ``python -m repro.parallel.chaos`` runs a
module no package import has loaded before.

See ``docs/architecture.md`` ("Parallel experiment runner" and "Runner
robustness") for the determinism contract and the failure model.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "derive_seed": ".jobs",
    "SweepPoint": ".jobs",
    "SweepSpec": ".jobs",
    "PointError": ".jobs",
    "PointResult": ".jobs",
    "SweepResult": ".jobs",
    "SweepExecutionError": ".jobs",
    "SupervisorConfig": ".supervisor",
    "RunnerHealth": ".supervisor",
    "current_attempt": ".supervisor",
    "merge_metrics_documents": ".merge",
    "merged_metrics_json": ".merge",
    "WORKERS_ENV": ".runner",
    "resolve_workers": ".runner",
    "run_sweep": ".runner",
    "supervisor": ".supervisor",
    "tasks": ".tasks",
})

"""``repro serve``: a crash-tolerant, self-protecting capacity-planning
service.

The reproduction's sweeps answer capacity-planning what-ifs ("what does
fig5 look like at this scale / with this seed?"); this package serves
those queries over HTTP instead of one CLI invocation at a time, and
treats its *own* robustness as part of the reproduction:

* :mod:`repro.serve.protocol` — job specs, the job state machine, and
  the crash-safe ``repro.job/v1`` journal;
* :mod:`repro.serve.jobs` — the :class:`JobManager`: bounded admission
  from its own job table (with :mod:`repro.overload`'s token bucket on
  the host clock), supervised sweep execution with per-job deadlines
  and cancellation, journal recovery after SIGKILL, graceful drain on
  SIGTERM;
* :mod:`repro.serve.app` — the stdlib asyncio HTTP front-end
  (``/healthz``, ``/readyz``, ``/metrics``, ``/jobs`` and friends) with
  classified error responses and 429/503 + ``Retry-After`` shedding;
* :mod:`repro.serve.client` — the matching stdlib client;
* :mod:`repro.serve.obs` — serve counters as ``repro.metrics/v1``;
* :mod:`repro.serve.chaos` — the end-to-end kill/restart harness
  (``python -m repro.serve.chaos``) asserting resumed exports are
  byte-identical to never-killed ones.

The durability story is the content-addressed sweep cache: every
completed point is persisted before anything else observes it, so the
server's job table (journal) plus the cache are sufficient to rebuild
all progress after a crash — and the resumed merge is byte-identical
to ``repro sweep <target> --json``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "JOB_SCHEMA": ".protocol",
    "JOB_TARGETS": ".protocol",
    "Job": ".protocol",
    "JobSpec": ".protocol",
    "JobState": ".protocol",
    "ServeConfig": ".protocol",
    "JobManager": ".jobs",
    "build_sweep_spec": ".jobs",
    "demo_sweep_spec": ".jobs",
    "ServeApp": ".app",
    "BackgroundServer": ".app",
    "serve_forever": ".app",
    "ServeClient": ".client",
    "ServeResponse": ".client",
    "register_serve_stats": ".obs",
})

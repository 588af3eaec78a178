"""Per-point backend selection: which sweeps the fast path may serve.

The analytical backend is a *steady-state* KeyDB model, calibrated to
within pinned tolerances (fig5 / fig8: see :mod:`repro.analytic.validate`)
wherever the DES itself converges to a fixed point — but it has nothing
to say about genuinely history-dependent runs: overload admission
transients, fault-injection timelines, the Spark/LLM app models, or the
hot-promotion migration ramp, whose figure-of-merit *is* the transient.

:func:`select_backend` encodes exactly that boundary, per sweep point.
The fig5/fig8 spec builders write its answer into each point's
``backend`` param:

========  =====================================================
target    routing under ``--backend auto``
========  =====================================================
fig3      analytic in the routing line; every backend runs the
          one allocator-backed ``MlcProbe``, so no events are
          avoided
fig4      same as fig3
fig5      analytic, except ``hot-promote`` cells -> DES (the
          migration ramp is a transient)
fig8      analytic (single-node steady state)
fig7      DES (Spark stage model has no analytic counterpart)
fig10     DES (serving-rate search)
overload  DES (admission-control transients)
========  =====================================================

``--backend analytic`` *forces* the fast path and is rejected with a
:class:`~repro.errors.ConfigurationError` on targets that have none —
a forced backend silently falling back would defeat the point of
forcing it.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Tuple

from ..errors import ConfigurationError

__all__ = [
    "BACKENDS",
    "ANALYTIC_TARGETS",
    "select_backend",
    "require_analytic",
    "estimated_events_avoided",
    "routing_summary",
]

#: Legal values of every ``--backend`` flag / job-spec field.
BACKENDS = ("des", "analytic", "auto")

#: Targets that accept ``--backend analytic``: fig5/fig8 have the KeyDB
#: model; fig3/fig4 run their one allocator path under every backend.
ANALYTIC_TARGETS = frozenset({"fig3", "fig4", "fig5", "fig8"})


def select_backend(target: str, params: Mapping[str, Any]) -> str:
    """The backend ``auto`` routes one sweep point to.

    Returns ``"analytic"`` for steady-state points (fig5/fig8 cells with
    a calibrated closed form, and fig3/fig4 points, which run the same
    path either way) and ``"des"`` for everything else (transients,
    faults, app models without an analytic counterpart).
    """
    if target not in ANALYTIC_TARGETS:
        return "des"
    if target == "fig5" and params.get("config") == "hot-promote":
        # The hot-promotion cell's figure of merit is the migration
        # transient; keep it on the event-driven path.
        return "des"
    return "analytic"


def require_analytic(target: str) -> None:
    """Reject ``--backend analytic`` on a target with no fast path."""
    if target not in ANALYTIC_TARGETS:
        raise ConfigurationError(
            f"target {target!r} has no analytical backend (transient or "
            f"app-model sweep); use --backend des or auto"
        )


def estimated_events_avoided(target: str, params: Mapping[str, Any]) -> int:
    """Roughly how many DES events one analytic-routed point skips.

    KeyDB points price one event per operation.  MLC points (fig3/fig4)
    run the same allocator under every backend, so they skip none.  The
    estimate feeds the ``--backend auto`` routing summary line — an
    order-of-magnitude narration, not an accounting identity.
    """
    if target in ("fig5", "fig8"):
        return int(params.get("total_ops", 0))
    return 0


def routing_summary(decisions: Iterable[Tuple[str, int]]) -> str:
    """One-line account of an ``auto`` sweep's routing.

    ``decisions`` yields ``(backend, events_avoided)`` per point; the
    line mirrors the runner's cache summary format, e.g.
    ``backend: 24 analytic, 4 des (~480000 est. DES events avoided)``.
    """
    analytic = des = avoided = 0
    for backend, events in decisions:
        if backend == "analytic":
            analytic += 1
            avoided += events
        else:
            des += 1
    return (f"backend: {analytic} analytic, {des} des "
            f"(~{avoided} est. DES events avoided)")

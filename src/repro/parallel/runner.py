"""Deterministic fan-out of sweep points across supervised workers.

:func:`run_sweep` executes a :class:`~repro.parallel.jobs.SweepSpec`
either in-process (``workers=1``, byte-for-byte the historical serial
behavior when nothing fails) or across supervised worker processes (see
:mod:`repro.parallel.supervisor`).  The determinism contract:

* every point's seed and params are fixed in the spec before execution,
  so a point's value never depends on which worker ran it, when, or on
  which attempt;
* results are re-ordered into spec order regardless of completion order;
* host wall-clock and robustness telemetry (retries, timeouts, worker
  restarts) never enter point values — they travel as sidecar metadata
  (``elapsed_s``, ``cache_stats``, ``runner_health``) — so merged
  exports are bit-identical across worker counts and failure histories.

Failure handling: a point that raises records a structured
:class:`~repro.parallel.jobs.PointError` — type, message, traceback,
attempts, retryable — and the sweep continues.  Retryable failures
(:func:`repro.errors.is_retryable`: crashes, deadline kills,
``TransientError``/``FaultError``, OS pressure) are re-dispatched with
exponential backoff up to ``SupervisorConfig.max_attempts``, then
quarantined.  A worker returning an unpicklable value — or a point
whose *params* won't pickle into a worker — is demoted to a per-point
failure rather than wedging or aborting the run.

Worker count resolution (first match wins): the explicit ``workers``
argument, the ``REPRO_WORKERS`` environment variable, then 1.

Result caching: pass ``cache`` (a :class:`~repro.cache.store.SweepCache`)
and every point is first looked up by its content fingerprint — hits are
served without executing (``PointResult.cached``), misses execute and
are persisted **immediately on completion**, before the progress
callback fires, so a sweep killed mid-run resumes from the last
completed point on the next invocation.  An interrupted run (SIGINT,
SIGTERM or the ``cancel`` event) drains gracefully: workers are torn
down, every completed point is already in the cache, and one
``KeyboardInterrupt`` propagates whose message is the drain line,
``sweep 'NAME' drained on REASON: k/n points completed and persisted``
— the run's only record of the cut (k counts successful points; "and
persisted" appears only with a cache attached).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from ..errors import ConfigurationError
from .jobs import PointResult, SweepResult, SweepSpec
from .supervisor import (
    RunnerHealth,
    SupervisorConfig,
    SweepDrained,
    _classified_execute,
    _set_context,
    run_supervised,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..cache.store import SweepCache

__all__ = [
    "WORKERS_ENV",
    "resolve_workers",
    "run_sweep",
]

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"

#: ``progress(done, total, result)`` callback signature.
ProgressFn = Callable[[int, int, PointResult], None]

def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: argument, then $REPRO_WORKERS, then 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ConfigurationError(
                f"{WORKERS_ENV} must be a positive integer, got {raw!r}"
            ) from exc
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return workers


def run_sweep(
    spec: SweepSpec,
    workers: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    cache: Optional["SweepCache"] = None,
    supervise: Optional[SupervisorConfig] = None,
    cancel: Optional[threading.Event] = None,
) -> SweepResult:
    """Execute every point of ``spec``; results come back in spec order.

    ``workers=1`` (the default when ``REPRO_WORKERS`` is unset) runs the
    points in-process — with zero behavioral difference from a plain
    loop when nothing fails, plus the same bounded retry of retryable
    errors the supervised path applies.  ``workers>1`` fans the points
    out over supervised spawn processes sized ``min(workers, misses)``
    with heartbeat liveness, crash re-dispatch, per-point deadlines and
    quarantine (see :class:`~repro.parallel.supervisor.SupervisorConfig`;
    ``supervise=None`` uses its defaults).  ``progress`` is invoked in
    the parent, in completion order, after each point lands.

    With ``cache`` set, points whose fingerprints are already stored are
    served without executing (in spec order, before any execution
    starts) and every successfully executed point is persisted the
    moment its result lands in the parent — *before* ``progress`` fires
    — so interrupting the sweep never loses completed work.  Failed
    points are never cached.  The returned
    :attr:`SweepResult.cache_stats` carries this run's hit/miss/store
    deltas and :attr:`SweepResult.runner_health` the retry/timeout/
    restart counts — both sidecar metadata, absent from merged exports.

    ``cancel`` is the programmatic drain hook: a ``threading.Event``
    that, once set, drains the sweep exactly like SIGTERM would —
    completed points stay persisted and ``KeyboardInterrupt`` propagates
    with the drain line (reason ``cancelled``).
    It exists for callers that run sweeps off the main thread (the
    ``repro serve`` job manager), where signal handlers cannot be
    installed.  Both the serial and the supervised path honor it at
    point boundaries.
    """
    n_workers = resolve_workers(workers)
    config = supervise if supervise is not None else SupervisorConfig()
    points = spec.points
    total = len(points)
    started = time.perf_counter()
    slots: List[Optional[PointResult]] = [None] * total
    done = 0
    pending = list(range(total))
    fingerprints: List[str] = []
    stats_before = None
    tname = ""
    health = RunnerHealth()

    if cache is not None:
        from ..cache.fingerprint import task_name

        tname = task_name(spec.task)
        stats_before = cache.stats.snapshot()
        fingerprints = [
            cache.key_for(spec.task, point.params, point.seed)
            for point in points
        ]
        pending = []
        for index, point in enumerate(points):
            entry = cache.lookup(fingerprints[index])
            if entry is None:
                pending.append(index)
                continue
            result = PointResult(
                key=point.key,
                index=index,
                seed=point.seed,
                params=dict(point.params),
                ok=True,
                value=entry.value,
                elapsed_s=0.0,
                cached=True,
            )
            slots[index] = result
            done += 1
            if progress is not None:
                progress(done, total, result)

    def _persist(result: PointResult) -> None:
        if cache is not None and result.ok:
            cache.put(
                fingerprints[result.index],
                result.value,
                key=result.key,
                task=tname,
                seed=result.seed,
                elapsed_s=result.elapsed_s,
            )

    def _land(result: PointResult) -> None:
        nonlocal done
        slots[result.index] = result
        _persist(result)
        done += 1
        if progress is not None:
            progress(done, total, result)

    def _finish(pool_size: int) -> SweepResult:
        cache_stats = None
        if cache is not None and stats_before is not None:
            cache_stats = cache.stats.delta(stats_before)
            executed = total - done_from_cache
            if cache_stats.hits and executed:
                # Served-from-cache points alongside fresh executions:
                # this run resumed (or extended) an earlier sweep.
                cache_stats.resumed = cache_stats.hits
                cache.stats.resumed += cache_stats.hits
        return SweepResult(
            name=spec.name,
            base_seed=spec.base_seed,
            workers=pool_size,
            results=[pr for pr in slots if pr is not None],
            elapsed_s=time.perf_counter() - started,
            cache_stats=cache_stats,
            runner_health=health,
        )

    done_from_cache = done

    def _drain_to_interrupt(reason: str) -> "KeyboardInterrupt":
        landed = sum(1 for pr in slots if pr is not None and pr.ok)
        persisted = " and persisted" if cache is not None else ""
        return KeyboardInterrupt(
            f"sweep {spec.name!r} drained on {reason}: "
            f"{landed}/{total} points completed{persisted}"
        )

    serial = n_workers == 1 or len(pending) <= 1
    # run_supervised owns SIGINT/SIGTERM on the pool path; the serial
    # path installs its own so its drain line names the signal, and
    # holds a signal back while a point lands so the line's count is
    # exactly what the cache holds.
    signal_reason: List[str] = []
    landing = False

    def _on_signal(signum: int, frame: Any) -> None:
        signal_reason.append(signal.Signals(signum).name)
        if not landing:
            raise KeyboardInterrupt()

    previous_handlers = []
    if serial and threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers.append((signum, signal.signal(signum, _on_signal)))
    try:
        if not serial:
            pool_size = run_supervised(
                spec.task, points, pending, n_workers, config, _land, health,
                cancel=cancel,
            )
        else:
            pool_size = 1
            for index in pending:
                if cancel is not None and cancel.is_set():
                    raise SweepDrained("cancelled")
                point = points[index]
                result = None
                for attempt in range(1, config.max_attempts + 1):
                    _set_context(None, attempt)
                    try:
                        result = _classified_execute(
                            spec.task, point.key, index, point.params,
                            point.seed, attempt,
                        )
                    finally:
                        _set_context(None, 1)
                    if result.ok or result.error is None:
                        break
                    if not result.error.retryable:
                        break
                    health.transient_errors += 1
                    if attempt == config.max_attempts:
                        break
                    health.retries += 1
                    time.sleep(config.backoff_s(attempt, point.key))
                assert result is not None
                landing = True
                _land(result)
                landing = False
                if signal_reason:
                    raise KeyboardInterrupt()
                if not result.ok:
                    if result.error is not None and result.error.retryable:
                        health.quarantined += 1
                    if config.fail_fast:
                        break
    except KeyboardInterrupt:
        reason = signal_reason[0] if signal_reason else "interrupt"
        raise _drain_to_interrupt(reason) from None
    except SweepDrained as drained:
        raise _drain_to_interrupt(drained.reason) from None
    finally:
        for signum, previous in previous_handlers:
            if previous is not None:
                signal.signal(signum, previous)
    return _finish(pool_size)

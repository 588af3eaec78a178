"""Supervised execution of sweep points across worker processes.

The bare ``multiprocessing.Pool`` the runner used through PR 5 had the
failure profile "Dissecting CXL Memory Performance at Scale" reports
dominating fleet sweeps: one SIGKILL'd, OOM'd, or hung worker aborts or
wedges the whole run.  This module replaces it with a supervisor that
owns each worker process individually:

* **liveness** — every worker runs a daemon heartbeat thread; the parent
  detects a dead worker instantly (its pipe hits EOF) and a wedged one
  (SIGSTOP'd, swap-thrashed) when its heartbeat lapses;
* **crash re-dispatch** — a worker that dies mid-point (SIGKILL,
  segfault, OOM kill) is replaced and its in-flight point requeued;
* **deadlines** — ``point_timeout_s`` bounds each attempt's wall-clock;
  a hung worker is SIGKILLed and its point requeued;
* **bounded retry** — retryable failures (see
  :func:`repro.errors.is_retryable`) re-dispatch with exponential
  backoff + deterministic jitter, reusing
  :class:`repro.faults.retry.RetryPolicy`'s arithmetic so sim-level and
  harness-level budgets share one implementation;
* **quarantine** — a point that exhausts ``max_attempts`` lands as a
  structured :class:`~repro.parallel.jobs.PointError` carrying
  ``attempts``/``retryable`` and the sweep continues;
* **drain** — SIGINT/SIGTERM stops dispatch, kills in-flight attempts,
  and hands control back to the runner, which has already persisted
  every completed point to the sweep cache and now writes a resume
  manifest.

The determinism contract survives every recovery path: a retried point
re-runs with its identical ``(task, params, seed)``, so the value that
finally lands is byte-identical to an unperturbed run, and all health
telemetry travels in the :class:`RunnerHealth` sidecar — never in the
merged ``repro.metrics/v1`` exports.
"""

from __future__ import annotations

import atexit
import hashlib
import heapq
import os
import pickle
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..faults.retry import RetryPolicy
from .jobs import PointError, PointResult, SweepPoint

__all__ = [
    "SupervisorConfig",
    "RunnerHealth",
    "SweepDrained",
    "current_attempt",
    "current_worker_id",
    "run_supervised",
]

#: Parent event-loop tick: the granularity of deadline/heartbeat checks.
_TICK_S = 0.05

#: Error types the parent manufactures for infrastructure failures (the
#: worker never got to report anything itself).
CRASH_ERROR = "WorkerCrashed"
TIMEOUT_ERROR = "PointTimeout"
UNRESPONSIVE_ERROR = "WorkerUnresponsive"
UNPICKLABLE_PARAMS_ERROR = "UnpicklableParams"

#: Default backoff between re-dispatches.  Reuses the sim-level
#: :class:`RetryPolicy` arithmetic with harness-scale constants:
#: 250 ms base doubling to an 8 s cap (values are ns; the supervisor
#: sleeps ``backoff_ns / 1e9`` host seconds).
DEFAULT_BACKOFF = RetryPolicy(
    max_attempts=3, base_backoff_ns=0.25e9, multiplier=2.0, max_backoff_ns=8e9
)


@dataclass(frozen=True)
class SupervisorConfig:
    """Robustness policy of one supervised sweep."""

    #: Wall-clock budget of a single attempt, measured from the worker's
    #: ``started`` ack (dispatch latency and process spawn/import time
    #: never count against it); ``None`` disables deadlines.  A worker
    #: wedged *before* the ack is caught by the heartbeat timeout.
    point_timeout_s: Optional[float] = None
    #: Total attempts per point (1 = never retry).  Only *retryable*
    #: failures consume extra attempts; a permanent error fails its
    #: point immediately regardless of the budget.
    max_attempts: int = 3
    #: Backoff arithmetic between attempts (shared with the sim layer).
    backoff: RetryPolicy = field(default_factory=lambda: DEFAULT_BACKOFF)
    #: Stop dispatching after the first *permanent* point failure.
    fail_fast: bool = False
    #: Worker heartbeat period.
    heartbeat_s: float = 0.5
    #: Declare a worker wedged after this long without a heartbeat;
    #: ``None`` derives ``20 x heartbeat_s``.
    heartbeat_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.point_timeout_s is not None and self.point_timeout_s <= 0:
            raise ConfigurationError("point_timeout_s must be positive")
        if self.heartbeat_s <= 0:
            raise ConfigurationError("heartbeat_s must be positive")
        if self.heartbeat_timeout_s is not None and self.heartbeat_timeout_s <= 0:
            raise ConfigurationError("heartbeat_timeout_s must be positive")

    @property
    def effective_heartbeat_timeout_s(self) -> float:
        if self.heartbeat_timeout_s is not None:
            return self.heartbeat_timeout_s
        return 20.0 * self.heartbeat_s

    def backoff_s(self, attempt: int, key: str) -> float:
        """Host-seconds to wait before re-dispatching ``attempt + 1``.

        Exponential base from the shared :class:`RetryPolicy` plus up to
        25% deterministic jitter hashed from ``(key, attempt)`` — two
        quarantine-bound points back off on decorrelated schedules, yet
        a rerun of the sweep reproduces the exact same schedule.
        """
        base = self.backoff.backoff_ns(max(1, attempt)) / 1e9
        digest = hashlib.sha256(f"backoff:{key}:{attempt}".encode()).digest()
        jitter = int.from_bytes(digest[:8], "big") / 2**64
        return base * (1.0 + 0.25 * jitter)


@dataclass
class RunnerHealth:
    """Sidecar telemetry of one sweep's infrastructure incidents.

    Everything here is host-level metadata in the same class as
    ``cache_stats`` and ``elapsed_s``: surfaced on stderr summaries and
    excluded from merged ``repro.metrics/v1`` exports by construction.
    A drained run counts nothing here: it raises ``KeyboardInterrupt``
    before any :class:`~repro.parallel.jobs.SweepResult` exists, and its
    resume manifest records the cut.
    """

    retries: int = 0          #: re-dispatches after retryable failures
    transient_errors: int = 0  #: retryable exceptions raised inside tasks
    timeouts: int = 0         #: attempts killed at the point deadline
    crashes: int = 0          #: workers that died mid-point
    unresponsive: int = 0     #: workers killed for lapsed heartbeats
    worker_restarts: int = 0  #: replacement workers spawned
    quarantined: int = 0      #: points failed after exhausting retries

    @property
    def any(self) -> bool:
        """True when any incident happened (worth a summary line)."""
        return any(
            (self.retries, self.transient_errors, self.timeouts, self.crashes,
             self.unresponsive, self.worker_restarts, self.quarantined)
        )

    def summary(self) -> str:
        """The one-line stderr form printed next to the cache summary."""
        return (
            f"{self.retries} retries, {self.timeouts} timeouts, "
            f"{self.crashes} crashes, {self.worker_restarts} worker "
            f"restarts, {self.quarantined} quarantined"
        )


class SweepDrained(Exception):
    """Internal: a signal asked the supervised run to stop.

    Raised out of :func:`run_supervised` after workers are torn down;
    the runner writes the resume manifest and converts it into the
    ``KeyboardInterrupt`` callers of interrupted sweeps already expect.
    """

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(f"sweep drained on {reason}")


# -- worker-side context ------------------------------------------------------
#
# The chaos harness (and any attempt-aware task) needs to know which
# attempt of which worker is executing *without* changing the
# ``task(params, seed)`` signature that every stock task and the cache
# fingerprint depend on.  The worker loop (and the serial runner's retry
# loop) publish it here instead.


class _ExecutionContext(threading.local):
    worker_id: Optional[int] = None
    attempt: int = 1


_CONTEXT = _ExecutionContext()


def current_attempt() -> int:
    """The 1-based attempt number of the point currently executing."""
    return getattr(_CONTEXT, "attempt", 1)


def current_worker_id() -> Optional[int]:
    """The supervised worker id, or ``None`` when running in-process."""
    return getattr(_CONTEXT, "worker_id", None)


def _set_context(worker_id: Optional[int], attempt: int) -> None:
    _CONTEXT.worker_id = worker_id
    _CONTEXT.attempt = attempt


# -- worker process -----------------------------------------------------------


def _classified_execute(
    task: Callable[[Mapping[str, Any], int], Any],
    key: str,
    index: int,
    params: Mapping[str, Any],
    seed: int,
    attempt: int,
) -> PointResult:
    """Run one attempt, converting any raise into a classified error."""
    import traceback as tb

    from ..errors import is_retryable

    started = time.perf_counter()
    try:
        value = task(dict(params), seed)
    except Exception as exc:
        return PointResult(
            key=key,
            index=index,
            seed=seed,
            params=dict(params),
            ok=False,
            error=PointError(
                type=type(exc).__name__,
                message=str(exc),
                traceback=tb.format_exc(),
                attempts=attempt,
                retryable=is_retryable(exc),
            ),
            elapsed_s=time.perf_counter() - started,
        )
    return PointResult(
        key=key,
        index=index,
        seed=seed,
        params=dict(params),
        ok=True,
        value=value,
        elapsed_s=time.perf_counter() - started,
    )


def _demote_unpicklable(result: PointResult, attempt: int) -> PointResult:
    """A successful result whose value won't pickle becomes a failure."""
    if not result.ok:
        return result
    try:
        pickle.dumps(result.value)
    except Exception as exc:
        return PointResult(
            key=result.key,
            index=result.index,
            seed=result.seed,
            params=result.params,
            ok=False,
            error=PointError(
                type="UnpicklableResult",
                message=f"task returned an unpicklable value: {exc}",
                traceback="",
                attempts=attempt,
                retryable=False,
            ),
            elapsed_s=result.elapsed_s,
        )
    return result


def _worker_main(worker_id: int, conn: Any, heartbeat_s: float) -> None:
    """Entry point of one supervised worker process.

    Receives ``("run", key, index, attempt, task, params, seed)``
    payloads on ``conn`` and answers with ``("started", ...)`` then
    ``("result", PointResult)``.  A daemon thread emits
    ``("hb", monotonic)`` every ``heartbeat_s`` so the parent can tell a
    busy worker from a wedged one.  Exits on ``("exit",)`` or EOF.
    """
    send_lock = threading.Lock()
    stop = threading.Event()

    def _send(message: Tuple[Any, ...]) -> bool:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                return False
        return True

    def _beat() -> None:
        while not stop.wait(heartbeat_s):
            if not _send(("hb", time.monotonic())):
                return

    threading.Thread(target=_beat, daemon=True, name="repro-heartbeat").start()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "exit":
                break
            _, key, index, attempt, task, params, seed = message
            _set_context(worker_id, attempt)
            _send(("started", index, attempt))
            result = _demote_unpicklable(
                _classified_execute(task, key, index, params, seed, attempt),
                attempt,
            )
            _set_context(worker_id, 1)
            if not _send(("result", result)):
                break
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass


# -- multiprocessing's resource tracker -----------------------------------------
#
# Spawning a worker starts multiprocessing's resource tracker, a helper
# process that exits once every copy of the write end of its pipe is
# closed.  Unless closed here, the parent's copy stays open, so the
# tracker outlives the sweep's interpreter and then lingers as a zombie
# under init.  There is one tracker per process
# (``multiprocessing.resource_tracker._resource_tracker``), so the state
# deciding when to close it is process-wide as well and lives at module
# level: the count of supervised runs that may still spawn, under a
# lock.  The last run to tear down its pool, once no multiprocessing
# child is left, closes the pipe with the lock and fields the tracker's
# own ``_stop()`` uses.  The tracker exits on EOF and is reaped (never
# killed) at the next teardown or, at the latest, at interpreter exit
# with a bounded wait.  A later spawn launches a fresh tracker.

_TRACKER_STATE_LOCK = threading.Lock()
_active_runs = 0
#: Trackers whose pipe was closed and which are not reaped yet.
_closed_trackers: List[int] = []

#: Interpreter exit waits at most this long for closed trackers to exit.
_TRACKER_REAP_S = 2.0


def _run_started() -> None:
    global _active_runs
    with _TRACKER_STATE_LOCK:
        _active_runs += 1


def _run_finished() -> None:
    global _active_runs
    import multiprocessing

    with _TRACKER_STATE_LOCK:
        _active_runs -= 1
        if _active_runs == 0 and not multiprocessing.active_children():
            _close_tracker()
        _reap_trackers(0.0)


def _close_tracker() -> None:
    """Close this process's pipe to the resource tracker it launched."""
    try:
        from multiprocessing import resource_tracker
    except ImportError:
        return
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    lock = getattr(tracker, "_lock", None)
    if lock is None or not hasattr(tracker, "_fd") or not hasattr(tracker, "_pid"):
        return
    with lock:
        if tracker._fd is None or tracker._pid is None:
            return  # not running, or launched by another process
        os.close(tracker._fd)
        _closed_trackers.append(tracker._pid)
        tracker._fd = None
        tracker._pid = None
    atexit.unregister(_reap_trackers)  # registered once, however often closed
    atexit.register(_reap_trackers, _TRACKER_REAP_S)


def _reap_trackers(wait_s: float) -> None:
    """Reap closed trackers that have exited, waiting up to ``wait_s``."""
    deadline = time.monotonic() + wait_s
    while _closed_trackers:
        pid = _closed_trackers[0]
        try:
            done = os.waitpid(pid, os.WNOHANG)[0] == pid
        except ChildProcessError:
            done = True
        if done:
            _closed_trackers.pop(0)
        elif time.monotonic() < deadline:
            time.sleep(0.005)
        else:
            return


# -- parent-side supervision --------------------------------------------------


@dataclass
class _Inflight:
    index: int
    attempt: int
    dispatched_at: float
    #: Set when the worker acks ``("started", ...)``; the point deadline
    #: runs from here, so spawn/import time never counts against it.
    started_at: Optional[float] = None


@dataclass
class _Handle:
    worker_id: int
    proc: Any
    conn: Any
    inflight: Optional[_Inflight] = None
    last_heartbeat: float = 0.0


def run_supervised(
    task: Callable[[Mapping[str, Any], int], Any],
    points: Sequence[SweepPoint],
    pending: Sequence[int],
    workers: int,
    config: SupervisorConfig,
    emit: Callable[[PointResult], None],
    health: RunnerHealth,
    cancel: Optional[threading.Event] = None,
) -> int:
    """Execute ``pending`` point indices under supervision.

    ``emit`` receives exactly one *final* :class:`PointResult` per
    pending index (in completion order; the caller slots them back into
    spec order).  Returns the pool size used.  Raises
    :class:`SweepDrained` after teardown when SIGINT/SIGTERM arrives, or
    when ``cancel`` (the programmatic drain hook used by ``repro
    serve``'s job manager, which runs sweeps off the main thread where
    signal handlers cannot be installed) is set.
    """
    import multiprocessing
    from multiprocessing import connection as mp_connection

    ctx = multiprocessing.get_context("spawn")
    pool_size = min(workers, len(pending))
    ready: deque = deque((index, 1) for index in pending)
    delayed: List[Tuple[float, int, int]] = []  # (due, index, attempt)
    outstanding = len(pending)
    handles: Dict[int, _Handle] = {}
    spawned = 0
    stop_dispatch = False
    drain_reason: List[str] = []

    def _spawn() -> None:
        nonlocal spawned
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(spawned, child_conn, config.heartbeat_s),
            daemon=True,
            name=f"repro-sweep-worker-{spawned}",
        )
        proc.start()
        child_conn.close()  # parent must drop its copy or EOF never fires
        handles[spawned] = _Handle(
            worker_id=spawned, proc=proc, conn=parent_conn,
            last_heartbeat=time.monotonic(),
        )
        spawned += 1

    def _discard(handle: _Handle, kill: bool) -> None:
        handles.pop(handle.worker_id, None)
        if kill and handle.proc.is_alive():
            handle.proc.kill()
        handle.proc.join(timeout=5.0)
        try:
            handle.conn.close()
        except OSError:
            pass

    def _finalize(result: PointResult) -> None:
        nonlocal outstanding, stop_dispatch
        emit(result)
        outstanding -= 1
        if not result.ok:
            if result.error is not None and result.error.retryable:
                health.quarantined += 1
            if config.fail_fast:
                stop_dispatch = True

    def _point_failed(index: int, attempt: int, result: PointResult) -> None:
        """Retry a retryable failure if budget remains, else finalize."""
        error = result.error
        if error is not None and error.retryable and attempt < config.max_attempts:
            health.retries += 1
            due = time.monotonic() + config.backoff_s(attempt, points[index].key)
            heapq.heappush(delayed, (due, index, attempt + 1))
            return
        _finalize(result)

    def _infrastructure_failure(
        handle: _Handle, error_type: str, message: str
    ) -> None:
        """A worker died or was killed while owning an in-flight point."""
        inflight = handle.inflight
        handle.inflight = None
        if inflight is None:
            return
        point = points[inflight.index]
        result = PointResult(
            key=point.key,
            index=inflight.index,
            seed=point.seed,
            params=dict(point.params),
            ok=False,
            error=PointError(
                type=error_type,
                message=message,
                traceback="",
                attempts=inflight.attempt,
                retryable=True,
            ),
            elapsed_s=time.monotonic() - inflight.dispatched_at,
        )
        _point_failed(inflight.index, inflight.attempt, result)

    def _handle_dead(handle: _Handle) -> None:
        exitcode = handle.proc.exitcode
        _discard(handle, kill=True)
        if handle.inflight is not None:
            health.crashes += 1
            _infrastructure_failure(
                handle, CRASH_ERROR,
                f"worker {handle.worker_id} died (exitcode {exitcode}) "
                f"while running attempt {handle.inflight.attempt}",
            )

    def _kill_wedged(handle: _Handle, error_type: str, message: str) -> None:
        _discard(handle, kill=True)
        _infrastructure_failure(handle, error_type, message)

    def _handle_message(handle: _Handle, message: Tuple[Any, ...]) -> None:
        kind = message[0]
        if kind == "hb":
            handle.last_heartbeat = time.monotonic()
        elif kind == "started":
            handle.last_heartbeat = time.monotonic()
            inflight = handle.inflight
            if (
                inflight is not None
                and (message[1], message[2]) == (inflight.index, inflight.attempt)
            ):
                inflight.started_at = time.monotonic()
        elif kind == "result":
            handle.last_heartbeat = time.monotonic()
            inflight = handle.inflight
            handle.inflight = None
            result: PointResult = message[1]
            attempt = inflight.attempt if inflight is not None else 1
            if result.ok:
                _finalize(result)
            else:
                if result.error is not None and result.error.retryable:
                    health.transient_errors += 1
                _point_failed(result.index, attempt, result)

    def _dispatch(handle: _Handle, index: int, attempt: int) -> None:
        nonlocal outstanding
        point = points[index]
        payload = ("run", point.key, index, attempt, task,
                   dict(point.params), point.seed)
        try:
            handle.conn.send(payload)
        except (BrokenPipeError, OSError):
            # Worker died between polls; put the work back and let the
            # liveness pass below recycle the worker.
            ready.appendleft((index, attempt))
            return
        except Exception as exc:
            # The payload itself would not pickle (unpicklable *params*).
            # Pre-supervisor this raised in the parent and aborted the
            # whole sweep; demote it to a per-point failure instead,
            # mirroring the unpicklable-*result* demotion.
            _finalize(PointResult(
                key=point.key,
                index=index,
                seed=point.seed,
                params={},
                ok=False,
                error=PointError(
                    type=UNPICKLABLE_PARAMS_ERROR,
                    message=f"point params do not pickle: {exc}",
                    traceback="",
                    attempts=attempt,
                    retryable=False,
                ),
                elapsed_s=0.0,
            ))
            return
        handle.inflight = _Inflight(
            index=index, attempt=attempt, dispatched_at=time.monotonic()
        )

    def _on_signal(signum: int, frame: Any) -> None:
        drain_reason.append(signal.Signals(signum).name)

    in_main_thread = threading.current_thread() is threading.main_thread()
    previous_handlers = []
    if in_main_thread:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers.append((signum, signal.signal(signum, _on_signal)))

    hb_timeout = config.effective_heartbeat_timeout_s
    _run_started()
    try:
        for _ in range(pool_size):
            _spawn()
        while outstanding > 0:
            if drain_reason:
                raise SweepDrained(drain_reason[0])
            if cancel is not None and cancel.is_set():
                raise SweepDrained("cancelled")
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, index, attempt = heapq.heappop(delayed)
                ready.append((index, attempt))
            if stop_dispatch and not any(
                h.inflight is not None for h in handles.values()
            ):
                break  # fail-fast: nothing in flight, stop here
            if not stop_dispatch:
                # Replace crashed/killed workers while work remains.
                in_flight = sum(
                    1 for h in handles.values() if h.inflight is not None
                )
                needed = min(pool_size, in_flight + len(ready) + len(delayed))
                while len(handles) < needed:
                    _spawn()
                    health.worker_restarts += 1
                for handle in list(handles.values()):
                    if not ready:
                        break
                    if handle.inflight is None:
                        index, attempt = ready.popleft()
                        _dispatch(handle, index, attempt)
            conns = [h.conn for h in handles.values()]
            by_conn = {h.conn: h for h in handles.values()}
            if conns:
                readable = mp_connection.wait(conns, timeout=_TICK_S)
            else:
                time.sleep(_TICK_S)
                readable = []
            for conn in readable:
                handle = by_conn[conn]
                if handle.worker_id not in handles:
                    continue  # torn down by an earlier message this tick
                try:
                    while conn.poll():
                        _handle_message(handle, conn.recv())
                except (EOFError, OSError):
                    _handle_dead(handle)
            now = time.monotonic()
            for handle in list(handles.values()):
                if not handle.proc.is_alive():
                    _handle_dead(handle)
                    continue
                inflight = handle.inflight
                if (
                    inflight is not None
                    and config.point_timeout_s is not None
                    and inflight.started_at is not None
                    and now - inflight.started_at > config.point_timeout_s
                ):
                    health.timeouts += 1
                    _kill_wedged(
                        handle, TIMEOUT_ERROR,
                        f"attempt {inflight.attempt} exceeded the "
                        f"{config.point_timeout_s:g}s point deadline",
                    )
                elif now - handle.last_heartbeat > hb_timeout:
                    health.unresponsive += 1
                    _kill_wedged(
                        handle, UNRESPONSIVE_ERROR,
                        f"worker {handle.worker_id} sent no heartbeat for "
                        f"{hb_timeout:g}s",
                    )
    finally:
        for handle in list(handles.values()):
            try:
                handle.conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for handle in list(handles.values()):
            handle.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join(timeout=5.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        handles.clear()
        _run_finished()
        if in_main_thread:
            for signum, previous in previous_handlers:
                signal.signal(signum, previous)
    if drain_reason:
        raise SweepDrained(drain_reason[0])
    return pool_size

"""The job manager: admission, execution, recovery, drain.

One :class:`JobManager` owns the server's job table and drives every
sweep-shaped what-if query through the state machine declared in
:mod:`repro.serve.protocol`.  The design dogfoods the repo's own
robustness layers instead of reinventing them:

* **admission** reads the job table itself: queued jobs are the records
  in state ``queued``, running jobs are the runner threads, and the
  only shared piece is the overload layer's
  :class:`~repro.overload.limiter.TokenBucketLimiter` on the host
  clock — so a flash crowd of queries is shed with computed
  Retry-After hints, the discipline the overload figures measure in
  simulation;
* **execution** is :func:`repro.parallel.run_sweep` with the job's
  ``cancel`` event wired through, so deadlines, client cancellation and
  SIGTERM drain all checkpoint through the same path an interactive
  Ctrl-C does (completed points persisted, one drain line raised);
* **durability** is the content-addressed sweep cache plus one
  ``repro.job/v1`` journal document per job, rewritten atomically on
  every transition.  A SIGKILL'd server therefore restarts, requeues
  whatever the journal says was in flight, and re-merges the exact same
  export from cache hits — byte-identical to the never-killed run.

Threading model: one scheduler thread promotes queued jobs into runner
threads (at most ``max_running``) and polices wall-clock deadlines; all
table state is guarded by one re-entrant lock.  The HTTP front-end calls
in from the event loop via ``run_in_executor``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..cache import SweepCache
from ..errors import ConfigurationError
from ..overload.limiter import TokenBucketLimiter
from ..parallel import SweepSpec, merge_metrics_documents, run_sweep
from ..parallel.jobs import SweepResult
from ..parallel.supervisor import SupervisorConfig
from ..parallel.tasks import demo_point_observed
from .protocol import (
    DEMO_TARGET,
    Job,
    JobSpec,
    JobState,
    ServeConfig,
    clear_journal,
    load_journal,
    write_journal,
)

__all__ = [
    "AdmissionDecision",
    "JobManager",
    "WallClock",
    "build_sweep_spec",
    "demo_sweep_spec",
]


class WallClock:
    """The host's monotonic clock under the overload layer's ``now_ns``
    contract.  A class (not a bare function) so tests can substitute a
    manually-advanced fake without monkeypatching ``time``."""

    def now_ns(self) -> float:
        """Monotonic host nanoseconds (never goes backwards)."""
        return float(time.monotonic_ns())

    def now_s(self) -> float:
        """Monotonic host seconds (same epoch as :meth:`now_ns`)."""
        return self.now_ns() / 1e9


@dataclass(frozen=True)
class AdmissionDecision:
    """The verdict of one admission attempt.

    ``retry_after_s`` is the shed path's backpressure signal: how long
    the client should wait before retrying (the server turns it into an
    HTTP ``Retry-After`` header).  It is a *hint*, computed from the
    rate deficit or the backlog estimate, never a reservation.
    """

    admitted: bool
    reason: str = ""
    retry_after_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "admitted": self.admitted,
            "reason": self.reason,
            "retry_after_s": self.retry_after_s,
        }


#: Smoothing factor of the service-time EWMA feeding queue-full
#: Retry-After estimates.
_EWMA_ALPHA = 0.3


def _expired(job: Job, now_ns: float) -> bool:
    """True once ``now_ns`` has passed the job's deadline (if any)."""
    return job.deadline_ns is not None and now_ns > job.deadline_ns


def demo_sweep_spec(points: int = 8, draws: int = 2048,
                    seed: int = 0xC0FFEE, sleep_s: float = 0.0) -> SweepSpec:
    """The tiny deterministic grid behind the ``demo`` job target.

    Sized by the job spec so admission/chaos tests get sweeps that
    finish in milliseconds where a figure target would dominate the
    wall clock; the scale is baked into the sweep name, so two demo jobs
    of different shapes are told apart in drain lines.  ``sleep_s`` pads
    each point's wall-clock (never its value) for interrupt-timing
    tests.
    """
    grid: Dict[str, Dict[str, Any]] = {
        f"d{index:03d}": {"draws": draws, "index": index}
        for index in range(points)
    }
    if sleep_s:
        for params in grid.values():
            params["sleep_s"] = sleep_s
    return SweepSpec.from_grid(
        f"serve-demo-{points}x{draws}", demo_point_observed, grid,
        base_seed=seed,
    )


def build_sweep_spec(spec: JobSpec) -> SweepSpec:
    """The executable sweep behind one job spec.

    Stock figure targets reuse :func:`repro.cli.stock_sweep_spec` — the
    single source of sweep points shared with ``repro sweep`` and the
    chaos harness, which is what makes a job's export byte-comparable
    to the CLI's.  A ``chaos`` block wraps the result in
    :func:`~repro.parallel.chaos.chaos_wrap`.
    """
    if spec.target == DEMO_TARGET:
        sweep = demo_sweep_spec(points=spec.points, draws=spec.draws,
                                seed=spec.seed, sleep_s=spec.sleep_s)
    else:
        from ..cli import stock_sweep_spec

        sweep = stock_sweep_spec(spec.target, quick=spec.quick,
                                 seed=spec.seed, mode=spec.mode,
                                 backend=spec.backend)
    if spec.chaos is not None:
        from ..parallel.chaos import ChaosPlan, chaos_wrap

        try:
            plan = ChaosPlan(**dict(spec.chaos))
        except TypeError as exc:
            raise ConfigurationError(f"malformed chaos plan: {exc}") from exc
        sweep = chaos_wrap(sweep, plan)
    return sweep


class JobManager:
    """Job table + admission + executors for one serve process.

    The table is the only record of admission state: a job is waiting
    while its state is ``queued`` and running while it holds a runner
    thread, so a cancelled or shed job frees its queue slot at once.
    """

    def __init__(self, config: ServeConfig,
                 cache: Optional[SweepCache] = None,
                 clock: Optional[WallClock] = None) -> None:
        self.config = config
        self.cache = cache if cache is not None else SweepCache()
        self.clock = clock if clock is not None else WallClock()
        self.jobs_dir = os.path.join(self.cache.root, "serve", "jobs")
        self.results_dir = os.path.join(self.cache.root, "serve", "results")
        self.bucket: Optional[TokenBucketLimiter] = None
        if config.rate_per_s is not None:
            self.bucket = TokenBucketLimiter(
                config.rate_per_s,
                config.burst if config.burst is not None
                else max(1.0, config.rate_per_s),
            )
        #: EWMA of observed service seconds; seeds the queue-full
        #: Retry-After estimate before any job has completed.
        self.mean_service_s = 1.0
        self.rejected_full = 0
        self.rejected_rate = 0
        self.shed_expired = 0
        self._lock = threading.RLock()
        #: Insertion order is submission (``seq``) order: recovery loads
        #: the journal sorted by ``seq`` before any new submission, and
        #: new jobs take increasing ``seq`` — so the queue is the
        #: ``queued`` records in iteration order, FIFO.
        self._jobs: Dict[str, Job] = {}
        self._seq = 0
        self._draining = False
        self._stopped = threading.Event()
        self._wake = threading.Event()
        self._runners: Dict[str, threading.Thread] = {}
        self._scheduler: Optional[threading.Thread] = None
        #: Jobs requeued from a dead server's journal this boot.
        self.recovered = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Recover the journal, then start the scheduler thread."""
        self._recover()
        self._scheduler = threading.Thread(
            target=self._schedule_loop, name="serve-scheduler", daemon=True
        )
        self._scheduler.start()

    def _recover(self) -> None:
        """Rebuild the table from ``repro.job/v1`` journal documents.

        Jobs the dead server left ``running`` take the recovery edge
        back to ``queued`` (their completed points are cache hits, so
        the re-run is a resume, not a repeat); jobs left ``queued`` are
        re-admitted straight into the bounded queue — deliberately
        bypassing the token bucket, which prices *client* submissions,
        not a restart replaying its own backlog.  Deadlines restart from
        recovery time.
        """
        for job in load_journal(self.jobs_dir):
            self._seq = max(self._seq, job.seq + 1)
            self._jobs[job.id] = job
            if job.terminal:
                continue
            if job.state is JobState.RUNNING:
                job.transition(JobState.QUEUED, "recovered after crash")
                job.resumed += 1
                self.recovered += 1
            job.deadline_ns = self._deadline_ns(job.spec)
            # The count includes this job, hence ``>``.
            if len(self._queued()) > self.config.queue_depth:
                self.rejected_full += 1
                job.transition(
                    JobState.FAILED,
                    "shed during recovery: admission queue full",
                )
            write_journal(self.jobs_dir, job)
            job.emit({"event": "queued", "state": job.state.value,
                      "resumed": job.resumed})

    def drain(self, budget_s: Optional[float] = None) -> bool:
        """Stop admitting, checkpoint in-flight jobs, flush journals.

        Running jobs get their ``cancel`` event with *drain* intent:
        :func:`~repro.parallel.run_sweep` finishes the point in flight,
        persists it, and the job is left ``running`` in the journal so
        the next boot requeues it.
        Queued jobs simply stay ``queued`` on disk.  Returns ``True``
        when every runner thread finished inside the budget.
        """
        budget = self.config.drain_budget_s if budget_s is None else budget_s
        with self._lock:
            self._draining = True
            runners = dict(self._runners)
            for job_id in runners:
                job = self._jobs.get(job_id)
                if job is not None and not job.cancel.is_set():
                    job.cancel_intent = "drain"
                    job.cancel.set()
        self._stopped.set()
        self._wake.set()
        deadline = self.clock.now_s() + budget
        clean = True
        for thread in runners.values():
            thread.join(max(0.0, deadline - self.clock.now_s()))
            clean = clean and not thread.is_alive()
        if self._scheduler is not None:
            self._scheduler.join(max(0.1, deadline - self.clock.now_s()))
        return clean

    @property
    def draining(self) -> bool:
        """True once SIGTERM drain started (readyz flips false)."""
        return self._draining

    # -- admission ----------------------------------------------------------

    def _deadline_ns(self, spec: JobSpec) -> Optional[float]:
        """The job's wall-clock deadline from now (None = none)."""
        deadline_s = (self.config.default_deadline_s
                      if spec.deadline_s is None else spec.deadline_s)
        if deadline_s == 0:
            return None
        return self.clock.now_ns() + deadline_s * 1e9

    def _queued(self) -> List[Job]:
        """The admission queue: ``queued`` records, oldest first."""
        return [job for job in self._jobs.values()
                if job.state is JobState.QUEUED]

    def submit(self, payload: Any) -> Tuple[
        AdmissionDecision, Optional[Job], Optional[Dict[str, Any]]
    ]:
        """Validate and admit one job, or shed it with a Retry-After.

        Returns the decision, the admitted job and its record as
        admitted — taken under the table lock before the scheduler can
        promote the job, so a ``201`` body never reports a later state.
        Sheds (rate, queue-full, draining) never allocate table space
        or journal bytes — rejection must stay cheap under a flash
        crowd, that is the whole point of admission control.
        """
        spec = JobSpec.from_payload(payload)  # raises ConfigurationError
        with self._lock:
            decision = self._admit()
            if not decision.admitted:
                return decision, None, None
            job = Job(id=f"{spec.target}-{self._seq:06d}", seq=self._seq,
                      spec=spec, deadline_ns=self._deadline_ns(spec))
            self._seq += 1
            self._jobs[job.id] = job
            write_journal(self.jobs_dir, job)
            job.emit({"event": "queued", "state": job.state.value})
            record = job.as_dict()
        self._wake.set()
        return decision, job, record

    def _admit(self) -> AdmissionDecision:
        # Draining, then table eviction, then the token bucket, then the
        # bounded queue: a queue-full shed has already spent its token.
        # Runs under the table lock.
        if self._draining:
            return AdmissionDecision(False, "draining",
                                     self.config.drain_budget_s)
        self._evict_terminal()
        now_ns = self.clock.now_ns()
        if self.bucket is not None and not self.bucket.try_acquire(now_ns):
            self.rejected_rate += 1
            deficit = max(0.0, 1.0 - self.bucket.tokens(now_ns))
            assert self.config.rate_per_s is not None
            return AdmissionDecision(
                False, "rate", max(0.1, deficit / self.config.rate_per_s)
            )
        queued = len(self._queued())
        if queued >= self.config.queue_depth:
            # The backlog must drain through max_running slots before a
            # new job can even wait; estimate with the service EWMA.
            self.rejected_full += 1
            waves = math.ceil((queued + 1) / self.config.max_running)
            return AdmissionDecision(
                False, "queue-full", max(0.5, waves * self.mean_service_s)
            )
        return AdmissionDecision(True)

    def _shed(self, job: Job) -> None:
        # A queued job aged past its wall-clock deadline.  Runs under
        # the table lock.
        self.shed_expired += 1
        with job.events_cond:
            job.transition(JobState.FAILED, "deadline expired while queued")
            write_journal(self.jobs_dir, job)
            job.emit({"event": "shed", "state": job.state.value,
                      "reason": job.reason})

    def _evict_terminal(self) -> None:
        # Bound the table: oldest terminal records (and their journal +
        # result files) make room; active jobs are never evicted.
        overflow = len(self._jobs) - (self.config.table_limit - 1)
        if overflow <= 0:
            return
        terminal = sorted(
            (job for job in self._jobs.values() if job.terminal),
            key=lambda job: job.seq,
        )
        for job in terminal[:overflow]:
            del self._jobs[job.id]
            clear_journal(self.jobs_dir, job.id)
            try:
                os.remove(self._result_path(job.id))
            except OSError:
                pass

    # -- scheduling ---------------------------------------------------------

    def _schedule_loop(self) -> None:
        while not self._stopped.is_set():
            self._promote()
            self._police_deadlines()
            self._wake.wait(0.05)
            self._wake.clear()

    def _promote(self) -> None:
        with self._lock:
            if self._draining:
                return
            now_ns = self.clock.now_ns()
            for job in self._queued():
                if len(self._runners) >= self.config.max_running:
                    return
                if _expired(job, now_ns):
                    self._shed(job)
                    continue
                job.transition(JobState.RUNNING)
                write_journal(self.jobs_dir, job)
                job.emit({"event": "running", "state": job.state.value})
                thread = threading.Thread(
                    target=self._run_job, args=(job,),
                    name=f"serve-job-{job.id}", daemon=True,
                )
                self._runners[job.id] = thread
                # Started under the lock so a concurrent drain() never
                # snapshots (and joins) a thread that isn't running yet.
                thread.start()

    def _police_deadlines(self) -> None:
        with self._lock:
            now_ns = self.clock.now_ns()
            for job in self._jobs.values():
                if not _expired(job, now_ns):
                    continue
                if job.state is JobState.QUEUED:
                    self._shed(job)
                elif (job.state is JobState.RUNNING
                      and not job.cancel.is_set()):
                    job.cancel_intent = "deadline"
                    job.cancel.set()

    # -- execution ----------------------------------------------------------

    def _run_job(self, job: Job) -> None:
        started = self.clock.now_s()
        try:
            sweep_spec = build_sweep_spec(job.spec)
            supervise = SupervisorConfig(
                point_timeout_s=job.spec.point_timeout_s,
                max_attempts=max(1, job.spec.retries + 1),
            )
            workers = (job.spec.workers if job.spec.workers is not None
                       else self.config.workers)

            def progress(done: int, total: int, result: Any) -> None:
                job.done, job.total = done, total
                job.emit({"event": "point", "key": result.key,
                          "ok": result.ok, "cached": result.cached,
                          "done": done, "total": total})

            sweep = run_sweep(
                sweep_spec, workers=workers, progress=progress,
                cache=self.cache, supervise=supervise, cancel=job.cancel,
            )
        except KeyboardInterrupt:
            self._land_interrupted(job)
        except ConfigurationError as exc:
            self._land_terminal(job, JobState.FAILED, str(exc), error={
                "type": "ConfigurationError", "message": str(exc),
            })
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            self._land_terminal(
                job, JobState.FAILED, f"{type(exc).__name__}: {exc}",
                error={"type": type(exc).__name__, "message": str(exc)},
            )
        else:
            self._land_completed(job, sweep)
        finally:
            with self._lock:
                self._runners.pop(job.id, None)
                service_s = self.clock.now_s() - started
                self.mean_service_s += _EWMA_ALPHA * (
                    service_s - self.mean_service_s
                )
            self._wake.set()

    def _land_interrupted(self, job: Job) -> None:
        with self._lock:
            intent = job.cancel_intent or "drain"
            if intent == "cancel":
                self._land_terminal(job, JobState.CANCELLED,
                                    "cancelled by client")
            elif intent == "deadline":
                self._land_terminal(
                    job, JobState.FAILED, "wall-clock deadline exceeded",
                    error={"type": "DeadlineExceeded",
                           "message": "wall-clock deadline exceeded"},
                )
            else:
                # Drain: stay `running` in the journal so the next boot
                # requeues the job; its points so far are in the cache.
                write_journal(self.jobs_dir, job)
                job.emit({"event": "checkpointed", "state": job.state.value,
                          "done": job.done, "total": job.total})

    def _land_completed(self, job: Job, sweep: SweepResult) -> None:
        failures = sweep.failures()
        if failures:
            error = failures[0].error
            state = (JobState.QUARANTINED
                     if any(f.error is not None and f.error.retryable
                            for f in failures)
                     else JobState.FAILED)
            self._land_terminal(
                job, state,
                f"{len(failures)} point(s) failed",
                error=error.as_dict() if error is not None else None,
            )
            return
        merged = merge_metrics_documents(
            [(pr.key, pr.value["metrics"]) for pr in sweep.results],
            generated_by=f"repro sweep {job.spec.target}",
        )
        # Exactly the bytes `repro sweep <target> --json` prints —
        # that equality is the kill/resume acceptance check.
        body = json.dumps(merged, indent=2) + "\n"
        self._write_result(job.id, body)
        self._land_terminal(job, JobState.DONE, "completed")

    def _land_terminal(self, job: Job, state: JobState, reason: str,
                       error: Optional[Dict[str, Any]] = None) -> None:
        # The final state and its event land under the event lock
        # together: a stream reader that sees the job terminal must also
        # see its last event, or the stream ends one event short.
        with self._lock, job.events_cond:
            job.error = error
            job.transition(state, reason)
            write_journal(self.jobs_dir, job)
            job.emit({"event": state.value, "state": state.value,
                      "reason": reason})

    # -- results ------------------------------------------------------------

    def _result_path(self, job_id: str) -> str:
        return os.path.join(self.results_dir, f"{job_id}.json")

    def _write_result(self, job_id: str, body: str) -> None:
        os.makedirs(self.results_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.results_dir,
                                   prefix=job_id + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(body)
            os.replace(tmp, self._result_path(job_id))
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    def result_bytes(self, job_id: str) -> Optional[bytes]:
        """The merged ``repro.metrics/v1`` export of a done job."""
        try:
            with open(self._result_path(job_id), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    # -- queries ------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        """One job record by id."""
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> List[Job]:
        """Every table entry, in submission order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.seq)

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel one job (terminal jobs are a no-op)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return job
            if job.state is JobState.QUEUED:
                with job.events_cond:
                    job.transition(JobState.CANCELLED, "cancelled by client")
                    write_journal(self.jobs_dir, job)
                    job.emit({"event": "cancelled", "state": job.state.value,
                              "reason": job.reason})
                return job
            job.cancel_intent = "cancel"
            job.cancel.set()
        job.emit({"event": "cancelling", "state": job.state.value})
        return job

    def wait_events(self, job: Job, after: int,
                    timeout_s: float) -> Tuple[List[Dict[str, Any]], bool]:
        """Events past index ``after`` (blocking up to ``timeout_s``).

        Returns ``(new_events, terminal)``; an empty list with
        ``terminal=False`` is a poll timeout, not end of stream.
        """
        deadline = self.clock.now_s() + timeout_s
        with job.events_cond:
            while len(job.events) <= after and not job.terminal:
                remaining = deadline - self.clock.now_s()
                if remaining <= 0:
                    break
                job.events_cond.wait(remaining)
            return list(job.events[after:]), job.terminal

    def stats(self) -> Dict[str, Any]:
        """One JSON-ready snapshot for ``/metrics`` and ``/readyz``."""
        with self._lock:
            by_state = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                by_state[job.state.value] += 1
            return {
                "queued": by_state[JobState.QUEUED.value],
                "queue_depth": self.config.queue_depth,
                "running": len(self._runners),
                "max_running": self.config.max_running,
                "rejected_full": self.rejected_full,
                "rejected_rate": self.rejected_rate,
                "shed_expired": self.shed_expired,
                "mean_service_s": self.mean_service_s,
                "jobs": by_state,
                "jobs_total": len(self._jobs),
                "recovered": self.recovered,
                "draining": self._draining,
            }

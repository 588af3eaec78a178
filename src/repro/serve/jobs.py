"""The job manager: admission, execution, recovery, drain.

One :class:`JobManager` owns the server's job table and drives every
sweep-shaped what-if query through the state machine declared in
:mod:`repro.serve.protocol`.  The design dogfoods the repo's own
robustness layers instead of reinventing them:

* **admission** is a :class:`~repro.overload.wallclock.WallClockAdmission`
  — bounded queue, optional token bucket, concurrency cap — so a flash
  crowd of queries is shed with computed Retry-After hints, exactly the
  discipline the overload figures measure in simulation;
* **execution** is :func:`repro.parallel.run_sweep` with the job's
  ``cancel`` event wired through, so deadlines, client cancellation and
  SIGTERM drain all checkpoint through the same path an interactive
  Ctrl-C does (completed points persisted, resume manifest written);
* **durability** is the content-addressed sweep cache plus two small
  journals: a ``repro.job/v1`` document per job (rewritten atomically on
  every transition) and a pre-written ``repro.manifest/v1`` resume
  manifest per *running* job.  A SIGKILL'd server therefore restarts,
  requeues whatever the journal says was in flight, and re-merges the
  exact same export from cache hits — byte-identical to the never-killed
  run.

Threading model: one scheduler thread promotes queued jobs into runner
threads (at most ``max_running``) and polices wall-clock deadlines; all
table state is guarded by one re-entrant lock.  The HTTP front-end calls
in from the event loop via ``run_in_executor``.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..cache import SweepCache
from ..cache.manifest import ResumeManifest, write_resume_manifest
from ..errors import ConfigurationError
from ..overload.wallclock import AdmissionDecision, WallClock, WallClockAdmission
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

__all__ = ["JobManager", "build_sweep_spec", "demo_sweep_spec"]


def demo_sweep_spec(points: int = 8, draws: int = 2048,
                    seed: int = 0xC0FFEE, sleep_s: float = 0.0) -> SweepSpec:
    """The tiny deterministic grid behind the ``demo`` job target.

    Sized by the job spec so admission/chaos tests get sweeps that
    finish in milliseconds where a figure target would dominate the
    wall clock; the scale is baked into the name so two demo jobs of
    different shapes never share a resume manifest.  ``sleep_s`` pads
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
            raise ConfigurationError(f"malformed chaos plan: {exc}")
        sweep = chaos_wrap(sweep, plan)
    return sweep


class JobManager:
    """Job table + admission + executors for one serve process."""

    def __init__(self, config: ServeConfig,
                 cache: Optional[SweepCache] = None,
                 clock: Optional[WallClock] = None) -> None:
        self.config = config
        self.cache = cache if cache is not None else SweepCache()
        self.clock = clock if clock is not None else WallClock()
        self.jobs_dir = os.path.join(self.cache.root, "serve", "jobs")
        self.results_dir = os.path.join(self.cache.root, "serve", "results")
        self.admission = WallClockAdmission(
            queue_depth=config.queue_depth,
            max_running=config.max_running,
            rate_per_s=config.rate_per_s,
            burst=config.burst,
            clock=self.clock,
            on_shed=self._on_shed,
        )
        self._lock = threading.RLock()
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
        not a restart replaying its own backlog.
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
            if not self._enqueue_recovered(job):
                job.transition(
                    JobState.FAILED,
                    "shed during recovery: admission queue full",
                )
            write_journal(self.jobs_dir, job)
            job.emit({"event": "queued", "state": job.state.value,
                      "resumed": job.resumed})

    def _enqueue_recovered(self, job: Job) -> bool:
        from ..overload.deadline import Request

        deadline_s = self._effective_deadline_s(job.spec)
        deadline = self.admission.deadline_after(deadline_s)
        job.deadline_ns = None if deadline.unbounded else deadline.at_ns
        request = Request(arrival_ns=self.clock.now_ns(), deadline=deadline,
                          payload=job.id)
        return self.admission.queue.offer(request)

    def drain(self, budget_s: Optional[float] = None) -> bool:
        """Stop admitting, checkpoint in-flight jobs, flush journals.

        Running jobs get their ``cancel`` event with *drain* intent:
        :func:`~repro.parallel.run_sweep` finishes the point in flight,
        persists it, writes a resume manifest, and the job is left
        ``running`` in the journal so the next boot requeues it.
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

    def _effective_deadline_s(self, spec: JobSpec) -> Optional[float]:
        deadline_s = (self.config.default_deadline_s
                      if spec.deadline_s is None else spec.deadline_s)
        return None if deadline_s == 0 else deadline_s

    def submit(self, payload: Any) -> Tuple[AdmissionDecision, Optional[Job]]:
        """Validate and admit one job, or shed it with a Retry-After.

        Sheds (rate, queue-full, draining) never allocate table space
        or journal bytes — rejection must stay cheap under a flash
        crowd, that is the whole point of admission control.
        """
        spec = JobSpec.from_payload(payload)  # raises ConfigurationError
        with self._lock:
            if self._draining:
                return AdmissionDecision(
                    False, "draining", self.config.drain_budget_s
                ), None
            self._evict_terminal()
            job_id = f"{spec.target}-{self._seq:06d}"
            decision, request = self.admission.offer(
                job_id, deadline_s=self._effective_deadline_s(spec)
            )
            if not decision.admitted or request is None:
                return decision, None
            job = Job(id=job_id, seq=self._seq, spec=spec)
            job.deadline_ns = (None if request.deadline.unbounded
                               else request.deadline.at_ns)
            self._seq += 1
            self._jobs[job.id] = job
            write_journal(self.jobs_dir, job)
        job.emit({"event": "queued", "state": job.state.value})
        self._wake.set()
        return decision, job

    def _on_shed(self, request: Any) -> None:
        # A queued job aged past its wall-clock deadline (take() or
        # shed_expired() dropped it).  Runs under the table lock.
        job = self._jobs.get(request.payload)
        if job is None or job.terminal:
            return
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
        while True:
            with self._lock:
                if self._draining:
                    return
                request = self.admission.next_runnable()
                if request is None:
                    return
                job = self._jobs.get(request.payload)
                if job is None or job.state is not JobState.QUEUED:
                    # Cancelled (or evicted) while waiting; give the
                    # slot back without burning an executor on it.
                    self.admission.release()
                    continue
                job.transition(JobState.RUNNING)
                write_journal(self.jobs_dir, job)
                thread = threading.Thread(
                    target=self._run_job, args=(job,),
                    name=f"serve-job-{job.id}", daemon=True,
                )
                self._runners[job.id] = thread
                # Started under the lock so a concurrent drain() never
                # snapshots (and joins) a thread that isn't running yet.
                thread.start()
            job.emit({"event": "running", "state": job.state.value})

    def _police_deadlines(self) -> None:
        with self._lock:
            self.admission.shed_expired()
            now_ns = self.clock.now_ns()
            for job in self._jobs.values():
                if (job.state is JobState.RUNNING
                        and job.deadline_ns is not None
                        and now_ns > job.deadline_ns
                        and not job.cancel.is_set()):
                    job.cancel_intent = "deadline"
                    job.cancel.set()

    # -- execution ----------------------------------------------------------

    def _run_job(self, job: Job) -> None:
        started = self.clock.now_s()
        try:
            sweep_spec = build_sweep_spec(job.spec)
            self._checkpoint_manifest(job, sweep_spec)
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
                self.admission.release(
                    service_s=self.clock.now_s() - started
                )
            self._wake.set()

    def _checkpoint_manifest(self, job: Job, sweep_spec: SweepSpec) -> None:
        # Pre-write the resume manifest the moment the job starts, so a
        # SIGKILL (which never reaches run_sweep's graceful drain path)
        # still leaves a repro.manifest/v1 record of the in-flight
        # sweep.  A graceful drain overwrites it with real progress; a
        # completed run clears it.
        write_resume_manifest(self.cache, ResumeManifest(
            name=sweep_spec.name,
            base_seed=sweep_spec.base_seed,
            total=len(sweep_spec.points),
            completed=(),
            reason="serving",
            workers=(job.spec.workers if job.spec.workers is not None
                     else self.config.workers),
        ))

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
            snapshot: Dict[str, Any] = dict(self.admission.as_dict())
            by_state = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                by_state[job.state.value] += 1
            snapshot["jobs"] = by_state
            snapshot["jobs_total"] = len(self._jobs)
            snapshot["recovered"] = self.recovered
            snapshot["draining"] = self._draining
            return snapshot

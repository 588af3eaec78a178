"""The wire and journal protocol of the capacity-planning service.

Everything the server and its clients exchange is plain JSON with an
explicit schema tag, in the same spirit as ``repro.metrics/v1`` and
``repro.manifest/v1``:

* a **job spec** (``JobSpec``) describes one sweep-shaped what-if query
  — a stock figure target or the tiny ``demo`` grid — plus its
  robustness envelope (wall-clock deadline, per-point timeout, retry
  budget, optional chaos plan);
* a **job record** (``Job``) is the server's view of that query moving
  through the state machine ``queued → running →
  done/failed/cancelled/quarantined``;
* a **journal document** (``repro.job/v1``) is the crash-safe on-disk
  form of a record, written atomically on every transition so a
  SIGKILL'd server can rebuild its job table on restart and resume
  in-flight work from the sweep cache.

Like the resume manifests, a truncated or foreign journal document
demotes to "no job" rather than crashing recovery.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import threading
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any, Dict, List, Mapping, Optional

from ..errors import ConfigurationError

__all__ = [
    "JOB_SCHEMA",
    "JOB_TARGETS",
    "JobState",
    "TERMINAL_STATES",
    "JobSpec",
    "Job",
    "write_journal",
    "load_journal",
    "clear_journal",
    "ServeConfig",
]

JOB_SCHEMA = "repro.job/v1"

#: The extra serve-only target: a tiny deterministic grid of
#: :func:`repro.parallel.tasks.demo_point_observed` points, sized by the
#: spec — fast enough for admission/chaos tests where a figure sweep
#: would dominate the wall clock.
DEMO_TARGET = "demo"

#: Stock figure targets, mirroring :data:`repro.cli.SWEEP_TARGETS`
#: (pinned by a test; duplicated here so importing the protocol never
#: drags in the full analysis stack).
JOB_TARGETS = (DEMO_TARGET, "fig3", "fig4", "fig5", "fig7", "fig8",
               "fig10", "overload")


class JobState(str, Enum):
    """Where one job is in its lifecycle."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    #: The sweep completed but points exhausted their retry budget —
    #: the job's inputs are suspect, not the service.
    QUARANTINED = "quarantined"


TERMINAL_STATES = frozenset(
    (JobState.DONE, JobState.FAILED, JobState.CANCELLED,
     JobState.QUARANTINED)
)

#: Legal transitions.  ``RUNNING → QUEUED`` is the recovery edge: a
#: SIGKILL'd server finds the journal claiming ``running`` and requeues
#: the job; its completed points come back as cache hits.
_TRANSITIONS = {
    JobState.QUEUED: frozenset(
        (JobState.RUNNING, JobState.CANCELLED, JobState.FAILED)
    ),
    JobState.RUNNING: frozenset(
        (JobState.QUEUED, JobState.DONE, JobState.FAILED,
         JobState.CANCELLED, JobState.QUARANTINED)
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
    JobState.QUARANTINED: frozenset(),
}


#: The JSON type of each typed :class:`JobSpec` field.
_FIELD_KINDS = {
    "quick": "boolean",
    "seed": "integer",
    "workers": "integer",
    "retries": "integer",
    "points": "integer",
    "draws": "integer",
    "deadline_s": "number",
    "point_timeout_s": "number",
    "sleep_s": "number",
}

#: Fields a client may send as ``null`` for the server's default.
_NULLABLE_FIELDS = ("workers", "deadline_s", "point_timeout_s")


def _typed_field(name: str, value: Any) -> Any:
    """``value`` checked against field ``name``'s JSON type.

    ``bool`` is a subclass of ``int``, so booleans are told apart: only
    ``quick`` takes one, and it takes nothing else.  Numbers come back
    as ``float``.
    """
    kind = _FIELD_KINDS[name]
    if kind == "boolean":
        ok = isinstance(value, bool)
    else:
        ok = not isinstance(value, bool) and isinstance(
            value, (int, float) if kind == "number" else int
        )
    if not ok:
        raise ConfigurationError(
            f"malformed job spec field: {name} must be a JSON {kind}, "
            f"got {value!r}"
        )
    return float(value) if kind == "number" else value


@dataclass(frozen=True)
class JobSpec:
    """One submitted what-if query, fully determined before execution.

    The sweep-shaped fields (``target``, ``quick``, ``seed``, ``mode``)
    mirror ``repro sweep``'s flags so a job's merged export is
    byte-identical to the CLI's.  ``deadline_s`` is *wall-clock*: the
    job is shed (queued) or cancelled (running) once the budget is
    spent.  ``chaos`` optionally wraps the sweep in a
    :class:`~repro.parallel.chaos.ChaosPlan` — the server-side fault
    injection used by the serve chaos harness.
    """

    target: str
    quick: bool = True
    seed: int = 0xC0FFEE
    mode: str = "controlled"
    #: Sweep backend: "des", "analytic", or "auto" (per-point routing).
    backend: str = "des"
    #: Sweep worker processes (None = the server's default).
    workers: Optional[int] = None
    #: Wall-clock completion budget in seconds (None = server default;
    #: 0 disables the deadline).
    deadline_s: Optional[float] = None
    #: Per-attempt point deadline (None = none).
    point_timeout_s: Optional[float] = None
    #: Extra attempts per point after a retryable failure.
    retries: int = 2
    #: Demo-target grid size.
    points: int = 8
    #: Demo-target draws per point.
    draws: int = 2048
    #: Demo-target wall-clock padding per point (kill/deadline tests
    #: need points slow enough to interrupt; values are unaffected).
    sleep_s: float = 0.0
    #: Optional :class:`~repro.parallel.chaos.ChaosPlan` fields.
    chaos: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if self.target not in JOB_TARGETS:
            raise ConfigurationError(
                f"unknown job target {self.target!r}; expected one of "
                f"{JOB_TARGETS}"
            )
        if self.mode not in ("controlled", "uncontrolled"):
            raise ConfigurationError(
                f"mode must be 'controlled' or 'uncontrolled', got "
                f"{self.mode!r}"
            )
        if self.backend not in ("des", "analytic", "auto"):
            raise ConfigurationError(
                f"backend must be 'des', 'analytic', or 'auto', got "
                f"{self.backend!r}"
            )
        if self.backend == "analytic":
            # Reject a forced-analytic spec for a target without a fast
            # path at submission (HTTP 400), not when the job runs.
            from ..analytic.select import require_analytic

            require_analytic(self.target)
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        # NaN passes every comparison, and a non-finite budget never
        # expires: `now > nan` and `now > inf` are both always false.
        if self.deadline_s is not None and not (
            self.deadline_s >= 0 and math.isfinite(self.deadline_s)
        ):
            raise ConfigurationError("deadline_s must be finite and >= 0")
        if self.point_timeout_s is not None and not (
            self.point_timeout_s > 0 and math.isfinite(self.point_timeout_s)
        ):
            raise ConfigurationError("point_timeout_s must be finite and > 0")
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if not 1 <= self.points <= 4096:
            raise ConfigurationError("points must be in [1, 4096]")
        if self.draws < 1:
            raise ConfigurationError("draws must be >= 1")
        if not (self.sleep_s >= 0 and math.isfinite(self.sleep_s)):
            raise ConfigurationError("sleep_s must be finite and >= 0")
        if self.chaos is not None:
            # Reject a malformed chaos plan at submission (HTTP 400),
            # not minutes later when the job is promoted.
            from ..parallel.chaos import ChaosPlan

            try:
                ChaosPlan(**dict(self.chaos))
            except TypeError as exc:
                raise ConfigurationError(f"malformed chaos plan: {exc}") from exc

    @classmethod
    def from_payload(cls, payload: Any) -> "JobSpec":
        """Validate a client JSON payload into a spec.

        Unknown keys are rejected (a typo'd ``deadine_s`` silently
        accepted would run with the wrong robustness envelope), and so
        are mistyped values: ``quick`` must be a JSON boolean (``bool``
        reads ``"false"`` as true), and the count fields JSON integers
        (``int`` truncates ``1.9`` and accepts ``true``).
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError("job spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown job spec field(s): {', '.join(unknown)}"
            )
        if "target" not in payload:
            raise ConfigurationError("job spec needs a 'target'")
        kwargs: Dict[str, Any] = {"target": str(payload["target"])}
        for name in ("mode", "backend"):
            if name in payload:
                kwargs[name] = str(payload[name])
        for name in _FIELD_KINDS:
            if name in payload and not (
                payload[name] is None and name in _NULLABLE_FIELDS
            ):
                kwargs[name] = _typed_field(name, payload[name])
        chaos = payload.get("chaos")
        if chaos is not None:
            if not isinstance(chaos, Mapping):
                raise ConfigurationError("chaos must be a JSON object")
            kwargs["chaos"] = dict(chaos)
        return cls(**kwargs)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (round-trips through :meth:`from_payload`)."""
        doc: Dict[str, Any] = {
            "target": self.target,
            "quick": self.quick,
            "seed": self.seed,
            "mode": self.mode,
            "retries": self.retries,
        }
        if self.backend != "des":
            doc["backend"] = self.backend
        if self.workers is not None:
            doc["workers"] = self.workers
        if self.deadline_s is not None:
            doc["deadline_s"] = self.deadline_s
        if self.point_timeout_s is not None:
            doc["point_timeout_s"] = self.point_timeout_s
        if self.target == DEMO_TARGET:
            doc["points"] = self.points
            doc["draws"] = self.draws
            if self.sleep_s:
                doc["sleep_s"] = self.sleep_s
        if self.chaos is not None:
            doc["chaos"] = dict(self.chaos)
        return doc


@dataclass
class Job:
    """The server-side record of one submitted job.

    The JSON-able fields are journaled on every transition; the runtime
    coordination state (``cancel`` event, per-job progress events and
    their condition variable) lives only in memory and is rebuilt on
    recovery.
    """

    id: str
    seq: int
    spec: JobSpec
    state: JobState = JobState.QUEUED
    #: Human-readable cause of the current state ("deadline",
    #: "cancelled by client", "drain", point-failure summary, ...).
    reason: str = ""
    #: Structured error info for failed jobs.
    error: Optional[Dict[str, Any]] = None
    done: int = 0
    total: int = 0
    #: How many times a restarted server re-ran this job from the cache.
    resumed: int = 0
    #: Wall-clock deadline in the server clock's ns epoch (None = none).
    deadline_ns: Optional[float] = None

    # -- runtime-only coordination state (not journaled) -------------------
    cancel: threading.Event = field(default_factory=threading.Event,
                                    repr=False, compare=False)
    #: Why the cancel event was set: "cancel" | "deadline" | "drain".
    cancel_intent: str = field(default="", repr=False, compare=False)
    #: Monotonic progress/lifecycle events for streaming clients.
    events: List[Dict[str, Any]] = field(default_factory=list, repr=False,
                                         compare=False)
    events_cond: threading.Condition = field(
        default_factory=threading.Condition, repr=False, compare=False
    )

    @property
    def terminal(self) -> bool:
        """True once the job reached a final state."""
        return self.state in TERMINAL_STATES

    @property
    def active(self) -> bool:
        """True while the job is queued or running."""
        return not self.terminal

    def transition(self, state: JobState, reason: str = "") -> None:
        """Move to ``state``, enforcing the state machine."""
        if state is self.state:
            return
        if state not in _TRANSITIONS[self.state]:
            raise ConfigurationError(
                f"job {self.id}: illegal transition "
                f"{self.state.value} -> {state.value}"
            )
        self.state = state
        if reason:
            self.reason = reason

    def emit(self, event: Dict[str, Any]) -> None:
        """Append one stream event and wake waiting readers."""
        with self.events_cond:
            event = dict(event)
            event["seq"] = len(self.events)
            self.events.append(event)
            self.events_cond.notify_all()

    def as_dict(self) -> Dict[str, Any]:
        """The JSON job record served over HTTP (and journaled)."""
        return {
            "schema": JOB_SCHEMA,
            "id": self.id,
            "seq": self.seq,
            "spec": self.spec.as_dict(),
            "state": self.state.value,
            "reason": self.reason,
            "error": self.error,
            "done": self.done,
            "total": self.total,
            "resumed": self.resumed,
        }


# -- journal ------------------------------------------------------------------


def write_journal(directory: str, job: Job) -> str:
    """Atomically journal ``job``'s current record; returns the path.

    Same mkstemp + ``os.replace`` discipline as the cache store and the
    resume manifests: a crash mid-write can only leave either the old
    or the new complete document.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{job.id}.json")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=job.id + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(job.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    return path


def load_journal(directory: str) -> List[Job]:
    """Rebuild every readable job record under ``directory``.

    Malformed documents (truncated write on a dying host, foreign
    schema) are skipped — recovery proceeds with what is readable, the
    same demote-don't-crash contract the resume manifests follow.
    Records come back sorted by submission sequence.
    """
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    jobs: List[Job] = []
    for filename in names:
        if not filename.endswith(".json"):
            continue
        path = os.path.join(directory, filename)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            continue
        if not isinstance(doc, dict) or doc.get("schema") != JOB_SCHEMA:
            continue
        try:
            job = Job(
                id=str(doc["id"]),
                seq=int(doc["seq"]),
                spec=JobSpec.from_payload(doc["spec"]),
                state=JobState(doc["state"]),
                reason=str(doc.get("reason", "")),
                error=doc.get("error"),
                done=int(doc.get("done", 0)),
                total=int(doc.get("total", 0)),
                resumed=int(doc.get("resumed", 0)),
            )
        except (KeyError, TypeError, ValueError, ConfigurationError):
            continue
        jobs.append(job)
    jobs.sort(key=lambda job: job.seq)
    return jobs


def clear_journal(directory: str, job_id: str) -> bool:
    """Remove one job's journal document; True if it existed."""
    try:
        os.remove(os.path.join(directory, f"{job_id}.json"))
    except OSError:
        return False
    return True


# -- server configuration -----------------------------------------------------


@dataclass(frozen=True)
class ServeConfig:
    """The robustness envelope of one ``repro serve`` process."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests, benchmarks).
    port: int = 8023
    #: Default sweep worker processes per job.
    workers: int = 1
    #: Jobs executing concurrently (each fans out its own sweep).
    max_running: int = 2
    #: Bounded admission queue depth (jobs waiting to run).
    queue_depth: int = 8
    #: Token-bucket submission rate (None disables the rate limiter).
    rate_per_s: Optional[float] = None
    #: Token-bucket burst (None derives from the rate; needs the rate).
    burst: Optional[float] = None
    #: Job-table bound: submissions are shed once this many *active*
    #: jobs exist; terminal records beyond it are evicted oldest-first.
    table_limit: int = 64
    #: Default per-job wall-clock deadline (0 = none).
    default_deadline_s: float = 600.0
    #: SIGTERM drain budget: finish or checkpoint within this.
    drain_budget_s: float = 10.0
    #: Per-request read/parse timeout.
    request_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ConfigurationError("port must be in [0, 65535]")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.max_running < 1:
            raise ConfigurationError("max_running must be >= 1")
        if self.queue_depth < 1:
            raise ConfigurationError("queue_depth must be >= 1")
        # Written as ranges so that NaN, which fails every comparison,
        # is rejected along with infinities and out-of-range values.
        if self.rate_per_s is not None and not 0 < self.rate_per_s < math.inf:
            raise ConfigurationError("rate_per_s must be a finite number > 0")
        if self.burst is not None and self.rate_per_s is None:
            raise ConfigurationError("burst needs rate_per_s")
        if self.burst is not None and not 0 < self.burst < math.inf:
            raise ConfigurationError("burst must be a finite number > 0")
        if self.table_limit < self.max_running + self.queue_depth:
            raise ConfigurationError(
                "table_limit must cover max_running + queue_depth"
            )
        if not 0 <= self.default_deadline_s < math.inf:
            raise ConfigurationError(
                "default_deadline_s must be a finite number >= 0 (0 = none)"
            )
        if not 0 < self.drain_budget_s < math.inf:
            raise ConfigurationError("drain_budget_s must be a finite number > 0")
        if not 0 < self.request_timeout_s < math.inf:
            raise ConfigurationError("request_timeout_s must be a finite number > 0")

"""Chaos harness: inject *real* faults into supervised sweeps.

PR 1 proved the simulated applications' RAS machinery by injecting
simulated faults; this module does the same for the harness that
produces every number in the repo.  :func:`chaos_wrap` rewrites a
:class:`~repro.parallel.jobs.SweepSpec` so each point first rolls a
deterministic fault die and may then

* **SIGKILL its own worker process** (exercising crash detection and
  re-dispatch),
* **hang** far past the point deadline (exercising deadline kills and
  requeue), or
* **raise** :class:`~repro.errors.TransientError` (exercising bounded
  retry and backoff),

before executing the *unmodified* task with the *unmodified*
``(params, seed)``.  Faults are a pure function of
``(plan.seed, point key, attempt, kind)``, so a chaos run is exactly
reproducible, and :attr:`ChaosPlan.max_faulty_attempts` caps how many
attempts of one point can be sabotaged — with a retry budget beyond the
cap, every point eventually executes cleanly and the sweep's merged
``repro.metrics/v1`` export is **byte-identical** to an unperturbed
serial run.  That comparison is the chaos guarantee CI enforces.

:func:`corrupt_cache_entries` covers the remaining failure class — bad
bytes at rest — by flipping payload bits in real store entries, which
the cache must demote to misses and recompute.

Run standalone against any stock sweep target::

    python -m repro.parallel.chaos fig5 --quick --workers 2 \\
        --kill-prob 0.1 --hang-prob 0.05 --transient-prob 0.2 \\
        --point-timeout 30 --retries 4 --json

Kills and hangs only fire inside supervised workers
(:func:`~repro.parallel.supervisor.current_worker_id` is set); a
``workers=1`` in-process run injects only transient exceptions — the
parent is not a valid blast radius.
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Dict, Mapping

from ..errors import ConfigurationError, TransientError
from .jobs import SweepPoint, SweepSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..cache.store import SweepCache

__all__ = [
    "ChaosPlan",
    "chaos_wrap",
    "chaos_task",
    "flaky_point",
    "hanging_point",
    "killer_point",
    "corrupt_cache_entries",
]


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic fault-injection policy for one sweep."""

    #: Root of every fault decision; same seed, same fault schedule.
    seed: int = 0xBADC0DE
    #: Probability a given (point, attempt) SIGKILLs its worker.
    kill_prob: float = 0.0
    #: Probability a given (point, attempt) sleeps ``hang_s`` first.
    hang_prob: float = 0.0
    #: Probability a given (point, attempt) raises ``TransientError``.
    transient_prob: float = 0.0
    #: How long a hang sleeps (set well past the point deadline to
    #: exercise deadline kills; below it, the hang is merely latency).
    hang_s: float = 3600.0
    #: Attempts beyond this number run clean, guaranteeing progress as
    #: long as the retry budget exceeds it.
    max_faulty_attempts: int = 2

    def __post_init__(self) -> None:
        for prob in (self.kill_prob, self.hang_prob, self.transient_prob):
            if not 0.0 <= prob <= 1.0:
                raise ConfigurationError(
                    f"chaos probabilities must be in [0, 1], got {prob}"
                )
        if not (self.hang_s >= 0 and math.isfinite(self.hang_s)):
            # time.sleep raises on NaN and inf: the point would fail
            # instead of hanging.
            raise ConfigurationError("hang_s must be finite and >= 0")
        if self.max_faulty_attempts < 0:
            raise ConfigurationError("max_faulty_attempts must be >= 0")

    def as_dict(self) -> Dict[str, Any]:
        """Picklable, JSON-ready form (travels inside point params)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def roll(self, key: str, attempt: int, kind: str) -> float:
        """A uniform [0, 1) draw, pure in (seed, key, attempt, kind)."""
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}:{kind}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64


def _task_path(task: Any) -> str:
    return f"{task.__module__}:{task.__qualname__}"


def _resolve_task(path: str) -> Any:
    import importlib

    module_name, _, qualname = path.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def inject(plan: ChaosPlan, key: str, attempt: int) -> None:
    """Maybe sabotage the current attempt (kill, hang, or raise).

    Kill and hang need a supervised worker around them; in-process
    execution only ever sees the transient-exception fault.
    """
    from . import supervisor

    if attempt > plan.max_faulty_attempts:
        return
    in_worker = supervisor.current_worker_id() is not None
    if in_worker and plan.roll(key, attempt, "kill") < plan.kill_prob:
        os.kill(os.getpid(), signal.SIGKILL)
    if in_worker and plan.roll(key, attempt, "hang") < plan.hang_prob:
        time.sleep(plan.hang_s)
    if plan.roll(key, attempt, "transient") < plan.transient_prob:
        raise TransientError(
            f"chaos: injected transient failure ({key}, attempt {attempt})"
        )


def chaos_task(params: Mapping[str, Any], seed: int) -> Any:
    """The wrapped task: roll for sabotage, then run the real one.

    A surviving attempt calls the original task with the original
    ``(params, seed)``, so the value that lands is byte-identical to an
    unperturbed run — chaos changes *when* a point completes, never
    *what* it computes.
    """
    from . import supervisor

    plan = ChaosPlan(**params["_chaos"])
    inject(plan, params["_key"], supervisor.current_attempt())
    task = _resolve_task(params["_task"])
    return task(dict(params["_params"]), seed)


def chaos_wrap(spec: SweepSpec, plan: ChaosPlan) -> SweepSpec:
    """``spec`` with every point routed through :func:`chaos_task`."""
    return SweepSpec(
        name=f"{spec.name}+chaos",
        task=chaos_task,
        points=tuple(
            SweepPoint(
                key=point.key,
                params={
                    "_chaos": plan.as_dict(),
                    "_key": point.key,
                    "_task": _task_path(spec.task),
                    "_params": dict(point.params),
                },
                seed=point.seed,
            )
            for point in spec.points
        ),
        base_seed=spec.base_seed,
    )


# -- attempt-scripted tasks ---------------------------------------------------
#
# Spawn-importable tasks for the failure-matrix tests and benchmarks:
# rather than rolling probabilities they follow an explicit script of
# which attempts fail and how, making every recovery path individually
# addressable.


def flaky_point(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Raises ``TransientError`` until ``params['succeed_on']``."""
    from . import supervisor

    attempt = supervisor.current_attempt()
    if attempt < int(params.get("succeed_on", 2)):
        raise TransientError(f"flaky: attempt {attempt} failed on purpose")
    return {"seed": seed, "attempt_succeeded": attempt}


def killer_point(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """SIGKILLs its worker on attempts below ``params['succeed_on']``.

    In-process execution (no worker) skips the kill — the parent is not
    a valid blast radius — and returns immediately.
    """
    from . import supervisor

    attempt = supervisor.current_attempt()
    if (
        supervisor.current_worker_id() is not None
        and attempt < int(params.get("succeed_on", 2))
    ):
        os.kill(os.getpid(), signal.SIGKILL)
    return {"seed": seed, "attempt_succeeded": attempt}


def hanging_point(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Sleeps ``params['hang_s']`` on attempts below ``succeed_on``."""
    from . import supervisor

    attempt = supervisor.current_attempt()
    if attempt < int(params.get("succeed_on", 2)):
        time.sleep(float(params.get("hang_s", 3600.0)))
    return {"seed": seed, "attempt_succeeded": attempt}


# -- at-rest corruption -------------------------------------------------------


def corrupt_cache_entries(
    cache: "SweepCache", fraction: float = 1.0, seed: int = 0xBADC0DE
) -> int:
    """Flip one payload byte in a deterministic subset of entries.

    The subset is the ``round(fraction * n)`` of the ``n`` entries with
    the lowest roll under ``seed``: which entries is pure in the seed
    and their fingerprints, how many depends only on ``fraction`` and
    ``n``.  Returns how many entries were damaged.  The store's
    embedded digest must catch every one on the next lookup and demote
    it to a miss, so a sweep over a corrupted cache recomputes the
    affected points and still exports byte-identical results.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in [0, 1], got {fraction}")
    plan = ChaosPlan(seed=seed)
    entries = sorted(
        cache.entries(),
        key=lambda info: (plan.roll(info.fingerprint, 1, "corrupt"), info.fingerprint),
    )
    damaged = 0
    for info in entries[: round(fraction * len(entries))]:
        try:
            with open(info.path, "r+b") as fh:
                fh.seek(-1, os.SEEK_END)
                last = fh.read(1)
                fh.seek(-1, os.SEEK_END)
                fh.write(bytes([last[0] ^ 0xFF]))
        except OSError:
            continue
        damaged += 1
    return damaged


# -- standalone runner --------------------------------------------------------


def main(argv=None) -> int:
    """Run a stock sweep target under chaos; print the merged export.

    The stdout document is generated with the same ``generated_by`` as
    ``repro sweep <target> --json``, so CI can ``cmp`` a chaos run
    against a clean serial one byte for byte.
    """
    import argparse
    import json
    import sys

    from .merge import merge_metrics_documents
    from .runner import run_sweep
    from .supervisor import SupervisorConfig

    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel.chaos",
        description="Inject worker kills, hangs and transient errors "
                    "into a stock sweep; the merged export must match a "
                    "clean run.",
    )
    parser.add_argument("target", help="stock sweep target (e.g. fig5)")
    parser.add_argument("--quick", action="store_true", help="small, fast run")
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=0xC0FFEE,
                        help="sweep seed (decimal or 0x-hex)")
    parser.add_argument("--chaos-seed", type=lambda s: int(s, 0),
                        default=0xBADC0DE, help="fault-schedule seed")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--kill-prob", type=float, default=0.1)
    parser.add_argument("--hang-prob", type=float, default=0.05)
    parser.add_argument("--transient-prob", type=float, default=0.2)
    parser.add_argument("--hang-s", type=float, default=3600.0)
    parser.add_argument("--max-faulty-attempts", type=int, default=2)
    parser.add_argument("--point-timeout", type=float, default=None,
                        metavar="S", help="per-attempt deadline in seconds")
    parser.add_argument("--retries", type=int, default=4,
                        help="extra attempts per point after the first")
    parser.add_argument("--json", action="store_true",
                        help="print the merged repro.metrics/v1 document")
    parser.add_argument("--no-progress", action="store_true")

    args = parser.parse_args(argv)
    from ..cli import SWEEP_TARGETS, stock_sweep_spec

    if args.target not in SWEEP_TARGETS:
        print(f"error: unknown sweep target {args.target!r}; expected one of "
              f"{SWEEP_TARGETS}", file=sys.stderr)
        return 2
    try:
        plan = ChaosPlan(
            seed=args.chaos_seed,
            kill_prob=args.kill_prob,
            hang_prob=args.hang_prob,
            transient_prob=args.transient_prob,
            hang_s=args.hang_s,
            max_faulty_attempts=args.max_faulty_attempts,
        )
        config = SupervisorConfig(
            point_timeout_s=args.point_timeout,
            max_attempts=max(1, args.retries + 1),
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if plan.hang_prob > 0 and config.point_timeout_s is None:
        # Heartbeats keep flowing while a point sleeps, so only the
        # deadline recovers an injected hang — without one the sweep
        # stalls for the full hang_s.
        print("error: --hang-prob > 0 requires --point-timeout "
              "(the deadline is what recovers a hung point)",
              file=sys.stderr)
        return 2
    spec = chaos_wrap(
        stock_sweep_spec(args.target, quick=args.quick, seed=args.seed), plan
    )

    def progress(done, total, pr):
        status = "ok" if pr.ok else f"FAIL ({pr.error.type})"
        print(f"[{done}/{total}] {pr.key}: {status}", file=sys.stderr,
              flush=True)

    sweep = run_sweep(
        spec,
        workers=args.workers,
        progress=None if args.no_progress else progress,
        supervise=config,
    )
    health = sweep.runner_health
    if health is not None:
        print(f"[chaos {args.target}] health: {health.summary()}",
              file=sys.stderr, flush=True)
    for failure in sweep.failures():
        print(f"error: point {failure.key!r} failed: {failure.error}",
              file=sys.stderr)
    if not sweep.ok:
        return 1
    merged = merge_metrics_documents(
        [(pr.key, pr.value["metrics"]) for pr in sweep.results],
        generated_by=f"repro sweep {args.target}",
    )
    if args.json:
        print(json.dumps(merged, indent=2))
    else:
        print(f"{len(sweep.results)} points survived chaos "
              f"({health.summary() if health else 'no health recorded'})")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI chaos-smoke
    import sys

    sys.exit(main())

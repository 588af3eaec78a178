"""Server-level chaos: kill ``repro serve`` mid-job, assert byte-identity.

:mod:`repro.parallel.chaos` sabotages *workers*; this driver sabotages
the *server*.  It boots a real ``repro serve`` subprocess, submits a
demo job paced slowly enough to interrupt, then

1. **SIGKILL** — no drain, no goodbye: only the journal and the points
   already in the cache survive.  Restart on the same port and cache,
   and require the recovered job to finish with a merged export
   **byte-identical** to a clean in-process run of the same spec (the
   journal + the content-addressed cache are the whole durability
   story; if either leaks state into the bytes, this fails);
2. **SIGTERM** — the graceful path.  The server must exit 0 inside its
   drain budget with the job checkpointed, and the restarted server
   must again finish the checkpointed job to identical bytes.

Run standalone (CI's serve-smoke job does)::

    PYTHONPATH=src python -m repro.serve.chaos --points 6 --sleep-s 0.3

Optional ``--worker-chaos`` stacks the worker-level fault plan on top,
so worker kills and a server kill land in the same job.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from ..parallel import merge_metrics_documents, run_sweep
from .client import ServeClient
from .jobs import build_sweep_spec
from .protocol import JobSpec

__all__ = ["main", "reference_export", "wait_until_healthy"]


def _free_port(host: str) -> int:
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _server_env(cache_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src_root + (os.pathsep + existing if existing else "")
    )
    env["REPRO_CACHE_DIR"] = cache_dir
    return env


def _spawn_server(host: str, port: int, cache_dir: str,
                  drain_budget_s: float,
                  extra_args: Optional[List[str]] = None) -> subprocess.Popen:
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--host", host, "--port", str(port),
        "--drain-budget", str(drain_budget_s),
    ] + (extra_args or [])
    return subprocess.Popen(cmd, env=_server_env(cache_dir))


def wait_until_healthy(client: ServeClient, timeout_s: float = 30.0) -> None:
    """Poll ``/healthz`` until the server answers (or raise)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            if client.healthz().ok:
                return
        except OSError:
            pass
        time.sleep(0.05)
    raise TimeoutError("server never became healthy")


def reference_export(spec_payload: Dict[str, Any]) -> bytes:
    """The bytes a clean, uncached, in-process run of the spec merges.

    Runs through the exact code path the server's job runner uses
    (``build_sweep_spec`` → ``run_sweep`` → merge with the CLI's
    ``generated_by``), but with no cache and no server — the
    independent oracle the kill/resume runs are compared against.
    """
    spec = JobSpec.from_payload(spec_payload)
    sweep_spec = build_sweep_spec(spec)
    sweep = run_sweep(sweep_spec, workers=1)
    sweep.raise_failures()
    merged = merge_metrics_documents(
        [(pr.key, pr.value["metrics"]) for pr in sweep.results],
        generated_by=f"repro sweep {spec.target}",
    )
    return (json.dumps(merged, indent=2) + "\n").encode("utf-8")


def _wait_for_progress(client: ServeClient, job_id: str, done_at_least: int,
                       timeout_s: float = 60.0) -> Dict[str, Any]:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        record = client.job(job_id).json
        if record is None:
            raise RuntimeError(f"job {job_id!r} vanished mid-wait")
        if record["done"] >= done_at_least or record["state"] not in (
                "queued", "running"):
            return record
        time.sleep(0.05)
    raise TimeoutError(
        f"job {job_id!r} never reached {done_at_least} completed points"
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Run the kill/resume and drain/resume phases; 0 when bytes match."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.chaos",
        description="SIGKILL and SIGTERM a live repro serve mid-job; "
                    "resumed exports must be byte-identical.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--cache-dir", default=None,
                        help="cache root shared by both server boots "
                             "(default: a fresh temp dir)")
    parser.add_argument("--points", type=int, default=6,
                        help="demo grid size (default: 6)")
    parser.add_argument("--draws", type=int, default=2048)
    parser.add_argument("--sleep-s", type=float, default=0.3,
                        help="wall-clock padding per point, slow enough "
                             "to kill mid-job (default: 0.3)")
    parser.add_argument("--kill-after", type=int, default=2,
                        help="points completed before the kill (default: 2)")
    parser.add_argument("--drain-budget", type=float, default=10.0)
    parser.add_argument("--worker-chaos", action="store_true",
                        help="stack worker-level transient faults on top")
    parser.add_argument("--skip-drain", action="store_true",
                        help="run only the SIGKILL phase")
    args = parser.parse_args(argv)

    if not 0 < args.kill_after < args.points:
        print("error: --kill-after must be inside (0, --points)",
              file=sys.stderr)
        return 2

    cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="repro-serve-chaos-")
    spec_payload: Dict[str, Any] = {
        "target": "demo",
        "points": args.points,
        "draws": args.draws,
        "sleep_s": args.sleep_s,
        "deadline_s": 0,
    }
    if args.worker_chaos:
        spec_payload["chaos"] = {"transient_prob": 0.3,
                                 "max_faulty_attempts": 1}

    port = _free_port(args.host)
    client = ServeClient(args.host, port)
    failures = 0
    phases = ["SIGKILL"] + ([] if args.skip_drain else ["SIGTERM"])
    for index, phase in enumerate(phases):
        # A distinct seed per phase keeps the shared cache cold, so
        # every phase genuinely interrupts a job mid-flight instead of
        # replaying the previous phase's hits.
        phase_payload = dict(spec_payload, seed=0xC0FFEE + index)
        print(f"[serve-chaos] {phase}: computing reference export "
              f"({args.points} points)", file=sys.stderr, flush=True)
        reference = reference_export(phase_payload)
        server = _spawn_server(args.host, port, cache_dir, args.drain_budget)
        try:
            wait_until_healthy(client)
            response = client.submit(phase_payload)
            if response.status != 201:
                print(f"[serve-chaos] {phase}: submit failed "
                      f"({response.status}: {response.json})",
                      file=sys.stderr)
                return 1
            job_id = response.json["id"]
            record = _wait_for_progress(client, job_id, args.kill_after)
            print(f"[serve-chaos] {phase}: job {job_id} at "
                  f"{record['done']}/{record['total']}; sending signal",
                  file=sys.stderr, flush=True)
            if phase == "SIGKILL":
                server.kill()
                server.wait(10)
            else:
                server.send_signal(signal.SIGTERM)
                try:
                    code = server.wait(args.drain_budget + 5)
                except subprocess.TimeoutExpired:
                    print(f"[serve-chaos] {phase}: server blew the drain "
                          f"budget", file=sys.stderr)
                    server.kill()
                    server.wait(10)
                    failures += 1
                    continue
                if code != 0:
                    print(f"[serve-chaos] {phase}: drain exited {code}, "
                          f"want 0", file=sys.stderr)
                    failures += 1
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(10)

        # Restart on the same port and cache; the journal must requeue
        # the job and the cache must resume it.
        server = _spawn_server(args.host, port, cache_dir, args.drain_budget)
        try:
            wait_until_healthy(client)
            record = client.wait(job_id, timeout_s=120.0)
            if record["state"] != "done":
                print(f"[serve-chaos] {phase}: resumed job ended "
                      f"{record['state']} ({record['reason']})",
                      file=sys.stderr)
                failures += 1
                continue
            if phase == "SIGKILL" and record["resumed"] < 1:
                # The SIGTERM phase may legitimately finish before the
                # drain checkpoint lands; only the kill phase *must*
                # have gone through recovery.
                print(f"[serve-chaos] {phase}: job was not marked resumed",
                      file=sys.stderr)
                failures += 1
            resumed = client.result(job_id)
            if resumed == reference:
                print(f"[serve-chaos] {phase}: resumed export is "
                      f"byte-identical ({len(reference)} bytes)",
                      file=sys.stderr, flush=True)
            else:
                print(f"[serve-chaos] {phase}: BYTE MISMATCH "
                      f"(reference {len(reference)}B, resumed "
                      f"{len(resumed) if resumed else 0}B)", file=sys.stderr)
                failures += 1
        finally:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(args.drain_budget + 5)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait(10)

    if failures:
        print(f"[serve-chaos] {failures} phase check(s) failed",
              file=sys.stderr)
        return 1
    print("[serve-chaos] all phases passed", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI serve-smoke
    sys.exit(main())

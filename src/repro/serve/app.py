"""The asyncio HTTP/JSON front-end of ``repro serve``.

A deliberately small stdlib server — no framework, no dependency — in
front of the :class:`~repro.serve.jobs.JobManager`:

====================  =======================================================
``GET /healthz``      liveness (200 while the process runs)
``GET /readyz``       readiness (503 while draining or saturated)
``GET /metrics``      ``repro.metrics/v1`` snapshot of the serve counters
``POST /jobs``        submit a job spec; 201, or 429/503 + ``Retry-After``
``GET /jobs``         the job table
``GET /jobs/<id>``    one job record
``DELETE /jobs/<id>`` cancel (checkpoints a running job)
``GET /jobs/<id>/result``  the merged export of a done job
``GET /jobs/<id>/events``  NDJSON lifecycle/progress stream (close-delimited)
====================  =======================================================

Protocol choices, all in service of robustness:

* one request per connection (``Connection: close`` everywhere) — no
  keep-alive state machine to corrupt under kill tests;
* every read is under ``asyncio.wait_for`` with the config's request
  timeout, so a stalled client can never wedge the accept loop;
* handler exceptions are *classified* with
  :func:`repro.errors.is_retryable` — transient trouble maps to 503 +
  ``Retry-After`` (try again), everything else to 500 (report a bug) —
  the same transient/permanent split the sweep runner retries on;
* blocking job-manager calls run in the default executor, keeping the
  event loop responsive while journals hit disk.

SIGTERM/SIGINT trigger the drain sequence: stop accepting, checkpoint
in-flight jobs (completed points in the cache, journals left
``running``), exit 0 inside the drain budget.  A SIGKILL instead is the
crash path the journal recovery in :meth:`JobManager._recover` exists
for.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import sys
import threading
from typing import Any, Dict, Optional, Tuple

from ..errors import ConfigurationError, is_retryable
from .jobs import JobManager
from .protocol import ServeConfig

__all__ = ["ServeApp", "BackgroundServer", "serve_forever"]

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Submission bodies larger than this are rejected outright.
_MAX_BODY = 1 << 20


def _render(status: int, payload: Any,
            headers: Optional[Dict[str, str]] = None,
            raw: Optional[bytes] = None) -> bytes:
    """One complete close-delimited HTTP/1.1 response."""
    body = raw if raw is not None else (
        json.dumps(payload, indent=2) + "\n"
    ).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _retry_after(seconds: float) -> Dict[str, str]:
    return {"Retry-After": str(max(1, math.ceil(seconds)))}


class ServeApp:
    """The HTTP server bound to one :class:`JobManager`."""

    def __init__(self, config: ServeConfig,
                 cache: Any = None,
                 manager: Optional[JobManager] = None) -> None:
        self.config = config
        self.manager = manager if manager is not None else JobManager(
            config, cache=cache
        )
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Recover the journal and start accepting connections."""
        self.manager.start()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain_and_stop(self, budget_s: Optional[float] = None) -> bool:
        """Graceful shutdown: stop accepting, checkpoint, flush, close."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_event_loop()
        return await loop.run_in_executor(
            None, self.manager.drain, budget_s
        )

    # -- connection handling ------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader),
                    self.config.request_timeout_s,
                )
            except asyncio.TimeoutError:
                writer.write(_render(408, {"error": "request timed out"}))
                return
            except (asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError, ValueError):
                writer.write(_render(400, {"error": "malformed request"}))
                return
            await self._respond(method, path, body, writer)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to salvage
        except asyncio.CancelledError:
            # Only the loop teardown cancels a handler and nothing awaits
            # it, so it ends normally: on Python 3.11 start_server's
            # done-callback logs a cancelled handler task as an error.
            pass
        finally:
            try:
                await writer.drain()
            except (BrokenPipeError, ConnectionResetError):
                pass
            writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        method, path, _version = lines[0].split(" ", 2)
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        if length > _MAX_BODY:
            raise ValueError("payload too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body

    async def _respond(self, method: str, path: str, body: bytes,
                       writer: asyncio.StreamWriter) -> None:
        if method == "GET" and path.startswith("/jobs/") and \
                path.endswith("/events"):
            await self._stream_events(path.split("/")[2], writer)
            return
        try:
            response = await self._dispatch(method, path, body)
        except ConfigurationError as exc:
            response = _render(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - classified error boundary
            if is_retryable(exc):
                response = _render(
                    503,
                    {"error": f"{type(exc).__name__}: {exc}",
                     "retryable": True},
                    headers=_retry_after(1.0),
                )
            else:
                response = _render(
                    500,
                    {"error": f"{type(exc).__name__}: {exc}",
                     "retryable": False},
                )
        writer.write(response)

    # -- routes -------------------------------------------------------------

    async def _dispatch(self, method: str, path: str, body: bytes) -> bytes:
        loop = asyncio.get_event_loop()
        manager = self.manager
        if path == "/healthz" and method == "GET":
            return _render(200, {"ok": True})
        if path == "/readyz" and method == "GET":
            stats = await loop.run_in_executor(None, manager.stats)
            ready = (not stats["draining"]
                     and stats["queued"] < stats["queue_depth"])
            payload = {"ready": ready, "draining": stats["draining"],
                       "queued": stats["queued"],
                       "running": stats["running"]}
            if ready:
                return _render(200, payload)
            return _render(
                503, payload, headers=_retry_after(stats["mean_service_s"]),
            )
        if path == "/metrics" and method == "GET":
            return _render(200, None, raw=await loop.run_in_executor(
                None, self._metrics_json
            ))
        if path == "/jobs" and method == "POST":
            try:
                payload = json.loads(body.decode("utf-8") or "null")
            except ValueError as exc:
                raise ConfigurationError(
                    "request body is not valid JSON"
                ) from exc
            decision, job, record = await loop.run_in_executor(
                None, manager.submit, payload
            )
            if job is not None:
                return _render(201, record)
            status = 429 if decision.reason == "rate" else 503
            return _render(
                status,
                {"error": f"shed: {decision.reason}",
                 "decision": decision.as_dict()},
                headers=_retry_after(decision.retry_after_s),
            )
        if path == "/jobs" and method == "GET":
            jobs = await loop.run_in_executor(None, manager.list_jobs)
            return _render(200, {"jobs": [job.as_dict() for job in jobs]})
        if path.startswith("/jobs/"):
            parts = path.split("/")
            job_id = parts[2]
            job = manager.get(job_id)
            if job is None:
                return _render(404, {"error": f"no job {job_id!r}"})
            if len(parts) == 3 and method == "GET":
                return _render(200, job.as_dict())
            if len(parts) == 3 and method == "DELETE":
                job = await loop.run_in_executor(None, manager.cancel, job_id)
                assert job is not None
                return _render(200, job.as_dict())
            if len(parts) == 4 and parts[3] == "result" and method == "GET":
                raw = await loop.run_in_executor(
                    None, manager.result_bytes, job_id
                )
                if raw is None:
                    return _render(
                        409,
                        {"error": f"job {job_id!r} has no result "
                                  f"(state: {job.state.value})"},
                    )
                return _render(200, None, raw=raw)
        return _render(405 if path in ("/jobs", "/healthz", "/readyz",
                                       "/metrics") else 404,
                       {"error": f"cannot {method} {path}"})

    def _metrics_json(self) -> bytes:
        from ..obs import MetricsRegistry
        from .obs import register_serve_stats

        registry = MetricsRegistry()
        register_serve_stats(registry, self.manager)
        return (registry.to_json() + "\n").encode("utf-8")

    # -- streaming ----------------------------------------------------------

    async def _stream_events(self, job_id: str,
                             writer: asyncio.StreamWriter) -> None:
        job = self.manager.get(job_id)
        if job is None:
            writer.write(_render(404, {"error": f"no job {job_id!r}"}))
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        loop = asyncio.get_event_loop()
        after = 0
        while True:
            events, terminal = await loop.run_in_executor(
                None, self.manager.wait_events, job, after, 1.0
            )
            for event in events:
                writer.write((json.dumps(event) + "\n").encode("utf-8"))
            if events:
                await writer.drain()
            after += len(events)
            if terminal and not events:
                return


# -- entry points -------------------------------------------------------------


def serve_forever(config: ServeConfig, cache: Any = None) -> int:
    """Run the server until SIGTERM/SIGINT, then drain; the CLI's core.

    Returns 0 when the drain checkpointed every in-flight job inside
    the budget (points persisted, journals consistent), 1 otherwise.
    """

    async def _main() -> int:
        app = ServeApp(config, cache=cache)
        await app.start()
        stop = asyncio.Event()
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        print(f"[serve] listening on {config.host}:{app.port} "
              f"(max_running={config.max_running}, "
              f"queue_depth={config.queue_depth})",
              file=sys.stderr, flush=True)
        await stop.wait()
        print("[serve] drain: stopped admitting, checkpointing in-flight "
              "jobs", file=sys.stderr, flush=True)
        clean = await app.drain_and_stop()
        print(f"[serve] drained {'cleanly' if clean else 'OVER BUDGET'}",
              file=sys.stderr, flush=True)
        return 0 if clean else 1

    return asyncio.run(_main())


class BackgroundServer:
    """An in-process server on a daemon thread (tests and benchmarks).

    Usage::

        with BackgroundServer(ServeConfig(port=0)) as server:
            client = ServeClient("127.0.0.1", server.port)
            ...

    ``stop()`` runs the same drain sequence SIGTERM does and records
    whether it finished inside the budget in :attr:`drained_clean`.
    """

    def __init__(self, config: ServeConfig, cache: Any = None,
                 manager: Optional[JobManager] = None) -> None:
        self.config = config
        self.cache = cache
        self._manager = manager
        self.app: Optional[ServeApp] = None
        self.port: Optional[int] = None
        self.drained_clean: Optional[bool] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def manager(self) -> JobManager:
        assert self.app is not None
        return self.app.manager

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="serve-background")
        self._thread.start()
        if not self._ready.wait(10.0):
            raise RuntimeError("background server failed to start")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self.app = ServeApp(self.config, cache=self.cache,
                            manager=self._manager)
        loop.run_until_complete(self.app.start())
        self.port = self.app.port
        self._ready.set()
        loop.run_forever()
        # Tear down as ``asyncio.run`` does: a handler still waiting on a
        # half-sent request is cancelled and finishes on the running
        # loop, so its ``finally`` never runs on a closed one.
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()

    def stop(self, budget_s: Optional[float] = None) -> bool:
        """SIGTERM-equivalent drain; True when inside the budget."""
        assert self._loop is not None and self.app is not None
        future = asyncio.run_coroutine_threadsafe(
            self.app.drain_and_stop(budget_s), self._loop
        )
        budget = (self.config.drain_budget_s if budget_s is None
                  else budget_s)
        self.drained_clean = future.result(budget + 10.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        assert self._thread is not None
        self._thread.join(5.0)
        return bool(self.drained_clean)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        if self._thread is not None and self._thread.is_alive():
            self.stop()

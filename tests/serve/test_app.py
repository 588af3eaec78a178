"""The HTTP front-end, end to end over real sockets."""

import json
import time

import pytest

from repro.cache import SweepCache
from repro.serve import BackgroundServer, ServeClient, ServeConfig

from .test_jobs import DEMO, _wait_terminal, reference_bytes

#: Slow demo payload a test can observe mid-flight.
SLOW = dict(DEMO, points=6, sleep_s=0.3)


def _config(**overrides):
    defaults = dict(port=0, max_running=1, queue_depth=2, table_limit=8,
                    default_deadline_s=120.0, drain_budget_s=10.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


@pytest.fixture
def server(tmp_path):
    cache = SweepCache(root=str(tmp_path / "cache"))
    with BackgroundServer(_config(), cache=cache) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServeClient("127.0.0.1", server.port)


class TestProbes:
    def test_healthz(self, client):
        response = client.healthz()
        assert response.status == 200 and response.json == {"ok": True}

    def test_readyz_when_idle(self, client):
        response = client.readyz()
        assert response.status == 200
        assert response.json["ready"] is True

    def test_metrics_is_a_metrics_document(self, client):
        doc = client.metrics().json
        assert doc["schema"] == "repro.metrics/v1"
        names = {m["name"] for m in doc["metrics"]}
        assert {"serve_queued", "serve_running", "serve_draining"} <= names

    def test_unknown_path_404(self, client):
        assert client._request("GET", "/nope").status == 404

    def test_wrong_method_405(self, client):
        assert client._request("DELETE", "/healthz").status == 405


class TestJobsOverHttp:
    def test_submit_poll_result_round_trip(self, client):
        response = client.submit(DEMO)
        assert response.status == 201
        record = response.json
        assert record["schema"] == "repro.job/v1"
        assert record["state"] in ("queued", "running")
        landed = client.wait(record["id"], timeout_s=60.0)
        assert landed["state"] == "done"
        assert client.result(record["id"]) == reference_bytes(DEMO)

    def test_201_body_is_the_record_as_admitted(self, server, client,
                                                monkeypatch):
        """The job may finish before the response is written; the body
        still shows it as it was admitted."""
        manager = server.manager
        real_submit = manager.submit

        def submit_then_finish(payload):
            admitted = real_submit(payload)
            _wait_terminal(manager, admitted[1].id)
            return admitted

        monkeypatch.setattr(manager, "submit", submit_then_finish)
        response = client.submit(DEMO)
        assert response.status == 201
        assert response.json["state"] == "queued"

    def test_job_table_lists_submissions(self, client):
        job_id = client.submit(DEMO).json["id"]
        client.wait(job_id, timeout_s=60.0)
        assert job_id in {job["id"] for job in client.jobs()}

    def test_submit_rejects_bad_spec_with_400(self, client):
        response = client.submit({"target": "fig99"})
        assert response.status == 400
        assert "fig99" in response.json["error"]

    def test_submit_rejects_unknown_field_with_400(self, client):
        assert client.submit({"target": "demo", "bogus": 1}).status == 400

    def test_submit_rejects_non_json_body(self, client):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", client.port,
                                          timeout=10)
        try:
            conn.request("POST", "/jobs", body=b"not json{",
                         headers={"Content-Type": "application/json"})
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_unknown_job_404(self, client):
        assert client.job("demo-999999").status == 404
        assert client.cancel("demo-999999").status == 404

    def test_result_before_done_is_409(self, client):
        job_id = client.submit(SLOW).json["id"]
        response = client._request("GET", f"/jobs/{job_id}/result")
        assert response.status == 409
        client.cancel(job_id)
        client.wait(job_id, timeout_s=60.0)

    def test_cancel_running_job_over_http(self, client):
        job_id = client.submit(SLOW).json["id"]
        client.wait_for_event(
            job_id, lambda e: e["event"] == "running", timeout_s=30.0
        )
        assert client.cancel(job_id).status == 200
        landed = client.wait(job_id, timeout_s=60.0)
        assert landed["state"] == "cancelled"


class TestEventStream:
    def test_stream_carries_lifecycle_and_progress(self, client):
        job_id = client.submit(DEMO).json["id"]
        events = list(client.events(job_id))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "queued" and kinds[-1] == "done"
        assert kinds.count("point") == DEMO["points"]
        # Monotonic sequence numbers: no event lost or duplicated.
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_stream_for_unknown_job_is_404(self, client):
        with pytest.raises(RuntimeError, match="404"):
            next(client.events("demo-999999"))


class TestBackpressure:
    def test_queue_full_sheds_503_and_readyz_flips(self, tmp_path):
        cache = SweepCache(root=str(tmp_path / "cache"))
        with BackgroundServer(
            _config(max_running=1, queue_depth=1), cache=cache
        ) as server:
            client = ServeClient("127.0.0.1", server.port)
            accepted = []
            shed = None
            for _ in range(6):
                response = client.submit(SLOW)
                if response.status == 201:
                    accepted.append(response.json["id"])
                else:
                    shed = response
                    break
            assert shed is not None, "queue never filled"
            assert shed.status == 503
            assert shed.retry_after_s is not None and shed.retry_after_s >= 1
            assert shed.json["decision"]["reason"] == "queue-full"
            # Saturated queue flips readiness (with its own hint).
            ready = client.readyz()
            assert ready.status == 503
            assert ready.json["ready"] is False
            assert ready.retry_after_s is not None
            for job_id in accepted:
                client.cancel(job_id)
                client.wait(job_id, timeout_s=60.0)

    def test_rate_burst_sheds_429(self, tmp_path):
        cache = SweepCache(root=str(tmp_path / "cache"))
        with BackgroundServer(
            _config(rate_per_s=1.0, burst=1.0, queue_depth=8,
                    table_limit=16),
            cache=cache,
        ) as server:
            client = ServeClient("127.0.0.1", server.port)
            verdicts = [client.submit(DEMO) for _ in range(4)]
            statuses = [v.status for v in verdicts]
            assert statuses[0] == 201
            assert 429 in statuses
            shed = next(v for v in verdicts if v.status == 429)
            assert shed.retry_after_s is not None
            assert shed.json["decision"]["reason"] == "rate"


class TestDrain:
    def test_drain_flips_readyz_then_sheds(self, tmp_path):
        cache = SweepCache(root=str(tmp_path / "cache"))
        server = BackgroundServer(_config(), cache=cache).start()
        client = ServeClient("127.0.0.1", server.port)
        job_id = client.submit(SLOW).json["id"]
        client.wait_for_event(
            job_id, lambda e: e["event"] == "running", timeout_s=30.0
        )
        assert server.stop() is True  # checkpointed inside the budget
        # The manager refuses new work after the drain.
        decision, job, _ = server.manager.submit(DEMO)
        assert not decision.admitted and decision.reason == "draining"
        # The interrupted job is still `running` on disk for the next
        # boot to requeue — the SIGTERM-resume contract.
        job_doc = json.loads(
            open(f"{server.manager.jobs_dir}/{job_id}.json").read()
        )
        assert job_doc["state"] in ("running", "done")

    def test_checkpointed_job_resumes_on_next_boot(self, tmp_path):
        cache_root = str(tmp_path / "cache")
        config = _config()
        server = BackgroundServer(
            config, cache=SweepCache(root=cache_root)
        ).start()
        client = ServeClient("127.0.0.1", server.port)
        job_id = client.submit(SLOW).json["id"]
        client.wait_for_event(
            job_id, lambda e: e.get("done", 0) >= 1, timeout_s=60.0
        )
        assert server.stop() is True

        # Second boot on the same cache: the journal requeues the job
        # and the finished points come back as cache hits.
        with BackgroundServer(
            config, cache=SweepCache(root=cache_root)
        ) as reborn:
            client = ServeClient("127.0.0.1", reborn.port)
            landed = client.wait(job_id, timeout_s=120.0)
            assert landed["state"] == "done"
            assert landed["resumed"] >= 1
            assert client.result(job_id) == reference_bytes(SLOW)


class TestRequestHygiene:
    def test_malformed_request_line_is_400(self, server):
        import socket

        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            assert b"400" in sock.recv(4096).split(b"\r\n", 1)[0]

    def test_stalled_client_gets_408(self, tmp_path):
        import socket

        cache = SweepCache(root=str(tmp_path / "cache"))
        with BackgroundServer(
            _config(request_timeout_s=0.3), cache=cache
        ) as server:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")  # never finishes
                deadline = time.monotonic() + 10.0
                data = b""
                while b"\r\n" not in data and time.monotonic() < deadline:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    data += chunk
                assert b"408" in data.split(b"\r\n", 1)[0]

    def test_oversized_body_rejected(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Length", str(2 << 20))
            conn.endheaders()
            assert conn.getresponse().status == 400
        finally:
            conn.close()


class TestTeardown:
    def test_stop_with_a_half_sent_request_leaves_nothing_pending(
        self, tmp_path, caplog
    ):
        """A handler still reading its request finishes before the loop
        closes: no task is destroyed pending, and its ``finally`` never
        runs on a closed loop."""
        import gc
        import logging
        import socket
        import sys

        unraisable = []
        hook = sys.unraisablehook
        sys.unraisablehook = lambda args: unraisable.append(repr(args.exc_value))
        try:
            cache = SweepCache(root=str(tmp_path / "cache"))
            server = BackgroundServer(
                _config(request_timeout_s=30.0), cache=cache
            ).start()
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")  # never finishes
                # Connections are handled in accept order, so once a later
                # request is answered the first handler is waiting for the
                # rest of its request.
                client = ServeClient("127.0.0.1", server.port)
                assert client.healthz().status == 200
                assert server.stop()
            del server
            gc.collect()
        finally:
            sys.unraisablehook = hook
        assert unraisable == []
        assert [
            r.getMessage() for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.ERROR
        ] == []

"""The job manager: lifecycle, byte-identity, shedding, recovery."""

import json
import os
import threading
import time

import pytest

from repro.cache import SweepCache
from repro.parallel import merge_metrics_documents, run_sweep
from repro.serve import jobs as jobs_module
from repro.serve.jobs import JobManager, build_sweep_spec, demo_sweep_spec
from repro.serve.protocol import (
    Job,
    JobSpec,
    JobState,
    ServeConfig,
    write_journal,
)

#: Small demo payload every test reuses (milliseconds of work).
DEMO = {"target": "demo", "points": 3, "draws": 64}


def _config(**overrides):
    defaults = dict(max_running=1, queue_depth=2, table_limit=8,
                    default_deadline_s=120.0, drain_budget_s=5.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


@pytest.fixture
def manager(tmp_path):
    cache = SweepCache(root=str(tmp_path / "cache"))
    mgr = JobManager(_config(), cache=cache)
    mgr.start()
    yield mgr
    mgr.drain(budget_s=10.0)


def _wait_terminal(manager, job_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = manager.get(job_id)
        if job is not None and job.terminal:
            return job
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id!r} never terminated")


def reference_bytes(payload):
    """What `repro sweep <target> --json` would print for this spec."""
    spec = JobSpec.from_payload(payload)
    sweep = run_sweep(build_sweep_spec(spec), workers=1)
    sweep.raise_failures()
    merged = merge_metrics_documents(
        [(pr.key, pr.value["metrics"]) for pr in sweep.results],
        generated_by=f"repro sweep {spec.target}",
    )
    return (json.dumps(merged, indent=2) + "\n").encode("utf-8")


class TestSweepSpecs:
    def test_demo_spec_shape(self):
        spec = demo_sweep_spec(points=3, draws=64)
        assert spec.name == "serve-demo-3x64"
        assert [p.key for p in spec.points] == ["d000", "d001", "d002"]
        assert all(p.params["draws"] == 64 for p in spec.points)

    def test_demo_seeds_derive_per_key(self):
        spec = demo_sweep_spec(points=2, draws=64)
        assert spec.points[0].seed != spec.points[1].seed

    def test_chaos_block_wraps_the_spec(self):
        spec = build_sweep_spec(JobSpec(
            target="demo", points=2, draws=64,
            chaos={"transient_prob": 1.0},
        ))
        assert spec.name.endswith("+chaos")

    def test_stock_target_uses_cli_points(self):
        from repro.cli import stock_sweep_spec

        built = build_sweep_spec(JobSpec(target="fig5", quick=True))
        stock = stock_sweep_spec("fig5", quick=True, seed=0xC0FFEE,
                                 mode="controlled")
        assert [p.key for p in built.points] == [p.key for p in stock.points]


class TestLifecycle:
    def test_demo_job_runs_to_done(self, manager):
        decision, job, _ = manager.submit(DEMO)
        assert decision.admitted
        landed = _wait_terminal(manager, job.id)
        assert landed.state is JobState.DONE
        assert (landed.done, landed.total) == (3, 3)
        events = [e["event"] for e in landed.events]
        assert events[0] == "queued" and events[-1] == "done"
        assert events.count("point") == 3

    def test_queued_event_precedes_running(self, manager, monkeypatch):
        real_emit = Job.emit

        def slow_queued(job, event):
            if event["event"] == "queued":
                time.sleep(0.2)  # past the scheduler's 50 ms poll
            real_emit(job, event)

        monkeypatch.setattr(Job, "emit", slow_queued)
        _, job, _ = manager.submit(DEMO)
        landed = _wait_terminal(manager, job.id)
        assert [e["event"] for e in landed.events[:2]] == ["queued", "running"]

    def test_result_is_byte_identical_to_cli_merge(self, manager):
        _, job, _ = manager.submit(DEMO)
        _wait_terminal(manager, job.id)
        assert manager.result_bytes(job.id) == reference_bytes(DEMO)

    def test_bad_spec_raises_before_admission(self, manager):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            manager.submit({"target": "fig99"})
        assert manager.list_jobs() == []

    def test_quarantine_when_retries_exhausted(self, manager):
        _, job, _ = manager.submit(dict(
            DEMO, retries=0,
            chaos={"transient_prob": 1.0, "max_faulty_attempts": 3},
        ))
        landed = _wait_terminal(manager, job.id)
        assert landed.state is JobState.QUARANTINED
        assert landed.error is not None and landed.error["retryable"]
        assert manager.result_bytes(job.id) is None

    def test_chaos_survived_by_retries_is_byte_identical(self, manager):
        payload = dict(
            DEMO, retries=3,
            chaos={"transient_prob": 0.8, "max_faulty_attempts": 1},
        )
        _, job, _ = manager.submit(payload)
        landed = _wait_terminal(manager, job.id)
        assert landed.state is JobState.DONE
        # Values never feel the faults: same bytes as the clean run.
        assert manager.result_bytes(job.id) == reference_bytes(payload)


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path):
        cache = SweepCache(root=str(tmp_path / "cache"))
        manager = JobManager(_config(), cache=cache)
        # Scheduler not started: submissions stay queued.
        _, job, _ = manager.submit(DEMO)
        cancelled = manager.cancel(job.id)
        assert cancelled.state is JobState.CANCELLED
        assert cancelled.reason == "cancelled by client"

    def test_cancel_running_job_checkpoints(self, manager):
        _, job, _ = manager.submit(dict(DEMO, points=6, sleep_s=0.2))
        deadline = time.monotonic() + 30.0
        while manager.get(job.id).state is not JobState.RUNNING:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        manager.cancel(job.id)
        landed = _wait_terminal(manager, job.id)
        assert landed.state is JobState.CANCELLED

    def test_cancel_unknown_job_is_none(self, manager):
        assert manager.cancel("nope-000000") is None

    def test_stream_reader_sees_final_state_with_its_event(
        self, tmp_path, monkeypatch
    ):
        """A reader woken between the final state and its event must not
        see the job terminal with the event still missing."""
        manager = JobManager(_config(), cache=SweepCache(root=str(tmp_path / "cache")))
        _, job, _ = manager.submit(DEMO)  # scheduler not started: stays queued
        journaled = threading.Event()
        real_write = jobs_module.write_journal

        def slow_write(jobs_dir, record):
            real_write(jobs_dir, record)
            if record.terminal:
                journaled.set()
                time.sleep(0.2)  # hold the window open for the reader

        monkeypatch.setattr(jobs_module, "write_journal", slow_write)
        seen = {}

        def reader():
            journaled.wait(5.0)
            seen["events"], seen["terminal"] = manager.wait_events(job, 1, 5.0)

        thread = threading.Thread(target=reader)
        thread.start()
        manager.cancel(job.id)
        thread.join(10.0)
        assert not thread.is_alive()
        assert seen["terminal"]
        assert [e["event"] for e in seen["events"]] == ["cancelled"]


class TestDeadlines:
    def test_running_job_past_deadline_fails(self, manager):
        _, job, _ = manager.submit(dict(DEMO, points=8, sleep_s=0.3,
                                     deadline_s=0.4))
        landed = _wait_terminal(manager, job.id)
        assert landed.state is JobState.FAILED
        assert landed.error["type"] == "DeadlineExceeded"

    def test_zero_deadline_means_none(self, tmp_path):
        cache = SweepCache(root=str(tmp_path / "cache"))
        manager = JobManager(_config(), cache=cache)
        _, job, _ = manager.submit(dict(DEMO, deadline_s=0))
        assert job.deadline_ns is None


class TestShedding:
    def test_queue_full_sheds(self, tmp_path):
        cache = SweepCache(root=str(tmp_path / "cache"))
        manager = JobManager(_config(queue_depth=2), cache=cache)
        # No scheduler: both slots stay queued, the third sheds.
        assert manager.submit(DEMO)[0].admitted
        assert manager.submit(DEMO)[0].admitted
        decision, job, _ = manager.submit(DEMO)
        assert not decision.admitted and job is None
        assert decision.reason == "queue-full"
        assert decision.retry_after_s > 0
        # Sheds never allocate table space or journal bytes.
        assert len(manager.list_jobs()) == 2
        assert len(os.listdir(manager.jobs_dir)) == 2

    def test_rate_limit_sheds_with_429_reason(self, tmp_path):
        cache = SweepCache(root=str(tmp_path / "cache"))
        manager = JobManager(
            _config(rate_per_s=1.0, burst=1.0, queue_depth=8,
                    table_limit=16),
            cache=cache,
        )
        assert manager.submit(DEMO)[0].admitted
        decision, _, _ = manager.submit(DEMO)
        assert decision.reason == "rate"

    def test_draining_sheds_everything(self, manager):
        manager.drain(budget_s=5.0)
        decision, job, _ = manager.submit(DEMO)
        assert not decision.admitted
        assert decision.reason == "draining"


class TestRecoveryAndEviction:
    def test_running_journal_entry_is_requeued_and_resumed(self, tmp_path):
        cache = SweepCache(root=str(tmp_path / "cache"))
        config = _config()
        # A dead server's journal: the job was mid-flight.
        crashed = Job(id="demo-000000", seq=0,
                      spec=JobSpec.from_payload(DEMO),
                      state=JobState.RUNNING, done=1, total=3)
        write_journal(os.path.join(cache.root, "serve", "jobs"), crashed)

        manager = JobManager(config, cache=cache)
        manager.start()
        try:
            assert manager.recovered == 1
            landed = _wait_terminal(manager, "demo-000000")
            assert landed.state is JobState.DONE
            assert landed.resumed == 1
            assert manager.result_bytes("demo-000000") == \
                reference_bytes(DEMO)
        finally:
            manager.drain(budget_s=10.0)

    def test_terminal_journal_entries_stay_terminal(self, tmp_path):
        cache = SweepCache(root=str(tmp_path / "cache"))
        done = Job(id="demo-000000", seq=0,
                   spec=JobSpec.from_payload(DEMO),
                   state=JobState.DONE, done=3, total=3)
        write_journal(os.path.join(cache.root, "serve", "jobs"), done)
        manager = JobManager(_config(), cache=cache)
        manager.start()
        try:
            assert manager.recovered == 0
            assert manager.get("demo-000000").state is JobState.DONE
        finally:
            manager.drain(budget_s=5.0)

    def test_seq_continues_past_recovered_jobs(self, tmp_path):
        cache = SweepCache(root=str(tmp_path / "cache"))
        old = Job(id="demo-000004", seq=4, spec=JobSpec.from_payload(DEMO),
                  state=JobState.DONE)
        write_journal(os.path.join(cache.root, "serve", "jobs"), old)
        manager = JobManager(_config(), cache=cache)
        manager._recover()
        _, job, _ = manager.submit(DEMO)
        assert job.seq == 5
        assert job.id == "demo-000005"

    def test_eviction_bounds_the_table(self, manager):
        ids = []
        for _ in range(manager.config.table_limit + 2):
            decision, job, _ = manager.submit(DEMO)
            assert decision.admitted, decision
            ids.append(job.id)
            _wait_terminal(manager, job.id)
        table = {job.id for job in manager.list_jobs()}
        assert len(table) <= manager.config.table_limit
        assert ids[-1] in table and ids[0] not in table
        # Evicted journals and results are gone from disk too.
        assert f"{ids[0]}.json" not in os.listdir(manager.jobs_dir)


class TestStats:
    def test_snapshot_shape(self, manager):
        _, job, _ = manager.submit(DEMO)
        _wait_terminal(manager, job.id)
        stats = manager.stats()
        assert stats["jobs_total"] == 1
        assert stats["jobs"]["done"] == 1
        assert stats["recovered"] == 0
        assert stats["draining"] is False
        assert {"queued", "running", "max_running",
                "rejected_full"} <= set(stats)

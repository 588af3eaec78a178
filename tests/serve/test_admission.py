"""Admission from the job table, on a fake clock.

A stand-in ``run_sweep`` holds every sweep open until the test releases
it, so the test decides when a runner slot frees.  No scheduler thread
runs: promotion and the deadline police pass run when the test calls
them.
"""

import threading

import pytest

from repro.cache import SweepCache
from repro.errors import ConfigurationError
from repro.serve import jobs as jobs_module
from repro.serve.jobs import AdmissionDecision, JobManager, WallClock
from repro.serve.protocol import JobState, ServeConfig

from .test_jobs import DEMO


class FakeClock(WallClock):
    """Manually-advanced clock; starts at zero."""

    def __init__(self):
        self._now_ns = 0.0

    def now_ns(self):
        return self._now_ns

    def advance_s(self, seconds):
        self._now_ns += seconds * 1e9


class HeldSweeps:
    """Stands in for ``run_sweep``: each sweep waits for ``release``."""

    def __init__(self, run_sweep):
        self._run_sweep = run_sweep
        self._started = threading.Semaphore(0)
        self.release = threading.Event()

    def __call__(self, spec, **kwargs):
        self._started.release()
        self.release.wait(30.0)
        return self._run_sweep(spec, **kwargs)

    def wait_started(self, count=1):
        for _ in range(count):
            assert self._started.acquire(timeout=30.0)


@pytest.fixture
def held(monkeypatch):
    sweeps = HeldSweeps(jobs_module.run_sweep)
    monkeypatch.setattr(jobs_module, "run_sweep", sweeps)
    yield sweeps
    sweeps.release.set()


@pytest.fixture
def make_manager(tmp_path, held):
    managers = []

    def make(**overrides):
        config = dict(max_running=1, queue_depth=2, table_limit=16,
                      default_deadline_s=120.0, drain_budget_s=5.0)
        config.update(overrides)
        clock = FakeClock()
        cache = SweepCache(root=str(tmp_path / f"cache{len(managers)}"))
        manager = JobManager(ServeConfig(**config), cache=cache, clock=clock)
        managers.append(manager)
        return manager, clock

    yield make
    held.release.set()
    for manager in managers:
        assert manager.drain(budget_s=30.0)


def _finish_running(manager, held):
    """Release the held sweeps and wait until their runners exit."""
    threads = list(manager._runners.values())
    held.release.set()
    for thread in threads:
        thread.join(30.0)
        assert not thread.is_alive()
    held.release.clear()


class TestWallClock:
    def test_real_clock_is_monotonic(self):
        clock = WallClock()
        a = clock.now_ns()
        b = clock.now_ns()
        assert b >= a
        assert clock.now_s() * 1e9 >= b

    def test_decision_as_dict(self):
        doc = AdmissionDecision(False, "rate", 0.25).as_dict()
        assert doc == {"admitted": False, "reason": "rate",
                       "retry_after_s": 0.25}


class TestValidation:
    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(rate_per_s=0)

    def test_burst_needs_rate(self):
        with pytest.raises(ConfigurationError, match="burst needs rate_per_s"):
            ServeConfig(burst=4)

    def test_burst_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JobManager(ServeConfig(rate_per_s=1.0, burst=0),
                       cache=SweepCache(root=str(tmp_path / "cache")))


class TestRateShedding:
    def test_burst_beyond_bucket_sheds_with_retry_after(self, make_manager):
        manager, _ = make_manager(queue_depth=8, rate_per_s=2.0, burst=2.0)
        decisions = [manager.submit(DEMO)[0] for _ in range(6)]
        assert [d.admitted for d in decisions] == [True] * 2 + [False] * 4
        # An empty bucket is one token short: 1 / (2 tokens/s) = 0.5 s.
        assert set(decisions[2:]) == {AdmissionDecision(False, "rate", 0.5)}
        assert manager.stats()["rejected_rate"] == 4

    def test_bucket_refills_with_time(self, make_manager):
        manager, clock = make_manager(queue_depth=8, rate_per_s=2.0,
                                      burst=1.0)
        assert manager.submit(DEMO)[0].admitted
        assert not manager.submit(DEMO)[0].admitted
        clock.advance_s(0.6)  # > one token at 2/s
        assert manager.submit(DEMO)[0].admitted


class TestQueueShedding:
    def test_full_queue_sheds_with_backlog_estimate(self, make_manager):
        manager, _ = make_manager(max_running=2, queue_depth=2)
        assert manager.submit(DEMO)[0].admitted
        assert manager.submit(DEMO)[0].admitted
        decision, job, record = manager.submit(DEMO)
        assert job is None and record is None
        # A backlog of 2 plus the newcomer through 2 slots is 2 waves of
        # the seeded 1 s mean service time.
        assert decision == AdmissionDecision(False, "queue-full", 2.0)
        assert manager.stats()["rejected_full"] == 1

    def test_retry_after_tracks_service_ewma(self, make_manager, held):
        manager, clock = make_manager(max_running=1, queue_depth=1)
        manager.submit(DEMO)
        manager._promote()
        held.wait_started()
        clock.advance_s(11.0)
        _finish_running(manager, held)
        # EWMA: 1 + 0.3 * (11 - 1) = 4 s.
        assert manager.stats()["mean_service_s"] == pytest.approx(4.0)
        assert manager.submit(DEMO)[0].admitted
        decision, _, _ = manager.submit(DEMO)
        assert decision.reason == "queue-full"
        assert decision.retry_after_s == pytest.approx(8.0)  # 2 waves * 4 s

    def test_cancelled_queued_jobs_free_their_slots(self, make_manager, held):
        manager, _ = make_manager(max_running=1, queue_depth=2)
        manager.submit(DEMO)
        manager._promote()  # the one runner slot is now busy
        held.wait_started()
        waiting = [manager.submit(DEMO)[1] for _ in range(2)]
        for job in waiting:
            manager.cancel(job.id)
        stats = manager.stats()
        assert stats["queued"] == 0
        assert stats["jobs"]["queued"] == 0
        assert manager.submit(DEMO)[0].admitted


class TestPromotion:
    def test_slots_bound_concurrency(self, make_manager, held):
        manager, _ = make_manager(max_running=2, queue_depth=8)
        jobs = [manager.submit(DEMO)[1] for _ in range(3)]
        manager._promote()
        held.wait_started(2)
        assert [job.state for job in jobs] == [
            JobState.RUNNING, JobState.RUNNING, JobState.QUEUED,
        ]
        stats = manager.stats()
        assert (stats["running"], stats["queued"]) == (2, 1)
        _finish_running(manager, held)
        assert manager.stats()["running"] == 0
        manager._promote()
        assert jobs[2].state is JobState.RUNNING

    def test_empty_queue_returns_slot(self, make_manager, held):
        manager, _ = make_manager(max_running=1, queue_depth=8)
        manager._promote()  # nothing queued
        assert manager.stats()["running"] == 0
        _, job, _ = manager.submit(DEMO)
        # The empty promotion must not have taken the one slot.
        manager._promote()
        held.wait_started()
        assert job.state is JobState.RUNNING


class TestDeadlines:
    def test_expired_waiters_are_shed_on_promotion(self, make_manager):
        manager, clock = make_manager(queue_depth=8)
        _, stale, _ = manager.submit(dict(DEMO, deadline_s=1.0))
        _, fresh, _ = manager.submit(dict(DEMO, deadline_s=60.0))
        clock.advance_s(2.0)
        manager._promote()
        assert fresh.state is JobState.RUNNING
        assert stale.state is JobState.FAILED
        assert stale.reason == "deadline expired while queued"
        assert stale.events[-1]["event"] == "shed"
        assert manager.stats()["shed_expired"] == 1

    def test_police_pass_sheds_without_promotion(self, make_manager):
        manager, clock = make_manager(queue_depth=8)
        _, stale, _ = manager.submit(dict(DEMO, deadline_s=0.5))
        _, eternal, _ = manager.submit(dict(DEMO, deadline_s=0))
        clock.advance_s(1.0)
        manager._police_deadlines()
        assert stale.state is JobState.FAILED
        assert eternal.state is JobState.QUEUED
        stats = manager.stats()
        assert (stats["shed_expired"], stats["queued"]) == (1, 1)

    def test_no_deadline_never_expires(self, make_manager):
        manager, clock = make_manager()
        _, eternal, _ = manager.submit(dict(DEMO, deadline_s=0))
        clock.advance_s(1e6)
        manager._police_deadlines()
        manager._promote()
        assert eternal.state is JobState.RUNNING
        assert manager.stats()["shed_expired"] == 0


class TestStats:
    def test_counts_every_outcome_in_key_order(self, make_manager, held):
        manager, clock = make_manager(max_running=1, queue_depth=2,
                                      rate_per_s=100.0, burst=100.0)
        manager.submit(dict(DEMO, deadline_s=0.5))
        manager.submit(dict(DEMO, deadline_s=0))
        assert manager.submit(DEMO)[0].reason == "queue-full"
        clock.advance_s(1.0)
        manager._police_deadlines()  # sheds the first job
        manager._promote()  # runs the second
        held.wait_started()
        stats = manager.stats()
        assert list(stats) == [
            "queued", "queue_depth", "running", "max_running",
            "rejected_full", "rejected_rate", "shed_expired",
            "mean_service_s", "jobs", "jobs_total", "recovered", "draining",
        ]
        assert stats["queued"] == 0
        assert stats["queue_depth"] == 2
        assert stats["running"] == 1
        assert stats["max_running"] == 1
        assert stats["rejected_full"] == 1
        assert stats["rejected_rate"] == 0
        assert stats["shed_expired"] == 1
        assert stats["mean_service_s"] == pytest.approx(1.0)
        assert (stats["jobs"]["failed"], stats["jobs"]["running"]) == (1, 1)

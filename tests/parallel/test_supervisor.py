"""Failure matrix of the supervised runner: crashes, hangs, retries,
quarantine, unpicklable demotion, and graceful drain with resume."""

import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.cache import SweepCache
from repro.errors import (
    ConfigurationError,
    FaultError,
    TransientError,
    is_retryable,
)
from repro.faults.retry import RetryPolicy
from repro.parallel import (
    RunnerHealth,
    SupervisorConfig,
    SweepPoint,
    SweepSpec,
    run_sweep,
)
from repro.parallel.chaos import flaky_point, hanging_point, killer_point
from repro.parallel.supervisor import (
    CRASH_ERROR,
    TIMEOUT_ERROR,
    UNPICKLABLE_PARAMS_ERROR,
    current_attempt,
    current_worker_id,
)

#: Millisecond-scale backoff so the failure matrix runs fast.
FAST = SupervisorConfig(
    max_attempts=3,
    backoff=RetryPolicy(
        max_attempts=3, base_backoff_ns=1e6, multiplier=2.0, max_backoff_ns=1e7
    ),
)


def _spec(task, n=4, name="matrix", **extra):
    return SweepSpec(
        name=name,
        task=task,
        points=tuple(
            SweepPoint(key=f"p{i}", params={"i": i, **extra}, seed=100 + i)
            for i in range(n)
        ),
        base_seed=7,
    )


def unpicklable_result_point(params, seed):
    """Module-level (spawn-importable); returns something pickle rejects."""
    return lambda: seed  # noqa: E731 - the point is that it won't pickle


def permanent_error_point(params, seed):
    """Module-level (spawn-importable); a non-retryable logic bug."""
    raise RuntimeError("logic bug")


def failing_first_point(params, seed):
    """Module-level (spawn-importable); point 0 raises, the rest succeed."""
    if params["i"] == 0:
        raise ValueError("bad first point")
    return {"i": params["i"]}


class TestClassification:
    def test_transient_and_fault_errors_are_retryable(self):
        assert is_retryable(TransientError("blip"))
        assert is_retryable(FaultError("sim fault"))
        assert is_retryable(OSError("fd pressure"))
        assert is_retryable(MemoryError())

    def test_permanent_errors_are_not(self):
        assert not is_retryable(RuntimeError("logic bug"))
        assert not is_retryable(ValueError("bad input"))
        assert not is_retryable(ConfigurationError("bad flag"))

    def test_stream_errors_are_transient(self):
        # OS-level stream failures are exactly the weather a serving
        # stack retries through: the peer vanished or the read stalled,
        # not a logic bug.
        assert is_retryable(BrokenPipeError("peer closed"))
        assert is_retryable(ConnectionResetError("reset mid-read"))
        assert is_retryable(ConnectionAbortedError("aborted"))
        assert is_retryable(TimeoutError("read deadline"))

    def test_futures_timeout_is_transient(self):
        from concurrent.futures import TimeoutError as FuturesTimeout

        assert is_retryable(FuturesTimeout())


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            SupervisorConfig(max_attempts=0)
        with pytest.raises(ConfigurationError):
            SupervisorConfig(point_timeout_s=0)
        with pytest.raises(ConfigurationError):
            SupervisorConfig(heartbeat_s=-1)

    def test_backoff_is_deterministic_and_grows(self):
        config = SupervisorConfig()
        a1 = config.backoff_s(1, "p0")
        assert a1 == config.backoff_s(1, "p0")  # same schedule on rerun
        assert config.backoff_s(2, "p0") > a1  # exponential
        assert a1 != config.backoff_s(1, "p1")  # decorrelated across keys

    def test_heartbeat_timeout_derived(self):
        assert SupervisorConfig(heartbeat_s=0.5).effective_heartbeat_timeout_s == 10.0
        assert SupervisorConfig(heartbeat_timeout_s=3.0).effective_heartbeat_timeout_s == 3.0


class TestRetry:
    def test_flaky_point_succeeds_on_second_attempt(self):
        sweep = run_sweep(_spec(flaky_point, succeed_on=2), workers=2,
                          supervise=FAST)
        assert sweep.ok
        assert all(pr.value["attempt_succeeded"] == 2 for pr in sweep.results)
        health = sweep.runner_health
        assert health.retries == 4 and health.transient_errors == 4
        assert health.quarantined == 0

    def test_serial_retry_matches_parallel(self):
        spec = _spec(flaky_point, succeed_on=2)
        serial = run_sweep(spec, workers=1, supervise=FAST)
        parallel = run_sweep(spec, workers=2, supervise=FAST)
        assert serial.ok and parallel.ok
        assert [pr.value for pr in serial.results] == [
            pr.value for pr in parallel.results
        ]
        assert serial.runner_health.retries == parallel.runner_health.retries

    def test_quarantine_after_exhausted_attempts(self):
        sweep = run_sweep(_spec(flaky_point, n=2, succeed_on=99), workers=2,
                          supervise=FAST)
        assert not sweep.ok
        for failure in sweep.failures():
            assert failure.error.type == "TransientError"
            assert failure.error.attempts == FAST.max_attempts
            assert failure.error.retryable
            assert "after 3 attempts" in str(failure.error)
        assert sweep.runner_health.quarantined == 2

    def test_permanent_error_fails_without_retry(self):
        sweep = run_sweep(_spec(permanent_error_point, n=2), workers=1,
                          supervise=FAST)
        assert not sweep.ok
        for failure in sweep.failures():
            assert failure.error.type == "RuntimeError"
            assert failure.error.attempts == 1
            assert not failure.error.retryable
        assert sweep.runner_health.retries == 0
        assert sweep.runner_health.quarantined == 0

    def test_fail_fast_stops_dispatch(self):
        config = SupervisorConfig(max_attempts=1, fail_fast=True)
        sweep = run_sweep(_spec(permanent_error_point, n=6), workers=1,
                          supervise=config)
        assert not sweep.ok
        assert len(sweep.results) < 6  # stopped before running everything


class TestCrashes:
    def test_sigkilled_worker_redispatches_point(self):
        spec = _spec(killer_point, n=3, succeed_on=2)
        sweep = run_sweep(spec, workers=2, supervise=FAST)
        assert sweep.ok
        health = sweep.runner_health
        assert health.crashes == 3 and health.retries == 3
        # Replacements only spawn while there is work left to fill them,
        # so the exact count depends on interleaving — but the pool must
        # have been repaired at least once for the sweep to finish.
        assert health.worker_restarts >= 1
        # The supervised values match an unperturbed in-process run
        # (killer_point skips the kill when no worker id is set).
        clean = run_sweep(
            _spec(killer_point, n=3, succeed_on=0), workers=1,
            supervise=SupervisorConfig(max_attempts=1),
        )
        assert [pr.value["seed"] for pr in sweep.results] == [
            pr.value["seed"] for pr in clean.results
        ]

    def test_crash_quarantines_after_budget(self):
        config = SupervisorConfig(max_attempts=2, backoff=FAST.backoff)
        sweep = run_sweep(_spec(killer_point, n=2, succeed_on=99), workers=2,
                          supervise=config)
        assert not sweep.ok
        for failure in sweep.failures():
            assert failure.error.type == CRASH_ERROR
            assert failure.error.attempts == 2
            assert failure.error.retryable
        assert sweep.runner_health.quarantined == 2


class TestDeadlines:
    def test_hung_point_is_killed_and_retried(self):
        config = SupervisorConfig(
            max_attempts=3, point_timeout_s=0.6, backoff=FAST.backoff
        )
        started = time.monotonic()
        sweep = run_sweep(
            _spec(hanging_point, n=2, succeed_on=2, hang_s=120.0),
            workers=2, supervise=config,
        )
        assert sweep.ok
        assert time.monotonic() - started < 30.0  # nowhere near 120 s
        assert all(pr.value["attempt_succeeded"] == 2 for pr in sweep.results)
        health = sweep.runner_health
        assert health.timeouts == 2 and health.worker_restarts >= 1

    def test_hung_point_quarantined_with_timeout_error(self):
        config = SupervisorConfig(
            max_attempts=2, point_timeout_s=0.4, backoff=FAST.backoff
        )
        sweep = run_sweep(
            # n=2: a single pending point would fall back to the serial
            # path, which has no deadline enforcement.
            _spec(hanging_point, n=2, succeed_on=99, hang_s=120.0),
            workers=2, supervise=config,
        )
        assert not sweep.ok
        for failure in sweep.failures():
            assert failure.error.type == TIMEOUT_ERROR
            assert "deadline" in failure.error.message
            assert failure.error.attempts == 2


class TestUnpicklable:
    def test_unpicklable_params_demoted_not_fatal(self):
        points = (
            SweepPoint(key="good", params={"i": 0}, seed=1),
            SweepPoint(key="bad", params={"fn": lambda: None}, seed=2),
            SweepPoint(key="also-good", params={"i": 2}, seed=3),
        )
        spec = SweepSpec(name="unpicklable", task=flaky_point, points=points)
        sweep = run_sweep(spec, workers=2, supervise=SupervisorConfig(
            max_attempts=1
        ))
        by_key = {pr.key: pr for pr in sweep.results}
        assert not by_key["bad"].ok
        assert by_key["bad"].error.type == UNPICKLABLE_PARAMS_ERROR
        assert not by_key["bad"].error.retryable

    def test_unpicklable_result_demoted(self):
        sweep = run_sweep(
            _spec(unpicklable_result_point, n=2), workers=2,
            supervise=SupervisorConfig(max_attempts=1),
        )
        assert not sweep.ok
        for failure in sweep.failures():
            assert failure.error.type == "UnpicklableResult"
            assert not failure.error.retryable


class TestContext:
    def test_in_process_context_defaults(self):
        assert current_attempt() == 1
        assert current_worker_id() is None

    def test_worker_context_visible_to_tasks(self):
        sweep = run_sweep(_spec(flaky_point, n=2, succeed_on=1), workers=2,
                          supervise=FAST)
        # flaky_point reads current_attempt(); succeeding on attempt 1
        # proves the context was set before the task ran.
        assert all(pr.value["attempt_succeeded"] == 1 for pr in sweep.results)


_DRAIN_SCRIPT = textwrap.dedent("""\
    import sys

    from repro.cache import SweepCache
    from repro.parallel import SweepPoint, SweepSpec, run_sweep
    from tests.parallel.test_supervisor import slow_logging_point


    def main():
        cache = SweepCache(root=sys.argv[1])
        spec = SweepSpec(
            name="drainable",
            task=slow_logging_point,
            points=tuple(
                SweepPoint(
                    key=f"p{i}",
                    params={"name": f"p{i}", "log_dir": sys.argv[2]},
                    seed=100 + i,
                )
                for i in range(8)
            ),
        )
        print("ready", flush=True)
        try:
            run_sweep(spec, workers=int(sys.argv[3]), cache=cache)
        except KeyboardInterrupt as exc:
            print(exc, file=sys.stderr)
            return 130
        return 0


    if __name__ == "__main__":
        sys.exit(main())
""")


def _drain_line(text):
    """``(reason, k, n)`` from the one drain line in ``text``."""
    lines = re.findall(r"drained on (\w+): (\d+)/(\d+) points completed"
                       r" and persisted$", text, re.M)
    assert len(lines) == 1, text
    reason, done, total = lines[0]
    return reason, int(done), int(total)


def _drainable_spec(log):
    return SweepSpec(
        name="drainable",
        task=slow_logging_point,
        points=tuple(
            SweepPoint(
                key=f"p{i}",
                params={"name": f"p{i}", "log_dir": str(log)},
                seed=100 + i,
            )
            for i in range(8)
        ),
    )


def slow_logging_point(params, seed):
    """Module-level (spawn-importable): logs, then sleeps a beat."""
    marker = os.path.join(params["log_dir"], params["name"])
    with open(marker, "a") as fh:
        fh.write("x\n")
    time.sleep(0.4)
    return {"name": params["name"], "seed": seed * 3}


class TestDrain:
    def test_sigint_drains_persists_and_resumes_byte_identical(self, tmp_path):
        cache_root = tmp_path / "cache"
        log = tmp_path / "log"
        log.mkdir()
        script = tmp_path / "drain.py"
        script.write_text(_DRAIN_SCRIPT)
        env = dict(os.environ)
        repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(repo, "src"), repo,
                        env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, str(script), str(cache_root), str(log), "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        assert proc.stdout.readline().strip() == "ready"
        # Wait until at least one point has completed (two in flight).
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and len(os.listdir(log)) < 3:
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 130, stderr

        reason, done, total = _drain_line(stderr)
        assert reason == "SIGINT" and total == 8
        assert 0 < done < 8
        assert not (cache_root / "manifests").exists()

        # Resume in-process: exactly the k completed points are cache
        # hits, the rest execute, and the full result set matches a
        # clean serial run.
        cache = SweepCache(root=str(cache_root))
        resumed = run_sweep(_drainable_spec(log), workers=2, cache=cache)
        assert resumed.ok and len(resumed.results) == 8
        assert resumed.cache_stats.hits == done  # zero points lost
        assert sum(pr.cached for pr in resumed.results) == done
        assert [pr.value for pr in resumed.results] == [
            {"name": f"p{i}", "seed": (100 + i) * 3} for i in range(8)
        ]

    def test_sigterm_drains_serial_run(self, tmp_path):
        # The workers=1 path has no supervisor to own signals; its own
        # SIGTERM hook must still drain with its drain line — this is
        # the path plain serial CLI sweeps take.
        cache_root = tmp_path / "cache"
        log = tmp_path / "log"
        log.mkdir()
        script = tmp_path / "drain.py"
        script.write_text(_DRAIN_SCRIPT)
        env = dict(os.environ)
        repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(repo, "src"), repo,
                        env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, str(script), str(cache_root), str(log), "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        assert proc.stdout.readline().strip() == "ready"
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and len(os.listdir(log)) < 2:
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 130, stderr

        reason, done, total = _drain_line(stderr)
        assert reason == "SIGTERM" and total == 8
        assert 0 < done < 8
        assert not (cache_root / "manifests").exists()

        # Exactly the k points the drain line counts are cache hits.
        cache = SweepCache(root=str(cache_root))
        resumed = run_sweep(_drainable_spec(log), workers=1, cache=cache)
        assert resumed.ok
        assert resumed.cache_stats.hits == done
        assert [pr.cached for pr in resumed.results] == (
            [True] * done + [False] * (8 - done)
        )

    def test_serial_interrupt_drains_with_its_count(self, tmp_path):
        cache = SweepCache(root=str(tmp_path / "cache"))
        log = tmp_path / "log"
        log.mkdir()
        spec = SweepSpec(
            name="serial-drain",
            task=slow_logging_point,
            points=tuple(
                SweepPoint(key=f"p{i}",
                           params={"name": f"p{i}", "log_dir": str(log)},
                           seed=i)
                for i in range(4)
            ),
        )

        def kill_after_two(done, total, pr):
            if done == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt) as drained:
            run_sweep(spec, workers=1, cache=cache, progress=kill_after_two)
        assert _drain_line(str(drained.value)) == ("interrupt", 2, 4)
        assert not os.path.exists(os.path.join(cache.root, "manifests"))

        resumed = run_sweep(spec, workers=1, cache=cache)
        assert resumed.ok
        assert [pr.cached for pr in resumed.results] == [True, True, False, False]

    def test_drain_line_counts_only_successful_points(self, tmp_path):
        # The first point fails; the sweep is cancelled once two points
        # have landed, so one point completed, and "persisted" is said
        # only when a cache is attached.
        def cancelled_sweep(cache):
            cancel = threading.Event()

            def cancel_after_two(done, total, pr):
                if done == 2:
                    cancel.set()

            spec = _spec(failing_first_point, n=4)
            with pytest.raises(KeyboardInterrupt) as drained:
                run_sweep(spec, workers=1, cache=cache,
                          progress=cancel_after_two, cancel=cancel)
            return str(drained.value)

        cache = SweepCache(root=str(tmp_path / "cache"))
        assert cancelled_sweep(cache).endswith(
            "drained on cancelled: 1/4 points completed and persisted"
        )
        assert len(list(cache.entries())) == 1
        assert cancelled_sweep(None).endswith(
            "drained on cancelled: 1/4 points completed"
        )


class TestHealthSidecar:
    def test_health_export_is_sidecar_only(self):
        sweep = run_sweep(_spec(flaky_point, n=2, succeed_on=2), workers=1,
                          supervise=FAST)
        assert sweep.runner_health.retries == 2
        assert sweep.runner_health.quarantined == 0
        # ...but the merged per-point export never carries health.
        from repro.parallel import merge_metrics_documents

        from repro.parallel import tasks

        obs_sweep = run_sweep(
            SweepSpec(
                name="obs",
                task=tasks.fig7_config,
                points=(SweepPoint(key="mmem", params={"config": "mmem"},
                                   seed=1),),
            ),
            workers=1, supervise=FAST,
        )
        merged = merge_metrics_documents(
            [(pr.key, pr.value["metrics"]) for pr in obs_sweep.results]
        )
        merged_names = {m["name"] for m in merged["metrics"]}
        assert not any(n.startswith("sweep_runner_") for n in merged_names)

    def test_health_any_and_summary(self):
        health = RunnerHealth()
        assert not health.any
        health.retries = 1
        assert health.any
        assert "1 retries" in health.summary()

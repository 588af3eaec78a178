"""Chaos harness: injected faults never change what a sweep computes."""

import pytest

from repro.cache import SweepCache
from repro.errors import ConfigurationError
from repro.faults.retry import RetryPolicy
from repro.parallel import SweepPoint, SweepSpec, SupervisorConfig, run_sweep, tasks
from repro.parallel.chaos import (
    ChaosPlan,
    chaos_task,
    chaos_wrap,
    corrupt_cache_entries,
)

#: Millisecond backoff + generous retry budget: every chaos fault is
#: recoverable, so the sweep must converge.
RETRYING = SupervisorConfig(
    max_attempts=6,
    backoff=RetryPolicy(
        max_attempts=6, base_backoff_ns=1e6, multiplier=2.0, max_backoff_ns=1e7
    ),
)


def _demo_spec(n=6, name="demo"):
    return SweepSpec(
        name=name,
        task=tasks.demo_point,
        points=tuple(
            SweepPoint(key=f"p{i}", params={"draws": 32}, seed=100 + i)
            for i in range(n)
        ),
    )


class TestChaosPlan:
    def test_roll_is_deterministic(self):
        plan = ChaosPlan(seed=1, transient_prob=0.5)
        assert plan.roll("p0", 1, "kill") == plan.roll("p0", 1, "kill")
        assert plan.roll("p0", 1, "kill") != plan.roll("p0", 2, "kill")
        assert plan.roll("p0", 1, "kill") != plan.roll("p1", 1, "kill")
        assert plan.roll("p0", 1, "kill") != plan.roll("p0", 1, "hang")
        assert 0.0 <= plan.roll("p0", 1, "kill") < 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosPlan(kill_prob=1.5)
        with pytest.raises(ConfigurationError):
            ChaosPlan(hang_s=-1)
        with pytest.raises(ConfigurationError):
            ChaosPlan(max_faulty_attempts=-1)

    @pytest.mark.parametrize("hang_s", [float("nan"), float("inf")])
    def test_non_finite_hang_rejected(self, hang_s):
        # A serve job's chaos block reaches here; time.sleep raises on
        # both, so the point would fail instead of hanging.
        with pytest.raises(ConfigurationError, match="hang_s"):
            ChaosPlan(hang_s=hang_s)

    def test_as_dict_roundtrips(self):
        plan = ChaosPlan(seed=3, transient_prob=0.4)
        assert ChaosPlan(**plan.as_dict()) == plan


class TestChaosWrap:
    def test_wrapped_spec_preserves_keys_and_seeds(self):
        spec = _demo_spec()
        wrapped = chaos_wrap(spec, ChaosPlan())
        assert wrapped.name == "demo+chaos"
        assert wrapped.task is chaos_task
        assert [p.key for p in wrapped.points] == [p.key for p in spec.points]
        assert [p.seed for p in wrapped.points] == [p.seed for p in spec.points]
        assert wrapped.points[0].params["_task"] == (
            "repro.parallel.tasks:demo_point"
        )

    def test_zero_probability_chaos_is_identity(self):
        spec = _demo_spec(n=3)
        clean = run_sweep(spec, workers=1)
        chaotic = run_sweep(chaos_wrap(spec, ChaosPlan()), workers=1)
        assert [pr.value for pr in chaotic.results] == [
            pr.value for pr in clean.results
        ]

    def test_transient_chaos_serial_still_converges(self):
        spec = _demo_spec()
        plan = ChaosPlan(transient_prob=0.6, max_faulty_attempts=2)
        clean = run_sweep(spec, workers=1)
        chaotic = run_sweep(chaos_wrap(spec, plan), workers=1,
                            supervise=RETRYING)
        assert chaotic.ok
        assert [pr.value for pr in chaotic.results] == [
            pr.value for pr in clean.results
        ]
        # With prob 0.6 over 6 points, some attempt must have failed;
        # otherwise this test exercises nothing.
        assert chaotic.runner_health.retries > 0

    def test_full_chaos_parallel_byte_identical_to_clean_serial(self):
        spec = _demo_spec(n=8)
        plan = ChaosPlan(
            kill_prob=0.25, transient_prob=0.4, max_faulty_attempts=2
        )
        clean = run_sweep(spec, workers=1)
        chaotic = run_sweep(chaos_wrap(spec, plan), workers=2,
                            supervise=RETRYING)
        assert chaotic.ok, [str(f.error) for f in chaotic.failures()]
        assert [pr.value for pr in chaotic.results] == [
            pr.value for pr in clean.results
        ]
        assert chaotic.runner_health.any


class TestChaosCli:
    def test_bad_probability_is_oneline_error(self, capsys):
        from repro.parallel.chaos import main

        assert main(["fig5", "--kill-prob", "1.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_hang_without_deadline_rejected(self, capsys):
        from repro.parallel.chaos import main

        # hang_s defaults to an hour and heartbeats keep flowing during
        # a sleep, so an undeadlined hang would stall the whole sweep.
        assert main(["fig5", "--hang-prob", "0.1"]) == 2
        assert "--point-timeout" in capsys.readouterr().err

    def test_unknown_target_rejected(self, capsys):
        from repro.parallel.chaos import main

        assert main(["fig99"]) == 2
        assert "unknown sweep target" in capsys.readouterr().err


class TestCacheCorruption:
    def test_corrupted_entries_demote_to_miss_and_recompute(self, tmp_path):
        cache = SweepCache(root=str(tmp_path))
        spec = _demo_spec(n=4, name="corruptible")
        cold = run_sweep(spec, workers=1, cache=cache)
        assert cold.cache_stats.stores == 4

        damaged = corrupt_cache_entries(cache, fraction=1.0)
        assert damaged == 4

        warm = run_sweep(spec, workers=1, cache=cache)
        assert warm.ok
        assert warm.cache_stats.hits == 0
        assert warm.cache_stats.misses == 4  # every bad entry re-executed
        assert [pr.value for pr in warm.results] == [
            pr.value for pr in cold.results
        ]

    def test_fraction_selects_deterministic_subset(self, tmp_path):
        cache = SweepCache(root=str(tmp_path))
        run_sweep(_demo_spec(n=6, name="partial"), workers=1, cache=cache)
        damaged = corrupt_cache_entries(cache, fraction=0.5, seed=1)
        assert damaged == 3
        # Same seed, same subset: nothing new left to damage after a
        # repair-free second pass over the already-corrupted store.
        assert corrupt_cache_entries(cache, fraction=0.5, seed=1) == damaged

    def test_bad_fraction_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            corrupt_cache_entries(SweepCache(root=str(tmp_path)), fraction=2.0)

"""Tests for the LLM serving model (units + §5.2/Fig. 10 shape checks)."""

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.units import GIB
from repro.workloads.llm_trace import ChatRequest, chat_trace
from repro.apps.llm import (
    LLM_CONFIGS,
    BackendSpec,
    CpuBackend,
    KvCache,
    LlmRouter,
    LlmServingExperiment,
    alpaca_7b,
)


class TestModelSpec:
    def test_alpaca_7b_preset(self):
        model = alpaca_7b()
        # §5.1: "the Alpaca 7B model ... requiring 4.1 GB of memory".
        assert model.weight_bytes == pytest.approx(4.1 * GIB, rel=0.001)
        assert model.n_parameters == 7_000_000_000
        # fp16 KV per token: 2 x 32 layers x 4096 x 2 B = 512 KiB.
        assert model.kv_bytes_per_token == 512 * 1024

    def test_kv_cache_bytes(self):
        model = alpaca_7b()
        assert model.kv_cache_bytes(0) == 0
        assert model.kv_cache_bytes(100) == 100 * model.kv_bytes_per_token
        with pytest.raises(ConfigurationError):
            model.kv_cache_bytes(-1)


class TestKvCache:
    def test_admit_and_grow(self):
        cache = KvCache(alpaca_7b(), capacity_bytes=GIB)
        cache.admit(0, prompt_tokens=100)
        assert cache.tokens_of(0) == 100
        cache.append_token(0)
        assert cache.tokens_of(0) == 101
        assert cache.total_bytes == alpaca_7b().kv_cache_bytes(101)

    def test_capacity_enforced(self):
        model = alpaca_7b()
        cache = KvCache(model, capacity_bytes=model.kv_bytes_per_token * 10)
        cache.admit(0, prompt_tokens=10)
        with pytest.raises(CapacityError):
            cache.append_token(0)
        with pytest.raises(CapacityError):
            cache.admit(1, prompt_tokens=5)

    def test_release_frees(self):
        model = alpaca_7b()
        cache = KvCache(model, capacity_bytes=model.kv_bytes_per_token * 10)
        cache.admit(0, prompt_tokens=10)
        cache.release(0)
        assert cache.total_bytes == 0
        cache.admit(1, prompt_tokens=10)  # fits again

    def test_append_requires_admission(self):
        cache = KvCache(alpaca_7b(), capacity_bytes=GIB)
        with pytest.raises(CapacityError):
            cache.append_token(7)

    def test_sequences_isolated(self):
        """'Different requests typically do not share the KV cache'."""
        cache = KvCache(alpaca_7b(), capacity_bytes=GIB)
        cache.admit(0, 50)
        cache.admit(1, 30)
        assert cache.tokens_of(0) == 50
        assert cache.tokens_of(1) == 30
        assert cache.sequences == 2


class TestBackend:
    def test_offered_bandwidth_plateau(self):
        spec = BackendSpec()
        assert BackendSpec(threads=12).offered_bandwidth == pytest.approx(12.6e9)
        assert BackendSpec(threads=48).offered_bandwidth == spec.stream_cap

    def test_token_time_monotone_in_latency(self):
        backend = CpuBackend()
        fast = backend.token_time_ns(12.6e9, loaded_latency_ns=97.0)
        slow = backend.token_time_ns(12.6e9, loaded_latency_ns=500.0)
        assert slow > fast

    def test_token_time_monotone_in_kv(self):
        backend = CpuBackend()
        short = backend.token_time_ns(12.6e9, 97.0, kv_bytes=0)
        long = backend.token_time_ns(12.6e9, 97.0, kv_bytes=GIB)
        assert long > short

    def test_validation(self):
        backend = CpuBackend()
        with pytest.raises(ConfigurationError):
            backend.token_time_ns(0.0, 97.0)
        with pytest.raises(ConfigurationError):
            backend.token_time_ns(1e9, 97.0, kv_bytes=-1)
        with pytest.raises(ConfigurationError):
            BackendSpec(threads=0)


class TestFig10aShape:
    @pytest.fixture(scope="class")
    def sweeps(self):
        return {
            config: {p.threads: p for p in LlmServingExperiment(config).sweep()}
            for config in LLM_CONFIGS
        }

    def test_linear_scaling_below_saturation(self, sweeps):
        """§5.2: 'the serving rate improves almost linearly' at first."""
        mmem = sweeps["mmem"]
        r12, r36 = mmem[12].tokens_per_second, mmem[36].tokens_per_second
        assert r36 / r12 == pytest.approx(3.0, abs=0.15)

    def test_mmem_saturates_at_48_threads(self, sweeps):
        """§5.2: 'at 48 threads, MMEM bandwidth saturation limits the
        serving rate'."""
        mmem = sweeps["mmem"]
        gain_to_48 = mmem[48].tokens_per_second / mmem[36].tokens_per_second
        gain_past_48 = mmem[60].tokens_per_second / mmem[48].tokens_per_second
        assert gain_to_48 < 48 / 36  # sub-linear already
        assert gain_past_48 < 1.05  # flat or declining

    def test_3_1_beats_mmem_by_95_percent_at_60_threads(self, sweeps):
        gain = (
            sweeps["3:1"][60].tokens_per_second
            / sweeps["mmem"][60].tokens_per_second
        )
        assert gain == pytest.approx(1.95, abs=0.25)

    def test_interleaving_scales_past_mmem_saturation(self, sweeps):
        for config in ("3:1", "1:1"):
            s = sweeps[config]
            assert s[72].tokens_per_second > s[48].tokens_per_second

    def test_mmem_heavy_interleave_is_best_at_60(self, sweeps):
        """§5.2: 'configurations with a higher proportion of data in main
        memory demonstrate superior inference performance'."""
        at60 = {c: sweeps[c][60].tokens_per_second for c in LLM_CONFIGS}
        assert at60["3:1"] > at60["1:1"] > at60["1:3"]

    def test_mmem_only_loses_to_1_3_beyond_64_threads(self, sweeps):
        """§5.2: MMEM-only is ~14 % below 1:3 beyond 64 threads."""
        deficit = (
            sweeps["1:3"][72].tokens_per_second
            / sweeps["mmem"][72].tokens_per_second
            - 1.0
        )
        assert 0.05 <= deficit <= 0.30

    def test_utilizations_reported(self, sweeps):
        point = sweeps["1:1"][60]
        assert 0 < point.dram_utilization <= 1
        assert 0 < point.cxl_utilization <= 1


class TestFig10bAnd10c:
    @pytest.fixture(scope="class")
    def experiment(self):
        return LlmServingExperiment("mmem")

    def test_fig10b_linear_then_plateau(self, experiment):
        """§5.2: 'bandwidth utilization grows linearly with thread count,
        plateauing at 24.2 GB/s for 24 threads'."""
        assert experiment.fig10b_bandwidth_gbps(12) == pytest.approx(12.6, abs=0.5)
        assert experiment.fig10b_bandwidth_gbps(24) == pytest.approx(24.2, abs=0.5)
        assert experiment.fig10b_bandwidth_gbps(32) == pytest.approx(24.2, abs=0.5)

    def test_fig10b_validation(self, experiment):
        with pytest.raises(ConfigurationError):
            experiment.fig10b_bandwidth_gbps(0)

    def test_fig10c_model_load_floor(self, experiment):
        """§5.2: '~12 GB/s originates from I/O threads loading the model'."""
        assert experiment.fig10c_bandwidth_gbps(0) == pytest.approx(12.0, abs=2.0)

    def test_fig10c_plateau_near_21(self, experiment):
        """§5.2: 'bandwidth utilization stops increasing beyond ~21 GB/s'."""
        big = experiment.fig10c_bandwidth_gbps(32 * GIB)
        assert big == pytest.approx(21.0, abs=1.5)

    def test_fig10c_monotone(self, experiment):
        values = [
            experiment.fig10c_bandwidth_gbps(i * GIB) for i in (0, 1, 2, 4, 8)
        ]
        assert values == sorted(values)


class TestRouter:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LlmRouter(LlmServingExperiment("mmem"), backends=0)
        with pytest.raises(ConfigurationError):
            LlmServingExperiment("5:5:5")

    def test_serves_all_requests(self):
        router = LlmRouter(LlmServingExperiment("3:1"), backends=2)
        rng = np.random.default_rng(11)
        requests = list(chat_trace(rng, 8, mean_new_tokens=16))
        result = router.serve(requests)
        assert result.requests_completed == 8
        assert result.tokens_generated == sum(r.max_new_tokens for r in requests)
        assert result.tokens_per_second > 0

    def test_least_loaded_distribution(self):
        router = LlmRouter(LlmServingExperiment("mmem"), backends=4)
        # With equal load the picker cycles through all backends.
        picks = set()
        for _ in range(4):
            idx = router._pick_backend()
            picks.add(idx)
            router.active_sequences[idx] += 1
        assert picks == {0, 1, 2, 3}

    def test_longer_requests_take_longer(self):
        exp = LlmServingExperiment("mmem")
        short = LlmRouter(exp, backends=1).serve([ChatRequest(64, 8)])
        long = LlmRouter(exp, backends=1).serve([ChatRequest(64, 64)])
        assert long.elapsed_ns > short.elapsed_ns

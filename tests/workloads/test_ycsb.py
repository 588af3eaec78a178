"""Tests for the YCSB generator."""

from functools import lru_cache

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.units import KIB
from repro.workloads import WORKLOADS, OpType, YcsbGenerator, YcsbSpec


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestSpecs:
    def test_paper_workloads_registered(self):
        assert set(WORKLOADS) == {"A", "B", "C", "D"}

    def test_workload_a_mix(self):
        spec = WORKLOADS["A"]
        assert spec.read_fraction == 0.5
        assert spec.update_fraction == 0.5
        assert spec.write_fraction == 0.5
        assert spec.distribution == "zipfian"

    def test_workload_c_read_only(self):
        assert WORKLOADS["C"].write_fraction == 0.0

    def test_workload_d_latest_inserts(self):
        spec = WORKLOADS["D"]
        assert spec.insert_fraction == 0.05
        assert spec.distribution == "latest"

    def test_default_value_size_is_1kb(self):
        assert WORKLOADS["A"].value_size == KIB

    def test_mix_must_sum_to_one(self):
        with pytest.raises(WorkloadError):
            YcsbSpec("bad", read_fraction=0.5, update_fraction=0.2)

    def test_unknown_distribution(self):
        with pytest.raises(WorkloadError):
            YcsbSpec("bad", read_fraction=1.0, distribution="gaussian")

    def test_bad_value_size(self):
        with pytest.raises(WorkloadError):
            YcsbSpec("bad", read_fraction=1.0, value_size=0)


class TestGenerator:
    def test_record_count_validation(self, rng):
        with pytest.raises(WorkloadError):
            YcsbGenerator(WORKLOADS["A"], 0, rng)

    def test_mix_fractions_observed(self, rng):
        gen = YcsbGenerator(WORKLOADS["A"], 10_000, rng)
        ops = list(gen.operations(10_000))
        reads = sum(1 for o in ops if o.op is OpType.READ)
        assert reads / len(ops) == pytest.approx(0.5, abs=0.03)

    def test_workload_c_all_reads(self, rng):
        gen = YcsbGenerator(WORKLOADS["C"], 1000, rng)
        assert all(o.op is OpType.READ for o in gen.operations(2000))

    def test_inserts_extend_key_space(self, rng):
        gen = YcsbGenerator(WORKLOADS["D"], 1000, rng)
        inserted = [o for o in gen.operations(5000) if o.op is OpType.INSERT]
        assert inserted, "workload D must produce inserts"
        assert gen.record_count == 1000 + len(inserted)
        # Inserted keys are fresh and sequential.
        keys = [o.key for o in inserted]
        assert keys == sorted(keys)
        assert keys[0] == 1000

    def test_is_write_predicate(self):
        from repro.workloads.ycsb import Operation

        assert not Operation(OpType.READ, 1).is_write
        assert Operation(OpType.UPDATE, 1).is_write
        assert Operation(OpType.INSERT, 1).is_write

    def test_deterministic_with_seed(self):
        a = YcsbGenerator(WORKLOADS["A"], 1000, np.random.default_rng(3))
        b = YcsbGenerator(WORKLOADS["A"], 1000, np.random.default_rng(3))
        ops_a = [(o.op, o.key) for o in a.operations(500)]
        ops_b = [(o.op, o.key) for o in b.operations(500)]
        assert ops_a == ops_b

    def test_zipfian_hot_set_small(self, rng):
        """The Zipfian working set property Hot-Promote relies on (§4.1.2):
        a small fraction of keys receives the majority of accesses."""
        gen = YcsbGenerator(WORKLOADS["C"], 50_000, rng)
        keys = [o.key for o in gen.operations(30_000)]
        values, counts = np.unique(keys, return_counts=True)
        counts.sort()
        top_10pct = counts[-len(counts) // 10 :].sum()
        assert top_10pct / counts.sum() > 0.5


# -- block draws reproduce the per-op stream ---------------------------------

THETA = 0.99


@lru_cache(maxsize=None)
def _reference_zeta(n):
    total = 0.0
    for i in range(1, min(n, 10_000) + 1):
        total += 1.0 / i**THETA
    if n <= 10_000:
        return total
    s = 1.0 - THETA
    return total + (n**s - 10_000**s) / s


def _reference_rank(n, u):
    zetan = _reference_zeta(n)
    eta = (1.0 - (2.0 / n) ** (1.0 - THETA)) / (1.0 - _reference_zeta(2) / zetan)
    uz = u * zetan
    if uz < 1.0:
        return 0
    if uz < 1.0 + 0.5**THETA:
        return 1
    return min(int(n * (eta * u - eta + 1.0) ** (1.0 / (1.0 - THETA))), n - 1)


def _reference_fnv(value):
    h = 0xCBF29CE484222325
    for _ in range(8):
        h = ((h ^ (value & 0xFF)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        value >>= 8
    return h


def _reference_key(distribution, n, u):
    if distribution == "zipfian":
        return _reference_fnv(_reference_rank(n, u)) % n
    if distribution == "latest":
        return n - 1 - _reference_rank(n, u)
    return min(int(u * n), n - 1)


def _reference_stream(spec, record_count, rng, count):
    """One op at a time: a variate picks the type, a read or update's key
    takes the next one, and an insert appends key ``n`` to the space."""
    n = record_count
    ops = []
    for _ in range(count):
        r = rng.random()
        if r < spec.read_fraction:
            ops.append((OpType.READ, _reference_key(spec.distribution, n, rng.random())))
        elif r < spec.read_fraction + spec.update_fraction:
            ops.append((OpType.UPDATE, _reference_key(spec.distribution, n, rng.random())))
        else:
            ops.append((OpType.INSERT, n))
            n += 1
    return ops, n


MIXED = YcsbSpec(
    "mixed", read_fraction=0.6, update_fraction=0.2, insert_fraction=0.2,
    distribution="zipfian",
)
UNIFORM = YcsbSpec("uniform", read_fraction=0.9, insert_fraction=0.1, distribution="uniform")


class TestBlockDraws:
    @pytest.mark.parametrize("seed", [0, 7, 0xC0FFEE])
    @pytest.mark.parametrize(
        "spec", [*WORKLOADS.values(), MIXED, UNIFORM], ids=lambda s: s.name
    )
    def test_matches_per_op_reference(self, spec, seed):
        # 6000 ops span several blocks, so odd-length insert runs leave a
        # read's key variate to the next block at some boundaries.
        expected, grown = _reference_stream(spec, 1000, np.random.default_rng(seed), 6000)
        gen = YcsbGenerator(spec, 1000, np.random.default_rng(seed))
        assert [tuple(o) for o in gen.operations(6000)] == expected
        assert gen.record_count == grown

    def test_exact_zeta_boundary_crossed_by_inserts(self):
        spec = WORKLOADS["D"]
        expected, grown = _reference_stream(spec, 9_950, np.random.default_rng(5), 3000)
        gen = YcsbGenerator(spec, 9_950, np.random.default_rng(5))
        assert [tuple(o) for o in gen.operations(3000)] == expected
        assert grown > 10_000

    def test_record_count_tracks_ops_handed_out(self, rng):
        gen = YcsbGenerator(WORKLOADS["D"], 100, rng)
        for _ in range(3000):
            op = gen.next_operation()
            if op.op is OpType.INSERT:
                assert gen.record_count == op.key + 1


def _as_ops(keys, is_write):
    return list(zip(keys.tolist(), is_write.tolist()))


def _per_op(gen, count):
    return [(op.key, op.is_write) for op in gen.operations(count)]


class TestNextBatch:
    @pytest.mark.parametrize("workload", "ABCD")
    def test_matches_next_operation_across_blocks(self, workload):
        # 5000 ops span several 2048-variate blocks for every workload.
        spec = WORKLOADS[workload]
        batched = YcsbGenerator(spec, 1000, np.random.default_rng(3))
        looped = YcsbGenerator(spec, 1000, np.random.default_rng(3))
        ops = []
        for count in (1, 999, 2000, 2000):
            keys, is_write = batched.next_batch(count)
            assert keys.dtype == np.int64 and is_write.dtype == bool
            ops += _as_ops(keys, is_write)
        assert ops == _per_op(looped, 5000)
        assert batched.record_count == looped.record_count

    def test_workload_d_inserts_extend_the_space(self):
        gen = YcsbGenerator(WORKLOADS["D"], 500, np.random.default_rng(11))
        ref = YcsbGenerator(WORKLOADS["D"], 500, np.random.default_rng(11))
        keys, is_write = gen.next_batch(4000)
        expected = list(ref.operations(4000))
        assert _as_ops(keys, is_write) == [(o.key, o.is_write) for o in expected]
        inserted = [o.key for o in expected if o.op is OpType.INSERT]
        assert inserted == list(range(500, 500 + len(inserted)))
        assert gen.record_count == 500 + len(inserted)

    @pytest.mark.parametrize("workload", ["A", "D"])
    def test_interleaves_with_next_operation(self, workload):
        spec = WORKLOADS[workload]
        mixed = YcsbGenerator(spec, 800, np.random.default_rng(5))
        looped = YcsbGenerator(spec, 800, np.random.default_rng(5))
        ops = []
        for step, count in enumerate((700, 333, 1500, 1, 2100, 1024, 17)):
            if step % 2:
                ops += _per_op(mixed, count)
            else:
                ops += _as_ops(*mixed.next_batch(count))
        assert ops == _per_op(looped, len(ops))
        assert mixed.record_count == looped.record_count

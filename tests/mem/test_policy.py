"""Tests for mempolicies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, PolicyError
from repro.hw import paper_cxl_platform
from repro.mem import AddressSpace, MemoryInventory, numactl
from repro.mem.policy import (
    BindPolicy,
    InterleavePolicy,
    WeightedInterleavePolicy,
)

PAGE = 4096


def free(**kwargs):
    """free(n0=..., n1=...) -> {0: ..., 1: ...}"""
    return {int(k[1:]): v for k, v in kwargs.items()}


class TestBindPolicy:
    def test_requires_nodes(self):
        with pytest.raises(PolicyError):
            BindPolicy([])

    def test_fills_in_order(self):
        p = BindPolicy([0, 1])
        assert p.place(free(n0=PAGE * 2, n1=PAGE * 2), PAGE) == 0
        assert p.place(free(n0=PAGE, n1=PAGE * 2), PAGE) == 0
        assert p.place(free(n0=0, n1=PAGE * 2), PAGE) == 1

    def test_raises_when_full(self):
        p = BindPolicy([0])
        with pytest.raises(AllocationError):
            p.place(free(n0=PAGE - 1), PAGE)

    def test_ignores_unbound_nodes(self):
        p = BindPolicy([1])
        with pytest.raises(AllocationError):
            p.place(free(n0=PAGE * 100, n1=0), PAGE)


class TestInterleavePolicy:
    def test_requires_nodes(self):
        with pytest.raises(PolicyError):
            InterleavePolicy([])

    def test_round_robin(self):
        p = InterleavePolicy([0, 1])
        f = free(n0=PAGE * 10, n1=PAGE * 10)
        placements = [p.place(f, PAGE) for _ in range(6)]
        assert placements == [0, 1, 0, 1, 0, 1]

    def test_skips_full_node(self):
        p = InterleavePolicy([0, 1])
        f = free(n0=0, n1=PAGE * 10)
        assert [p.place(f, PAGE) for _ in range(3)] == [1, 1, 1]

    def test_raises_when_all_full(self):
        p = InterleavePolicy([0, 1])
        with pytest.raises(AllocationError):
            p.place(free(n0=0, n1=0), PAGE)


class TestWeightedInterleavePolicy:
    def test_validation(self):
        with pytest.raises(PolicyError):
            WeightedInterleavePolicy({})
        with pytest.raises(PolicyError):
            WeightedInterleavePolicy({0: 0})
        with pytest.raises(PolicyError):
            WeightedInterleavePolicy({0: 1.5})

    def test_from_ratio_validation(self):
        with pytest.raises(PolicyError):
            WeightedInterleavePolicy.from_ratio([0], [1], 0, 1)
        with pytest.raises(PolicyError):
            WeightedInterleavePolicy.from_ratio([], [1], 1, 1)

    def test_3_1_ratio_gives_75_25_split(self):
        """The paper's 3:1 configuration directs 75 % of pages to MMEM."""
        p = WeightedInterleavePolicy.from_ratio([0], [1], 3, 1)
        f = free(n0=PAGE * 10_000, n1=PAGE * 10_000)
        placements = [p.place(f, PAGE) for _ in range(400)]
        assert placements.count(0) == 300
        assert placements.count(1) == 100

    def test_smooth_distribution_not_bursty(self):
        """Smooth WRR interleaves 'A A A B' rather than 'A*300 B*100'."""
        p = WeightedInterleavePolicy.from_ratio([0], [1], 3, 1)
        f = free(n0=PAGE * 1000, n1=PAGE * 1000)
        window = [p.place(f, PAGE) for _ in range(8)]
        assert window.count(1) == 2  # one CXL page per 4, in each half

    def test_fraction(self):
        p = WeightedInterleavePolicy.from_ratio([0], [1], 1, 3)
        assert p.fraction(0) == pytest.approx(0.25)
        assert p.fraction(1) == pytest.approx(0.75)
        with pytest.raises(PolicyError):
            p.fraction(9)

    def test_multiple_nodes_per_tier(self):
        """3:1 over two DRAM nodes and two CXL nodes: each DRAM node gets
        37.5 %, each CXL node 12.5 %."""
        p = WeightedInterleavePolicy.from_ratio([0, 1], [2, 3], 3, 1)
        f = free(n0=PAGE * 10000, n1=PAGE * 10000, n2=PAGE * 10000, n3=PAGE * 10000)
        placements = [p.place(f, PAGE) for _ in range(1600)]
        assert placements.count(0) == placements.count(1) == 600
        assert placements.count(2) == placements.count(3) == 200

    def test_overflow_to_other_nodes_when_full(self):
        p = WeightedInterleavePolicy.from_ratio([0], [1], 3, 1)
        f = free(n0=0, n1=PAGE * 100)
        assert all(p.place(f, PAGE) == 1 for _ in range(10))

    def test_raises_when_all_full(self):
        p = WeightedInterleavePolicy({0: 1, 1: 1})
        with pytest.raises(AllocationError):
            p.place(free(n0=0, n1=0), PAGE)

    def test_placement_sequence_matches_max_reference(self):
        """The winner is the highest current weight, lowest node id on a
        tie: the sequence ``max(key=(current, -node))`` picks."""
        weights = {3: 2, 0: 3, 5: 2, 1: 1}
        p = WeightedInterleavePolicy(weights)
        current = dict.fromkeys(weights, 0)
        f = free(n0=PAGE * 40, n1=PAGE * 5, n3=PAGE * 1000, n5=PAGE * 1000)
        for _ in range(300):
            for node in current:
                current[node] += weights[node]
            eligible = [n for n in current if f.get(n, 0) >= PAGE]
            expected = max(eligible, key=lambda n: (current[n], -n))
            current[expected] -= sum(weights.values())
            assert p.place(f, PAGE) == expected
            f[expected] -= PAGE  # nodes 1 and 0 fill up along the way

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    def test_ratio_property(self, n, m):
        """For any N:M, the share of pages on the top tier is N/(N+M)."""
        p = WeightedInterleavePolicy.from_ratio([0], [1], n, m)
        f = free(n0=PAGE * 100_000, n1=PAGE * 100_000)
        rounds = (n + m) * 20
        placements = [p.place(f, PAGE) for _ in range(rounds)]
        assert placements.count(0) / rounds == pytest.approx(n / (n + m))


def _per_page(policy, free_bytes, page_size, count):
    """The reference: ``count`` calls of ``place``, each page taken out."""
    nodes = []
    for _ in range(count):
        node = policy.place(free_bytes, page_size)
        free_bytes[node] -= page_size
        nodes.append(node)
    return nodes


def _batched(policy, free_bytes, page_size, count):
    return policy.place_many(free_bytes, page_size, count)


def _outcome(policy, placer, free_bytes, page_size, count):
    """What one arm leaves behind: nodes or error, free view, policy state."""
    try:
        result = placer(policy, free_bytes, page_size, count)
    except AllocationError as exc:
        result = ("AllocationError", str(exc))
    return result, free_bytes, vars(policy)


def _paper_policy(kind, order):
    """A policy over the paper platform's nodes (two DRAM, two CXL)."""
    if kind == "bind":
        return BindPolicy(order)
    if kind == "interleave":
        return InterleavePolicy(order)
    n, m = (int(x) for x in kind.split(":"))
    return numactl.tier_interleave(paper_cxl_platform(snc_enabled=False), n, m)


class TestPlaceMany:
    """``place_many`` equals the per-page ``place`` loop, state included."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["bind", "interleave", "3:1", "1:1", "1:3"]),
        order=st.permutations([0, 1, 2, 3]).flatmap(
            lambda nodes: st.integers(1, 4).map(lambda k: nodes[:k])
        ),
        room=st.lists(st.integers(0, 40), min_size=4, max_size=4),
        slack=st.integers(0, PAGE - 1),
        history=st.lists(st.sampled_from([0, 1, 2, 3, None]), max_size=12),
        count=st.integers(0, 120),
    )
    def test_equals_per_page_loop(self, kind, order, room, slack, history, count):
        arms = [_paper_policy(kind, order) for _ in range(2)]
        for policy in arms:
            # Move the policy off its fresh state, with some nodes full.
            for full in history:
                view = {node: PAGE for node in range(4) if node != full}
                try:
                    policy.place(view, PAGE)
                except AllocationError:
                    pass
        free_bytes = {node: pages * PAGE + slack for node, pages in enumerate(room)}
        batched = _outcome(arms[0], _batched, dict(free_bytes), PAGE, count)
        assert batched == _outcome(arms[1], _per_page, dict(free_bytes), PAGE, count)

    @pytest.mark.parametrize("kind", ["bind", "interleave", "3:1", "1:1", "1:3"])
    def test_large_batch_with_room_everywhere(self, kind):
        arms = [_paper_policy(kind, [1, 0, 3, 2]) for _ in range(2)]
        free_bytes = {node: 10_000 * PAGE for node in range(4)}
        batched = _outcome(arms[0], _batched, dict(free_bytes), PAGE, 9_999)
        assert batched == _outcome(arms[1], _per_page, dict(free_bytes), PAGE, 9_999)

    def test_batch_that_cannot_be_placed(self):
        platform = paper_cxl_platform(snc_enabled=False)
        cap = {0: 5 * PAGE, 1: 2 * PAGE, 2: 3 * PAGE, 3: 0}
        for kind in ("bind", "interleave", "3:1", "1:1", "1:3"):
            arms = [_paper_policy(kind, [0, 1, 2, 3]) for _ in range(2)]
            inventory = MemoryInventory(platform, capacity_override=cap)
            space = AddressSpace(inventory)
            with pytest.raises(AllocationError) as batched:
                space.allocate_pages(11, arms[0])
            with pytest.raises(AllocationError) as reference:
                _per_page(arms[1], inventory.free_bytes(), PAGE, 11)
            assert str(batched.value) == str(reference.value)
            assert [inventory.used(n) for n in range(4)] == [0, 0, 0, 0]
            assert space.pages == []
            assert vars(arms[0]) == vars(arms[1])
            # Ten pages fit: the space places them as the loop does.
            pages = space.allocate_pages(10, arms[0])
            nodes = _per_page(arms[1], dict(cap), PAGE, 10)
            assert [(p.page_id, p.node_id) for p in pages] == list(enumerate(nodes))
            assert [inventory.used(n) for n in range(4)] == [cap[n] for n in range(4)]
            assert vars(arms[0]) == vars(arms[1])

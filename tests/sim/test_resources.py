"""Tests for the oracle engine's Resource, and for RngFactory."""

import pytest

from repro.errors import SimulationError
from tests.sim.engine import Simulator
from tests.sim.resources import Resource


class TestResource:
    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), 0)

    def test_grant_when_available(self):
        sim = Simulator()
        res = Resource(sim, 2)
        ev = res.request()
        assert ev.triggered
        assert res.in_use == 1

    def test_queueing_and_fifo_handoff(self):
        sim = Simulator()
        res = Resource(sim, 1)
        order = []

        def worker(name, hold_ns):
            grant = res.request()
            yield grant
            order.append((sim.now, name, "start"))
            yield sim.timeout(hold_ns)
            res.release()
            order.append((sim.now, name, "end"))

        sim.process(worker("a", 10.0))
        sim.process(worker("b", 10.0))
        sim.process(worker("c", 10.0))
        sim.run()
        starts = [(t, n) for t, n, kind in order if kind == "start"]
        assert starts == [(0.0, "a"), (10.0, "b"), (20.0, "c")]
        assert res.in_use == 0

    def test_release_without_request_raises(self):
        sim = Simulator()
        res = Resource(sim, 1)
        with pytest.raises(SimulationError):
            res.release()

    def test_queue_length(self):
        sim = Simulator()
        res = Resource(sim, 1)
        grants = [res.request() for _ in range(3)]
        # One holds the slot; the other two queue without taking one.
        assert res.in_use == 1
        assert [g.triggered for g in grants] == [True, False, False]

class TestRngFactory:
    def test_same_seed_same_stream(self):
        from repro.sim import RngFactory

        a = RngFactory(seed=7).stream("ycsb")
        b = RngFactory(seed=7).stream("ycsb")
        assert list(a.integers(0, 100, 10)) == list(b.integers(0, 100, 10))

    def test_different_names_are_independent(self):
        from repro.sim import RngFactory

        f = RngFactory(seed=7)
        a = list(f.stream("a").integers(0, 1_000_000, 20))
        b = list(f.stream("b").integers(0, 1_000_000, 20))
        assert a != b

    def test_stream_is_cached(self):
        from repro.sim import RngFactory

        f = RngFactory(seed=7)
        assert f.stream("x") is f.stream("x")

    def test_fork_changes_streams(self):
        from repro.sim import RngFactory

        f = RngFactory(seed=7)
        g = f.fork(1)
        assert list(f.stream("x").integers(0, 1000, 10)) != list(
            g.stream("x").integers(0, 1000, 10)
        )

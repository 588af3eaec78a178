"""Tests for Resource and RngFactory."""

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Simulator


class TestResource:
    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), 0)

    def test_grant_when_available(self):
        sim = Simulator()
        res = Resource(sim, 2)
        ev = res.request()
        assert ev.triggered
        assert res.available == 1

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

    def test_release_without_request_raises(self):
        sim = Simulator()
        res = Resource(sim, 1)
        with pytest.raises(SimulationError):
            res.release()

    def test_queue_length(self):
        sim = Simulator()
        res = Resource(sim, 1)
        res.request()
        res.request()
        res.request()
        assert res.queue_length == 2

    def test_release_skips_failed_waiter(self):
        # Regression: a waiter shed while queued (its grant event failed
        # by a deadline shedder) must not swallow the released slot.
        sim = Simulator()
        res = Resource(sim, 1)
        res.request()  # holder
        shed = res.request()  # queued, then shed
        survivor = res.request()  # queued, still pending
        shed.fail(SimulationError("deadline shed"))
        res.release()
        assert survivor.triggered and not survivor.failed
        assert res.in_use == 1  # slot moved, not leaked

    def test_release_with_only_dead_waiters_frees_slot(self):
        sim = Simulator()
        res = Resource(sim, 2)
        res.request()
        res.request()
        dead_a = res.request()
        dead_b = res.request()
        dead_a.fail(SimulationError("shed"))
        dead_b.succeed()  # e.g. cancelled out-of-band
        res.release()
        # Queue held no live waiter, so the slot returns to the pool.
        assert res.available == 1
        assert res.queue_length == 0

    def test_shedding_interleaved_with_release(self):
        # End-to-end: shed processes interleaved with releases; every
        # pending waiter is eventually served and no slot leaks.
        sim = Simulator()
        res = Resource(sim, 1)
        served = []

        def holder():
            grant = res.request()
            yield grant
            yield sim.timeout(10.0)
            res.release()

        def doomed(name):
            grant = res.request()
            # Shed from outside before the slot frees.
            def shed():
                yield sim.timeout(5.0)
                if not grant.triggered:
                    grant.fail(SimulationError(f"{name} shed"))
            sim.process(shed())
            try:
                yield grant
            except SimulationError:
                return
            served.append(name)  # pragma: no cover - must not happen
            res.release()

        def patient(name, hold_ns):
            grant = res.request()
            yield grant
            served.append(name)
            yield sim.timeout(hold_ns)
            res.release()

        sim.process(holder())
        sim.process(doomed("d1"))
        sim.process(patient("p1", 10.0))
        sim.process(doomed("d2"))
        sim.process(patient("p2", 10.0))
        sim.run()
        assert served == ["p1", "p2"]
        assert res.in_use == 0
        assert res.available == 1


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


class TestWaiterCompaction:
    """Dead (externally failed) waiters must not accumulate in the queue."""

    def test_queue_stays_bounded_despite_dead_waiters(self):
        sim = Simulator()
        res = Resource(sim, 1)
        assert res.request().triggered  # take the only slot
        for _ in range(500):
            res.request().fail(RuntimeError("shed while queued"))
        # 500 dead waiters were enqueued; amortized compaction keeps the
        # deque bounded by the (empty) live demand, not the churn.
        assert len(res._waiters) <= 32
        sim.run()

    def test_live_waiters_survive_compaction_in_order(self):
        sim = Simulator()
        res = Resource(sim, 1)
        assert res.request().triggered
        live = []
        for i in range(60):
            ev = res.request()
            if i % 2:
                ev.fail(RuntimeError("shed"))
            else:
                live.append(ev)
        assert res.queue_length == len(live)
        for expected in live:
            res.release()
            assert expected.triggered and not expected.failed
        sim.run()

    def test_compaction_threshold_doubles_with_live_queue(self):
        sim = Simulator()
        res = Resource(sim, 1)
        assert res.request().triggered
        live = [res.request() for _ in range(40)]  # all live, none compact away
        assert res.queue_length == 40
        assert len(res._waiters) == 40
        for ev in live:
            res.release()
            assert ev.triggered
        sim.run()

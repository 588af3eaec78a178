"""Tests for the discrete-event engine the simulator's loops are checked against."""

import pytest

from repro.errors import SimulationError
from tests.sim.engine import Simulator


class TestClockAndEvents:
    def test_clock_starts_at_zero(self):
        sim = Simulator()
        assert sim.now == 0.0

    def test_timeout_fires_at_scheduled_time(self):
        sim = Simulator()
        fired = []
        ev = sim.timeout(100.0, value="x")
        ev.callbacks.append(lambda e: fired.append((sim.now, e.value)))
        sim.run()
        assert fired == [(100.0, "x")]

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        for delay in (30.0, 10.0, 20.0):
            sim.timeout(delay).callbacks.append(
                lambda e, d=delay: order.append(d)
            )
        sim.run()
        assert order == [10.0, 20.0, 30.0]

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.timeout(5.0).callbacks.append(lambda e, t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_event_cannot_trigger_twice(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_step_without_events_raises(self):
        with pytest.raises(SimulationError):
            Simulator().step()


class TestProcesses:
    def test_process_advances_through_timeouts(self):
        sim = Simulator()
        trace = []

        def proc():
            trace.append(sim.now)
            yield sim.timeout(10.0)
            trace.append(sim.now)
            yield sim.timeout(5.0)
            trace.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trace == [0.0, 10.0, 15.0]

    def test_process_receives_event_value(self):
        sim = Simulator()
        got = []

        def proc():
            value = yield sim.timeout(1.0, value="payload")
            got.append(value)

        sim.process(proc())
        sim.run()
        assert got == ["payload"]

    def test_process_return_value_becomes_event_value(self):
        sim = Simulator()

        def child():
            yield sim.timeout(3.0)
            return 99

        def parent(results):
            result = yield sim.process(child())
            results.append(result)

        results = []
        sim.process(parent(results))
        sim.run()
        assert results == [99]

    def test_process_waiting_on_pending_event(self):
        sim = Simulator()
        gate = sim.event()
        log = []

        def waiter():
            value = yield gate
            log.append((sim.now, value))

        def opener():
            yield sim.timeout(25.0)
            gate.succeed("open")

        sim.process(waiter())
        sim.process(opener())
        sim.run()
        assert log == [(25.0, "open")]

    def test_yielding_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_process_crash_propagates_when_unwatched(self):
        sim = Simulator()

        def crasher():
            yield sim.timeout(1.0)
            raise ValueError("unhandled")

        sim.process(crasher())
        with pytest.raises(ValueError):
            sim.run()

    def test_waiting_on_already_dispatched_event_resumes(self):
        sim = Simulator()
        done = sim.event()
        done.succeed("early")
        results = []

        def late_waiter():
            yield sim.timeout(10.0)
            value = yield done
            results.append((sim.now, value))

        sim.process(late_waiter())
        sim.run()
        assert results == [(10.0, "early")]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            sim = Simulator()
            trace = []

            def worker(name, period):
                for _ in range(5):
                    yield sim.timeout(period)
                    trace.append((sim.now, name))

            sim.process(worker("a", 3.0))
            sim.process(worker("b", 5.0))
            sim.run()
            return trace

        assert run_once() == run_once()

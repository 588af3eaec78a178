"""Regression tests for the engine's hot-path optimizations.

Pins the two structural guarantees the hot-path work introduced:

* every event class uses ``__slots__`` (no per-instance ``__dict__``) —
  a loaded sweep allocates tens of millions of events;
* combinators detach from losing children at resolution, so a
  long-lived event's callback list stays bounded no matter how many
  ``AnyOf``/``AllOf`` races it participates in.
"""

import pytest

from repro.sim.engine import AllOf, AnyOf, Event, Simulator, Timeout


class TestSlots:
    def test_event_classes_have_no_instance_dict(self):
        sim = Simulator()

        def gen():
            yield sim.timeout(1.0)

        never = sim.event()
        instances = [
            sim.event(),
            sim.timeout(1.0),
            sim.process(gen()),
            sim.all_of([never]),
            sim.any_of([never]),
        ]
        for obj in instances:
            assert not hasattr(obj, "__dict__"), type(obj).__name__

    def test_subclasses_declare_slots(self):
        for cls in (Event, Timeout, AllOf, AnyOf):
            assert "__slots__" in cls.__dict__, cls.__name__


class TestCombinatorPruning:
    def test_anyof_detaches_losing_child(self):
        sim = Simulator()
        never = sim.event()
        race = sim.any_of([sim.timeout(1.0), never])
        assert len(never.callbacks) == 1
        sim.run()
        assert race.triggered and not race.failed
        assert never.callbacks == []

    def test_allof_failure_detaches_pending_children(self):
        sim = Simulator()
        never = sim.event()
        bad = sim.event()
        combo = sim.all_of([never, bad])
        bad.fail(RuntimeError("boom"))
        sim.run()
        assert combo.triggered and combo.failed
        assert never.callbacks == []

    def test_callback_list_bounded_across_10k_anyof_races(self):
        # The regression this guards: before pruning, every race left a
        # stale callback on the never-firing event — 10k races, 10k
        # callbacks, and O(n^2) dispatch if the event ever fired.
        sim = Simulator()
        never = sim.event()
        peak = 0

        def racer():
            nonlocal peak
            for _ in range(10_000):
                yield sim.any_of([sim.timeout(1.0), never])
                peak = max(peak, len(never.callbacks))

        done = sim.process(racer())
        sim.run()
        assert done.triggered and not done.failed
        assert peak <= 1
        assert len(never.callbacks) == 0

    def test_anyof_still_fails_on_failing_child(self):
        sim = Simulator()
        never = sim.event()
        bad = sim.event()
        bad.fail(ValueError("x"))
        race = sim.any_of([never, bad])
        sim.run()
        assert race.failed and isinstance(race.value, ValueError)
        assert never.callbacks == []

    def test_allof_success_value_order_preserved(self):
        sim = Simulator()
        combo = sim.all_of([sim.timeout(2.0, "late"), sim.timeout(1.0, "early")])
        sim.run()
        assert combo.value == ["late", "early"]


class TestResumeHotPath:
    def test_failed_event_still_throws_into_process(self):
        sim = Simulator()
        seen = []

        def waiter(ev):
            try:
                yield ev
            except RuntimeError as exc:
                seen.append(str(exc))

        ev = sim.event()
        done = sim.process(waiter(ev))
        ev.fail(RuntimeError("kaboom"))
        sim.run()
        assert done.triggered and not done.failed
        assert seen == ["kaboom"]

    def test_yielding_non_event_raises(self):
        from repro.errors import SimulationError

        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

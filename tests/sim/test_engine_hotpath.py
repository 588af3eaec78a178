"""Regression tests for the engine's hot-path optimizations.

Pins the structural guarantee the hot-path work introduced: every event
class uses ``__slots__`` (no per-instance ``__dict__``) — a loaded sweep
allocates tens of millions of events.
"""

import pytest

from repro.sim.engine import Event, Process, Simulator, Timeout


class TestSlots:
    def test_event_classes_have_no_instance_dict(self):
        sim = Simulator()

        def gen():
            yield sim.timeout(1.0)

        instances = [
            sim.event(),
            sim.timeout(1.0),
            sim.process(gen()),
        ]
        for obj in instances:
            assert not hasattr(obj, "__dict__"), type(obj).__name__

    def test_subclasses_declare_slots(self):
        for cls in (Event, Timeout, Process):
            assert "__slots__" in cls.__dict__, cls.__name__


class TestResumeHotPath:
    def test_yielding_non_event_raises(self):
        from repro.errors import SimulationError

        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

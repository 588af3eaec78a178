"""Deadline and Request value-object semantics."""

import pytest

from repro.errors import ConfigurationError
from repro.overload import Deadline, Request


class TestDeadline:
    def test_default_is_unbounded(self):
        d = Deadline()
        assert d.unbounded
        assert not d.expired(1e18)

    def test_after_stamps_absolute_time(self):
        d = Deadline.after(100.0, 50.0)
        assert d.at_ns == 150.0
        assert not d.unbounded

    def test_after_rejects_nonpositive_budget(self):
        with pytest.raises(ConfigurationError):
            Deadline.after(0.0, 0.0)
        with pytest.raises(ConfigurationError):
            Deadline.after(0.0, -1.0)

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            Deadline(float("nan"))

    def test_expiry_is_strict(self):
        d = Deadline(100.0)
        assert not d.expired(100.0)  # finishing exactly on time is on time
        assert d.expired(100.0 + 1e-9)


class TestRequest:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Request(arrival_ns=0.0, priority=-1)

    def test_expired_delegates_to_deadline(self):
        r = Request(arrival_ns=0.0, deadline=Deadline(100.0))
        assert not r.expired(100.0)
        assert r.expired(101.0)

    def test_payload_carries_application_state(self):
        op = object()
        r = Request(arrival_ns=0.0, payload=op)
        assert r.payload is op

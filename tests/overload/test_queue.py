"""The bounded FIFO admission queue: order, rejection, expiry shedding."""

import pytest

from repro.errors import ConfigurationError
from repro.overload import AdmissionQueue, Deadline, Request


def req(arrival=0.0, deadline=None):
    return Request(
        arrival_ns=arrival,
        deadline=Deadline(deadline) if deadline is not None else Deadline(),
    )


class TestValidation:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            AdmissionQueue(0)


class TestBoundedness:
    def test_offer_rejects_when_full(self):
        q = AdmissionQueue(2)
        assert q.offer(req()) and q.offer(req())
        assert q.full
        assert not q.offer(req())
        assert q.rejected_full == 1
        assert len(q) == 2

    def test_take_frees_a_slot(self):
        q = AdmissionQueue(1)
        assert q.offer(req())
        assert not q.offer(req())
        assert q.take(0.0) is not None
        assert q.offer(req())


class TestDisciplines:
    def test_fifo_serves_oldest_first(self):
        q = AdmissionQueue(4)
        first, second = req(arrival=1.0), req(arrival=2.0)
        q.offer(first), q.offer(second)
        assert q.take(0.0) is first


class TestExpiryShedding:
    def test_take_sheds_expired_waiters(self):
        q = AdmissionQueue(4)
        dead = req(deadline=10.0)
        alive = req(deadline=1000.0)
        q.offer(dead), q.offer(alive)
        assert q.take(50.0) is alive
        assert q.shed_expired == 1

    def test_take_returns_none_when_everything_expired(self):
        q = AdmissionQueue(4)
        q.offer(req(deadline=10.0))
        assert q.take(50.0) is None
        assert q.shed_expired == 1
        assert len(q) == 0

    def test_on_shed_callback_fires_per_shed_request(self):
        shed = []
        q = AdmissionQueue(4, on_shed=shed.append)
        doomed = req(deadline=10.0)
        q.offer(doomed)
        q.take(50.0)
        assert shed == [doomed]

    def test_drain_expired_purges_expired_waiters(self):
        q = AdmissionQueue(8)
        q.offer(req(deadline=10.0))
        q.offer(req(deadline=1000.0))
        q.offer(req(deadline=20.0))
        assert q.drain_expired(500.0) == 2
        assert len(q) == 1
        survivor = q.take(500.0)
        assert survivor is not None and survivor.deadline.at_ns == 1000.0

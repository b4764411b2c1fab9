"""Unit tests for the Server queueing resource."""

import pytest

from repro.sim import Server, Simulator


@pytest.fixture
def sim():
    return Simulator()


def ignore():
    """A grant nobody acts on."""


def unit_jobs(sim, srv, n, done):
    """``n`` jobs at t=0, each holding a slot for one time unit."""
    def job(tag):
        def granted():
            sim.schedule(1.0, finished)

        def finished():
            srv.release()
            done.append((tag, sim.now))
        srv.acquire(granted)

    for t in range(n):
        job(t)


class TestServer:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Server(sim, capacity=0)

    def test_immediate_grant_under_capacity(self, sim):
        srv = Server(sim, capacity=2)
        granted = []
        srv.acquire(lambda: granted.append(sim.now))
        assert granted == [0.0] and srv.in_service == 1

    def test_queue_past_capacity(self, sim):
        srv = Server(sim, capacity=1)
        granted = []
        srv.acquire(lambda: granted.append("first"))
        srv.acquire(lambda: granted.append("second"))
        assert granted == ["first"]
        assert srv.queue_len == 1

    def test_release_grants_fifo(self, sim):
        srv = Server(sim, capacity=1)
        srv.acquire(ignore)
        order = []
        for tag in ("a", "b", "c"):
            srv.acquire(lambda t=tag: order.append(t))
        srv.release()
        sim.run()
        srv.release()
        sim.run()
        assert order == ["a", "b"]

    def test_release_without_acquire_raises(self, sim):
        srv = Server(sim, capacity=1)
        with pytest.raises(RuntimeError):
            srv.release()

    def test_in_service_constant_while_queue_nonempty(self, sim):
        srv = Server(sim, capacity=3)
        for _ in range(5):
            srv.acquire(ignore)
        assert srv.in_service == 3
        srv.release()
        assert srv.in_service == 3  # slot handed straight to a waiter
        assert srv.queue_len == 1

    def test_mm1_flow_through_callbacks(self, sim):
        """Three unit-time jobs through a single server finish at 1,2,3."""
        srv = Server(sim, capacity=1)
        done = []
        unit_jobs(sim, srv, 3, done)
        sim.run()
        assert done == [(0, 1.0), (1, 2.0), (2, 3.0)]
        assert sim.events_executed == 3  # one per service completion

    def test_multiserver_parallelism(self, sim):
        srv = Server(sim, capacity=2)
        done = []
        unit_jobs(sim, srv, 4, done)
        sim.run()
        assert done == [(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0)]

    def test_counters(self, sim):
        srv = Server(sim, capacity=1)
        srv.acquire(ignore)
        srv.acquire(ignore)
        srv.acquire(ignore)
        assert srv.total_acquired == 1
        assert srv.peak_queue_len == 2
        srv.release()
        assert srv.total_acquired == 2

    def test_utilization_snapshot(self, sim):
        srv = Server(sim, capacity=4)
        srv.acquire(ignore)
        srv.acquire(ignore)
        assert srv.utilization_snapshot() == 0.5

"""Unit tests for the Server queueing resource."""

import pytest

from repro.sim import Server, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestServer:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Server(sim, capacity=0)

    def test_immediate_grant_under_capacity(self, sim):
        srv = Server(sim, capacity=2)
        ev = srv.acquire()
        assert ev.triggered and srv.in_service == 1

    def test_queue_past_capacity(self, sim):
        srv = Server(sim, capacity=1)
        first = srv.acquire()
        second = srv.acquire()
        assert first.triggered and not second.triggered
        assert srv.queue_len == 1

    def test_release_grants_fifo(self, sim):
        srv = Server(sim, capacity=1)
        srv.acquire()
        order = []
        for tag in ("a", "b", "c"):
            srv.acquire().add_callback(lambda e, t=tag: order.append(t))
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
            srv.acquire()
        assert srv.in_service == 3
        srv.release()
        assert srv.in_service == 3  # slot handed straight to a waiter
        assert srv.queue_len == 1

    def test_mm1_flow_through_processes(self, sim):
        """Three unit-time jobs through a single server finish at 1,2,3."""
        srv = Server(sim, capacity=1)
        done = []

        def job(tag):
            yield srv.acquire()
            try:
                yield 1.0
            finally:
                srv.release()
            done.append((tag, sim.now))

        for t in range(3):
            sim.process(job(t))
        sim.run()
        assert done == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_multiserver_parallelism(self, sim):
        srv = Server(sim, capacity=2)
        done = []

        def job(tag):
            yield srv.acquire()
            try:
                yield 1.0
            finally:
                srv.release()
            done.append((tag, sim.now))

        for t in range(4):
            sim.process(job(t))
        sim.run()
        assert done == [(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0)]

    def test_counters(self, sim):
        srv = Server(sim, capacity=1)
        srv.acquire()
        srv.acquire()
        srv.acquire()
        assert srv.total_acquired == 1
        assert srv.peak_queue_len == 2
        srv.release()
        assert srv.total_acquired == 2

    def test_utilization_snapshot(self, sim):
        srv = Server(sim, capacity=4)
        srv.acquire()
        srv.acquire()
        assert srv.utilization_snapshot() == 0.5

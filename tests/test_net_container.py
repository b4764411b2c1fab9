"""Tests for the GT3/GT4 service-container model."""

import pytest

from repro.net import GT3_PROFILE, GT4_PROFILE, ContainerProfile, ServiceContainer
from repro.sim import RngRegistry, Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def rng():
    return RngRegistry(0).stream("container")


class TestProfiles:
    def test_gt4_slower_than_gt3(self):
        assert GT4_PROFILE.query_service_s > GT3_PROFILE.query_service_s
        assert GT4_PROFILE.query_capacity_qps < GT3_PROFILE.query_capacity_qps

    def test_gt3_capacity_near_two_qps(self):
        assert 1.8 <= GT3_PROFILE.query_capacity_qps <= 2.2

    def test_gt4_capacity_just_above_one_qps(self):
        assert 1.0 <= GT4_PROFILE.query_capacity_qps <= 1.4

    def test_instance_creation_much_cheaper_than_query(self):
        assert GT3_PROFILE.instance_capacity_qps > 5 * GT3_PROFILE.query_capacity_qps

    def test_validation(self):
        with pytest.raises(ValueError):
            ContainerProfile("bad", -1, 0.1, 1, 1, 0, 0.1, 1, 1, 0)
        with pytest.raises(ValueError):
            ContainerProfile("bad", 0.1, 0.1, 0, 1, 0, 0.1, 1, 1, 0)


class TestServiceContainer:
    def test_query_consumes_roughly_mean_service_time(self, sim, rng):
        c = ServiceContainer(sim, GT3_PROFILE, rng)
        for _ in range(200):
            sim.process(c.service_query())
        sim.run()
        # 200 sequential queries at ~0.5 s each (concurrency 1).
        assert 70 < sim.now < 140
        assert c.completed_ops == 200

    def test_throughput_matches_capacity(self, sim, rng):
        c = ServiceContainer(sim, GT3_PROFILE, rng)
        n = 300
        for _ in range(n):
            sim.process(c.service_query())
            sim.process(c.service_report())
        sim.run()
        achieved = n / sim.now  # full brokering ops (query + report) per second
        assert achieved == pytest.approx(GT3_PROFILE.query_capacity_qps, rel=0.1)

    def test_extra_service_time(self, sim, rng):
        profile = ContainerProfile("flat", 1.0, 0.0, 1, 1, 0.0, 0.1, 1, 1, 0.0, sigma=0.0)
        c = ServiceContainer(sim, profile, rng)
        sim.process(c.service_query(extra_s=2.0))
        sim.run()
        assert sim.now == pytest.approx(3.0)

    def test_instance_creation_concurrency(self, sim, rng):
        profile = ContainerProfile("flat", 1.0, 0.0, 1, 1, 0.0, 1.0, 2, 1, 0.0, sigma=0.0)
        c = ServiceContainer(sim, profile, rng)
        for _ in range(4):
            sim.process(c.service_instance_creation())
        sim.run()
        assert sim.now == pytest.approx(2.0)  # 4 ops, 2 at a time, 1 s each

    def test_ops_in_window(self, sim, rng):
        profile = ContainerProfile("flat", 1.0, 0.0, 1, 1, 0.0, 0.1, 1, 1, 0.0, sigma=0.0)
        c = ServiceContainer(sim, profile, rng)
        for _ in range(10):
            sim.process(c.service_query())
        sim.run()  # ops complete at t=1..10
        assert c.ops_in_window(3.5) == 4  # t in {7,8,9,10}
        assert c.ops_in_window(100.0) == 10

    def test_queue_introspection(self, sim, rng):
        c = ServiceContainer(sim, GT3_PROFILE, rng)
        for _ in range(5):
            sim.process(c.service_query())
        sim.run(until=0.01)
        assert c.in_service == 1
        assert c.queue_len == 4

    def test_client_overhead_draws_positive(self, sim, rng):
        c = ServiceContainer(sim, GT3_PROFILE, rng)
        draws = [c.draw_client_overhead(rng) for _ in range(50)]
        assert all(d > 0 for d in draws)
        mean = sum(draws) / len(draws)
        assert mean == pytest.approx(GT3_PROFILE.client_overhead_s, rel=0.35)

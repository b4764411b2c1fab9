"""Tests for the GT3/GT4 service-container model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (GT3_PROFILE, GT4_PROFILE, ContainerProfile,
                       OverloadShed, ServiceContainer, lognormal_for_mean)
from repro.sim import RngRegistry, Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def rng():
    return RngRegistry(0).stream("container")


def done():
    """A request's continuation: nothing left to do."""


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
            c.serve_query(done)
        sim.run()
        # 200 sequential queries at ~0.5 s each (concurrency 1).
        assert 70 < sim.now < 140
        assert c.completed_ops == 200

    def test_throughput_matches_capacity(self, sim, rng):
        c = ServiceContainer(sim, GT3_PROFILE, rng)
        n = 300
        for _ in range(n):
            c.serve_query(done)
            c.serve_report(done)
        sim.run()
        achieved = n / sim.now  # full brokering ops (query + report) per second
        assert achieved == pytest.approx(GT3_PROFILE.query_capacity_qps, rel=0.1)

    def test_extra_service_time(self, sim, rng):
        profile = ContainerProfile("flat", 1.0, 0.0, 1, 1, 0.0, 0.1, 1, 1, 0.0, sigma=0.0)
        c = ServiceContainer(sim, profile, rng)
        c.serve_query(done, extra_s=2.0)
        sim.run()
        assert sim.now == pytest.approx(3.0)

    def test_instance_creation_concurrency(self, sim, rng):
        profile = ContainerProfile("flat", 1.0, 0.0, 1, 1, 0.0, 1.0, 2, 1, 0.0, sigma=0.0)
        c = ServiceContainer(sim, profile, rng)
        for _ in range(4):
            c.serve_instance_creation(done)
        sim.run()
        assert sim.now == pytest.approx(2.0)  # 4 ops, 2 at a time, 1 s each

    def test_ops_in_window(self, sim, rng):
        profile = ContainerProfile("flat", 1.0, 0.0, 1, 1, 0.0, 0.1, 1, 1, 0.0, sigma=0.0)
        c = ServiceContainer(sim, profile, rng)
        for _ in range(10):
            c.serve_query(done)
        sim.run()  # ops complete at t=1..10
        assert c.ops_in_window(3.5) == 4  # t in {7,8,9,10}
        assert c.ops_in_window(100.0) == 10

    def test_queue_introspection(self, sim, rng):
        c = ServiceContainer(sim, GT3_PROFILE, rng)
        for _ in range(5):
            c.serve_query(done)
        sim.run(until=0.01)
        assert c.in_service == 1
        assert c.queue_len == 4

    def test_continuation_runs_at_completion_before_the_next_grant(
            self, sim, rng):
        profile = ContainerProfile("flat", 1.0, 0.0, 1, 1, 0.0, 0.1, 1, 1, 0.0,
                                   sigma=0.0)
        c = ServiceContainer(sim, profile, rng)
        log = []
        for tag in "ab":
            c.serve_query(lambda tag=tag: log.append(
                (tag, sim.now, c.in_service, c.queue_len)))
        sim.run()
        # ``a`` still holds its slot while its continuation runs; ``b``
        # is granted only after, at the same instant.
        assert log == [("a", 1.0, 1, 1), ("b", 2.0, 1, 0)]
        assert sim.events_executed == 2  # the two service completions

    def test_bounded_queue_sheds_at_once(self, sim, rng):
        c = ServiceContainer(sim, GT3_PROFILE, rng, max_queue=1)
        c.serve_query(done)
        c.serve_query(done)
        with pytest.raises(OverloadShed):
            c.serve_query(done)
        assert c.shed_ops == 1 and c.queue_len == 1

    def test_client_overhead_draws_positive(self, sim, rng):
        c = ServiceContainer(sim, GT3_PROFILE, rng)
        draws = [lognormal_for_mean(rng, c.profile.client_overhead_s,
                                    c.profile.sigma) for _ in range(50)]
        assert all(d > 0 for d in draws)
        mean = sum(draws) / len(draws)
        assert mean == pytest.approx(GT3_PROFILE.client_overhead_s, rel=0.35)


def _lognormal_per_draw(rng, mean, sigma):
    """The earlier formula: ``mu`` recomputed with ``np.log`` per draw."""
    if mean <= 0:
        return 0.0
    mu = np.log(mean) - 0.5 * sigma * sigma
    return float(rng.lognormal(mu, sigma))


@given(params=st.lists(st.tuples(st.floats(-1.0, 50.0, allow_nan=False),
                                 st.floats(0.0, 2.0, allow_nan=False)),
                       min_size=1, max_size=20),
       seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_cached_mu_draws_equal_the_per_draw_formula(params, seed):
    old, new = (RngRegistry(seed).stream("x") for _ in range(2))
    for _ in range(3):  # second and later draws hit the cache
        for mean, sigma in params:
            assert (lognormal_for_mean(new, mean, sigma)
                    == _lognormal_per_draw(old, mean, sigma))

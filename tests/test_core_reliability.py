"""Tests for §2.2 reliability: outages and graceful degradation."""

import pytest

from repro.core import (
    DecisionPoint,
    GruberClient,
    LeastUsedSelector,
)
from repro.grid import GridBuilder
from repro.net import ConstantLatency, GT3_PROFILE, Network
from repro.sim import RngRegistry, Simulator
from repro.workloads import JobModel, TraceRecorder, WorkloadGenerator

from tests.test_core_client import FAST_PROFILE


@pytest.fixture
def env():
    sim = Simulator()
    rng = RngRegistry(8)
    net = Network(sim, ConstantLatency(0.05))
    grid = GridBuilder(sim, rng.stream("grid")).uniform(n_sites=4,
                                                        cpus_per_site=50)
    return sim, rng, net, grid


class TestTransportOutage:
    def test_offline_endpoint_never_answers(self, env):
        sim, rng, net, grid = env
        dp = DecisionPoint(sim, net, "dp0", grid, GT3_PROFILE,
                           rng.stream("dp"), monitor_interval_s=600.0)
        dp.start(neighbors=[])
        dp.crash()
        ev = net.rpc("client", "dp0", "get_state", {})
        sim.run(until=100.0)
        assert not ev.triggered  # silence, not an error

    def test_offline_endpoint_drops_oneways(self, env):
        sim, rng, net, grid = env
        dp0 = DecisionPoint(sim, net, "dp0", grid, GT3_PROFILE,
                            rng.stream("a"), sync_interval_s=20.0)
        dp1 = DecisionPoint(sim, net, "dp1", grid, GT3_PROFILE,
                            rng.stream("b"), sync_interval_s=20.0)
        dp0.start(neighbors=["dp1"])
        dp1.start(neighbors=["dp0"])
        dp1.crash()
        sim.run(until=1.0)
        dp0.engine.record_local_dispatch(grid.site_names[0], "vo0", 4,
                                         now=sim.now)
        sim.run(until=60.0)
        assert dp1.sync.records_received == 0

    def test_recover_restores_service(self, env):
        sim, rng, net, grid = env
        dp = DecisionPoint(sim, net, "dp0", grid, GT3_PROFILE,
                           rng.stream("dp"), monitor_interval_s=600.0)
        dp.start(neighbors=[])
        dp.crash()
        dp.recover()
        ev = net.rpc("client", "dp0", "get_state", {})
        sim.run(until=30.0)
        assert ev.ok

    def test_crash_idempotent(self, env):
        sim, rng, net, grid = env
        dp = DecisionPoint(sim, net, "dp0", grid, GT3_PROFILE,
                           rng.stream("dp"))
        dp.start(neighbors=[])
        dp.crash()
        dp.crash()
        dp.recover()
        dp.recover()
        assert dp.online and dp.started


class TestClientGracefulDegradation:
    def test_client_survives_dead_dp(self, env):
        """All jobs still get placed (randomly) when the DP is dead."""
        sim, rng, net, grid = env
        dp = DecisionPoint(sim, net, "dp0", grid, FAST_PROFILE,
                           rng.stream("dp"), monitor_interval_s=600.0)
        dp.start(neighbors=[])
        dp.crash()
        gen = WorkloadGenerator(grid.vos,
                                JobModel(duration_mean_s=50.0,
                                         min_duration_s=10.0,
                                         cpu_choices=(1,), cpu_weights=(1.0,)),
                                rng.stream("wl"))
        workload = gen.host_workload("h0", duration_s=500.0,
                                     interarrival_s=100.0)
        trace = TraceRecorder()
        client = GruberClient(sim, net, "h0", "dp0", grid, workload,
                              selector=LeastUsedSelector(rng.stream("s")),
                              profile=FAST_PROFILE, rng=rng.stream("c"),
                              trace=trace, timeout_s=15.0,
                              state_response_kb=0.0)
        client.start()
        sim.run(until=2000.0)
        assert client.n_fallback_timeout == 5
        assert client.n_abandoned == 5       # waited out the grace period
        assert all(j.site is not None for j in trace.live.values())
        q = trace.query_arrays()
        assert q["timed_out"].all()

"""Tests for the one-phase brokering protocol and the GT4-C profile."""

import pytest

from repro.core import DecisionPoint, GruberClient, LeastUsedSelector
from repro.experiments import smoke_config, run_experiment
from repro.grid import GridBuilder
from repro.net import (
    ConstantLatency,
    GT3_PROFILE,
    GT4_PROFILE,
    GT4C_PROFILE,
    Network,
)
from repro.sim import RngRegistry, Simulator
from repro.workloads import JobModel, TraceRecorder, WorkloadGenerator


class TestGT4CProfile:
    def test_faster_than_both_java_containers(self):
        assert GT4C_PROFILE.query_capacity_qps > 2 * GT3_PROFILE.query_capacity_qps
        assert GT4C_PROFILE.query_capacity_qps > 2 * GT4_PROFILE.query_capacity_qps
        assert GT4C_PROFILE.client_overhead_s < GT4_PROFILE.client_overhead_s


def build_one_phase(n_jobs=5, interarrival=20.0):
    sim = Simulator()
    rng = RngRegistry(0)
    net = Network(sim, ConstantLatency(0.05))
    grid = GridBuilder(sim, rng.stream("grid")).uniform(n_sites=4,
                                                        cpus_per_site=50)
    dp = DecisionPoint(sim, net, "dp0", grid, GT3_PROFILE, rng.stream("dp"),
                       monitor_interval_s=600.0)
    dp.start(neighbors=[])
    gen = WorkloadGenerator(grid.vos,
                            JobModel(duration_mean_s=100.0, min_duration_s=10.0,
                                     cpu_choices=(1,), cpu_weights=(1.0,)),
                            rng.stream("wl"))
    workload = gen.host_workload("h0", duration_s=n_jobs * interarrival,
                                 interarrival_s=interarrival)
    trace = TraceRecorder()
    client = GruberClient(sim, net, "h0", "dp0", grid, workload,
                          selector=LeastUsedSelector(rng.stream("sel")),
                          profile=GT3_PROFILE, rng=rng.stream("cl"),
                          trace=trace, timeout_s=15.0,
                          state_response_kb=0.0, one_phase=True)
    client.start()
    return sim, client, dp, grid, trace


class TestOnePhaseProtocol:
    def test_jobs_brokered_server_side(self):
        sim, client, dp, grid, trace = build_one_phase()
        sim.run(until=300.0)
        assert client.n_handled == 5
        assert all(j.handled_by_gruber for j in trace.live.values())
        assert all(j.site is not None for j in trace.live.values())

    def test_dispatch_recorded_at_dp(self):
        sim, client, dp, grid, trace = build_one_phase()
        sim.run(until=300.0)
        assert dp.engine.dispatches_recorded == 5

    def test_single_rpc_per_job(self):
        sim, client, dp, grid, trace = build_one_phase()
        sim.run(until=300.0)
        # One RPC per job (no report_dispatch), vs 2 for two-phase.
        assert client.network.stats.rpcs_started == 5
        assert client.network.stats.per_op.get("broker_job") == 5
        assert "report_dispatch" not in client.network.stats.per_op

    def test_one_phase_faster_than_two_phase(self):
        """End-to-end: one-phase responses beat two-phase on the same load."""
        two = run_experiment(smoke_config(n_clients=8, duration_s=300.0))
        one = run_experiment(smoke_config(n_clients=8, duration_s=300.0,
                                          one_phase=True))
        assert (one.diperf().response_stats().average
                < two.diperf().response_stats().average)

    @staticmethod
    def _placements(**overrides):
        result = run_experiment(smoke_config(one_phase=True, **overrides))
        rows = result.trace.job_arrays()  # (client, creation) order
        return list(rows["site"][rows["handled"]])

    def test_server_side_selector_follows_config(self):
        """Regression: the decision point hard-coded LeastUsed(0.85), so
        ``selector`` silently did nothing in one-phase runs.  The
        default stays what the hard-coding was."""
        default = self._placements()
        assert default == self._placements(selector="least_used")
        assert default != self._placements(selector="round_robin")
        assert default != self._placements(selector="lru")

    def test_lan_config_runs(self):
        res = run_experiment(smoke_config(n_clients=6, duration_s=200.0,
                                          lan=True))
        # LAN + small grid: responses are dominated by client overhead.
        assert res.diperf().response_stats().average < 12.0
        assert res.n_jobs > 0

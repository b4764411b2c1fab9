"""Tests for trace-driven workload replay."""

import numpy as np
import pytest

from repro.core import DecisionPoint, GruberClient, LeastUsedSelector
from repro.experiments import smoke_config, run_experiment
from repro.grid import GridBuilder
from repro.net import ConstantLatency, Network
from repro.sim import RngRegistry, Simulator
from repro.workloads import TraceRecorder, workload_from_job_trace

from tests.test_core_client import FAST_PROFILE


@pytest.fixture(scope="module")
def recorded():
    """A finished smoke run whose trace we replay."""
    return run_experiment(smoke_config(n_clients=6, duration_s=300.0))


class TestWorkloadFromTrace:
    def test_reconstruction_matches_trace(self, recorded):
        wl = workload_from_job_trace(recorded.trace)
        jobs = recorded.trace.job_arrays()
        n = int((~np.isnan(jobs["created_at"])).sum())
        assert len(wl) == n
        assert np.all(np.diff(wl.arrivals) >= 0)  # time-ordered
        assert {vo for vo, _, _ in wl.identities} <= set(jobs["vo"])
        assert [wl.job_at(i).vo for i in range(len(wl))] == \
            [str(v) for v in jobs["vo"][np.argsort(jobs["created_at"],
                                                    kind="stable")]]
        assert wl.cpus.sum() == jobs["cpus"].sum()

    def test_materialized_jobs_reproduce_attributes(self, recorded):
        wl = workload_from_job_trace(recorded.trace)
        job = wl.job_at(0)
        assert job.cpus == int(wl.cpus[0])
        assert job.duration_s == float(wl.durations[0])

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            workload_from_job_trace(TraceRecorder())

    def test_csv_roundtrip_then_replay(self, recorded, tmp_path):
        path = str(tmp_path / "jobs.csv")
        recorded.trace.save_jobs_csv(path)
        loaded = TraceRecorder.load_jobs_csv(path)
        wl = workload_from_job_trace(loaded)
        assert len(wl) == len(workload_from_job_trace(recorded.trace))

    def test_replay_drives_a_fresh_broker(self, recorded):
        """The reconstructed workload runs end-to-end on a new setup."""
        sim = Simulator()
        rng = RngRegistry(99)
        net = Network(sim, ConstantLatency(0.02))
        grid = GridBuilder(sim, rng.stream("grid")).uniform(
            n_sites=6, cpus_per_site=64, n_vos=recorded.config.n_vos,
            groups_per_vo=recorded.config.groups_per_vo)
        dp = DecisionPoint(sim, net, "dp0", grid, FAST_PROFILE,
                           rng.stream("dp"), monitor_interval_s=600.0)
        dp.start(neighbors=[])
        trace = TraceRecorder()
        client = GruberClient(sim, net, "replay-host", "dp0", grid,
                              workload_from_job_trace(recorded.trace),
                              selector=LeastUsedSelector(rng.stream("sel")),
                              profile=FAST_PROFILE, rng=rng.stream("cl"),
                              trace=trace, timeout_s=15.0,
                              state_response_kb=0.0)
        client.start()
        sim.run(until=recorded.config.duration_s + 100.0)
        assert client.n_handled > 0
        assert len(client.jobs) > 0

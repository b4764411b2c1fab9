"""Gap-filling tests for paths not covered by the per-module suites."""

import numpy as np
import pytest

from repro.core import DecisionPoint, DIGruberDeployment, GruberClient, LeastUsedSelector
from repro.grid import GridBuilder
from repro.net import ConstantLatency, GT3_PROFILE, Network
from repro.sim import RngRegistry, Simulator
from repro.workloads import JobModel, TraceRecorder, WorkloadGenerator

from tests.test_core_client import SLOW_PROFILE


class TestKernelJitter:
    def test_every_with_jitter_desyncs(self):
        sim = Simulator()
        rng = RngRegistry(0).stream("jit")
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now), jitter=2.0, rng=rng)
        sim.run(until=100.0)
        gaps = np.diff(ticks)
        assert np.all(gaps >= 10.0 - 1e-9)
        assert np.all(gaps <= 12.0 + 1e-9)
        assert len(set(np.round(gaps, 6))) > 1  # actually jittered

    def test_any_of_with_pretriggered_event(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("early")
        cond = sim.any_of([ev, sim.timeout(5.0)])
        sim.run(until=1.0)
        assert cond.triggered and ev in cond.value


class TestDeploymentTopologies:
    @pytest.mark.parametrize("kind,expected_degree", [
        ("mesh", 3), ("ring", 2), ("star", None), ("line", None)])
    def test_neighbor_wiring(self, kind, expected_degree):
        sim = Simulator()
        rng = RngRegistry(1)
        net = Network(sim, ConstantLatency(0.01))
        grid = GridBuilder(sim, rng.stream("g")).uniform(n_sites=3,
                                                         cpus_per_site=8)
        dep = DIGruberDeployment(sim, net, grid, GT3_PROFILE, rng,
                                 n_decision_points=4, topology_kind=kind)
        degrees = sorted(len(dp.neighbors)
                         for dp in dep.decision_points.values())
        if kind == "mesh":
            assert degrees == [3, 3, 3, 3]
        elif kind == "ring":
            assert degrees == [2, 2, 2, 2]
        elif kind == "star":
            assert degrees == [1, 1, 1, 3]
        else:  # line
            assert degrees == [1, 1, 2, 2]

    def test_ring_deployment_floods_eventually(self):
        sim = Simulator()
        rng = RngRegistry(2)
        net = Network(sim, ConstantLatency(0.01))
        grid = GridBuilder(sim, rng.stream("g")).uniform(n_sites=3,
                                                         cpus_per_site=8)
        dep = DIGruberDeployment(sim, net, grid, GT3_PROFILE, rng,
                                 n_decision_points=4, topology_kind="ring",
                                 sync_interval_s=20.0,
                                 monitor_interval_s=10_000.0)
        dep.start()
        sim.run(until=1.0)
        target = grid.site_names[0]
        dep.dp("dp0").engine.record_local_dispatch(target, "v", 4, sim.now)
        sim.run(until=120.0)  # several hops around the ring
        for dp in dep.decision_points.values():
            assert dp.engine.view.estimated_busy(target) == 4.0


class TestOnePhaseTimeout:
    def test_one_phase_timeout_falls_back(self):
        sim = Simulator()
        rng = RngRegistry(5)
        net = Network(sim, ConstantLatency(0.02))
        grid = GridBuilder(sim, rng.stream("g")).uniform(n_sites=4,
                                                         cpus_per_site=8)
        dp = DecisionPoint(sim, net, "dp0", grid, SLOW_PROFILE,
                           rng.stream("dp"), monitor_interval_s=600.0)
        dp.start(neighbors=[])
        gen = WorkloadGenerator(grid.vos,
                                JobModel(duration_mean_s=30.0,
                                         min_duration_s=5.0,
                                         cpu_choices=(1,), cpu_weights=(1.0,)),
                                rng.stream("wl"))
        trace = TraceRecorder()
        client = GruberClient(
            sim, net, "h0", "dp0", grid,
            gen.host_workload("h0", duration_s=10.0, interarrival_s=10.0),
            selector=LeastUsedSelector(rng.stream("sel")),
            profile=SLOW_PROFILE, rng=rng.stream("cl"), trace=trace,
            timeout_s=5.0, state_response_kb=0.0, one_phase=True)
        client.start()
        sim.run(until=200.0)
        assert client.n_fallback_timeout == 1
        job, = trace.live.values()  # no site observer: still live
        assert job.site is not None
        assert not job.handled_by_gruber


class TestTransportAccounting:
    def test_kb_accounting_includes_both_directions(self):
        sim = Simulator()
        net = Network(sim, ConstantLatency(0.01))
        from repro.net import Endpoint
        Endpoint(net, "c")
        srv = Endpoint(net, "s")
        srv.register_handler("op", lambda p, s: "r")
        net.rpc("c", "s", "op", size_kb=2.0, response_size_kb=5.0)
        sim.run()
        assert net.stats.kb == pytest.approx(7.0)
        assert net.stats.messages == 2

    def test_failed_handler_response_carries_no_payload_kb(self):
        sim = Simulator()
        net = Network(sim, ConstantLatency(0.01))
        from repro.net import Endpoint
        Endpoint(net, "c")
        srv = Endpoint(net, "s")
        srv.register_handler("boom",
                             lambda p, s: (_ for _ in ()).throw(ValueError()))
        net.rpc("c", "s", "boom", size_kb=1.0, response_size_kb=100.0)
        sim.run()
        assert net.stats.kb == pytest.approx(1.0)


class TestEngineMisc:
    def test_utilization_view_empty_grid(self):
        from repro.core import GruberEngine
        engine = GruberEngine("e", {"s": 10})
        assert engine.utilization_view() == {"s": 0.0}

    def test_availabilities_counts_queries(self):
        from repro.core import GruberEngine
        engine = GruberEngine("e", {"s": 10})
        for _ in range(5):
            engine.availabilities()
        assert engine.queries_served == 5

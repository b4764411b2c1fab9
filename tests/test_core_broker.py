"""Tests for the deployment facade, saturation, rebalance."""

import pytest

from repro.core import (
    DIGruberDeployment,
    ReconfigurationObserver,
    SaturationDetector,
)
from repro.grid import GridBuilder
from repro.net import ConstantLatency, GT3_PROFILE, Network
from repro.sim import RngRegistry, Simulator
from repro.usla import Agreement, AgreementContext


@pytest.fixture
def env():
    sim = Simulator()
    rng = RngRegistry(3)
    net = Network(sim, ConstantLatency(0.05))
    grid = GridBuilder(sim, rng.stream("grid")).uniform(n_sites=5,
                                                        cpus_per_site=20)
    return sim, rng, net, grid


def make_deployment(env, k=3, **kw):
    sim, rng, net, grid = env
    return DIGruberDeployment(sim, net, grid, GT3_PROFILE, rng,
                              n_decision_points=k, **kw)


class TestDeployment:
    def test_dp_creation_and_mesh(self, env):
        dep = make_deployment(env, k=3)
        assert dep.dp_ids == ["dp0", "dp1", "dp2"]
        assert set(dep.dp("dp0").neighbors) == {"dp1", "dp2"}

    def test_start_stop(self, env):
        sim, *_ = env
        dep = make_deployment(env, k=2)
        dep.start()
        assert all(dp.started for dp in dep.decision_points.values())
        with pytest.raises(RuntimeError):
            dep.start()
        dep.stop()
        assert not any(dp.started for dp in dep.decision_points.values())

    def test_add_decision_point_rewires(self, env):
        dep = make_deployment(env, k=2)
        dep.start()
        new = dep.add_decision_point()
        assert new.node_id == "dp2"
        assert new.started
        assert set(dep.dp("dp0").neighbors) == {"dp1", "dp2"}

    def test_publish_usla_everywhere(self, env):
        dep = make_deployment(env, k=2)
        ag = Agreement("a", AgreementContext("grid", "atlas"))
        dep.publish_usla(ag)
        assert all("a" in dp.engine.usla_store
                   for dp in dep.decision_points.values())

    def test_publish_usla_single_dp(self, env):
        dep = make_deployment(env, k=2)
        ag = Agreement("a", AgreementContext("grid", "atlas"))
        dep.publish_usla(ag, dp_id="dp1")
        assert "a" not in dep.dp("dp0").engine.usla_store
        assert "a" in dep.dp("dp1").engine.usla_store

    def test_validation(self, env):
        with pytest.raises(ValueError):
            make_deployment(env, k=0)


class _FakeClient:
    """Minimal stand-in with the rebind interface."""

    def __init__(self, dp):
        self.decision_point = dp

    def rebind(self, dp):
        self.decision_point = dp


class TestRebalancing:
    def test_moves_fraction(self, env):
        dep = make_deployment(env, k=2)
        for _ in range(10):
            dep.attach_client(_FakeClient("dp0"))
        moved = dep.rebalance_clients("dp0", "dp1", fraction=0.5)
        assert moved == 5
        assert len(dep.clients_of("dp0")) == 5
        assert len(dep.clients_of("dp1")) == 5

    def test_unknown_target_rejected(self, env):
        dep = make_deployment(env, k=1)
        with pytest.raises(KeyError):
            dep.rebalance_clients("dp0", "ghost")

    def test_bad_fraction_rejected(self, env):
        dep = make_deployment(env, k=2)
        with pytest.raises(ValueError):
            dep.rebalance_clients("dp0", "dp1", fraction=0.0)


class TestSaturationAndRebalance:
    def _saturate_dp(self, env, dep, dp_id="dp0", n=200):
        """Queue enough requests that the backlog outlives the sampling
        interval (the container serves ~2 ops/s)."""
        sim, rng, net, grid = env
        for i in range(n):
            net.rpc(f"load{i}", dp_id, "get_state", {})

    def test_detector_raises_signal(self, env):
        sim, rng, net, grid = env
        dep = make_deployment(env, k=1)
        dep.start()
        det = SaturationDetector(sim, dep.decision_points.values(),
                                 interval_s=30.0, queue_threshold=5)
        det.start()
        self._saturate_dp(env, dep)
        sim.run(until=35.0)
        assert det.signals
        assert det.signals[0].decision_point == "dp0"
        assert det.signals[0].queue_len >= 5

    def test_no_signal_when_idle(self, env):
        sim, rng, net, grid = env
        dep = make_deployment(env, k=1)
        dep.start()
        det = SaturationDetector(sim, dep.decision_points.values(),
                                 interval_s=30.0)
        det.start()
        sim.run(until=120.0)
        assert det.signals == []

    def test_observer_adds_dp_and_moves_clients(self, env):
        sim, rng, net, grid = env
        dep = make_deployment(env, k=1)
        dep.start()
        for _ in range(8):
            dep.attach_client(_FakeClient("dp0"))
        det = SaturationDetector(sim, dep.decision_points.values(),
                                 interval_s=30.0, queue_threshold=5)
        det.start()
        obs = ReconfigurationObserver(sim, dep, det, cooldown_s=60.0,
                                      max_decision_points=3)
        self._saturate_dp(env, dep)
        sim.run(until=35.0)
        assert obs.dps_added == 1
        assert "dp1" in dep.decision_points
        assert len(dep.clients_of("dp1")) == 4

    def test_observer_cooldown_limits_actions(self, env):
        sim, rng, net, grid = env
        dep = make_deployment(env, k=1)
        dep.start()
        dep.attach_client(_FakeClient("dp0"))
        det = SaturationDetector(sim, dep.decision_points.values(),
                                 interval_s=10.0, queue_threshold=2)
        det.start()
        obs = ReconfigurationObserver(sim, dep, det, cooldown_s=1e9,
                                      max_decision_points=10)
        self._saturate_dp(env, dep)
        sim.run(until=100.0)
        # Signals keep firing but the cooldown allows a single action.
        assert obs.dps_added == 1

    def test_observer_rebalances_at_cap(self, env):
        sim, rng, net, grid = env
        dep = make_deployment(env, k=2)
        dep.start()
        for _ in range(8):
            dep.attach_client(_FakeClient("dp0"))
        det = SaturationDetector(sim, dep.decision_points.values(),
                                 interval_s=30.0, queue_threshold=5)
        det.start()
        obs = ReconfigurationObserver(sim, dep, det, cooldown_s=0.0,
                                      max_decision_points=2)
        self._saturate_dp(env, dep)
        sim.run(until=35.0)
        assert obs.dps_added == 0
        assert any(e.action == "rebalance" for e in obs.events)
        assert len(dep.clients_of("dp1")) > 0

    def test_observer_finite_cooldown_spaces_actions(self, env):
        """Back-to-back signals are suppressed inside the cooldown, and
        the next action is allowed once it expires."""
        sim, rng, net, grid = env
        dep = make_deployment(env, k=1)
        dep.start()
        dep.attach_client(_FakeClient("dp0"))
        det = SaturationDetector(sim, dep.decision_points.values(),
                                 interval_s=10.0, queue_threshold=2)
        det.start()
        obs = ReconfigurationObserver(sim, dep, det, cooldown_s=40.0,
                                      max_decision_points=10)
        self._saturate_dp(env, dep)
        sim.run(until=100.0)
        # Signals fire every 10 s while saturated, but actions cannot be
        # closer than the cooldown — and more than one must get through.
        assert obs.dps_added >= 2
        times = [e.time for e in obs.events]
        assert all(b - a >= 40.0 for a, b in zip(times, times[1:]))

    def test_observer_hard_cap_never_exceeded(self, env):
        """Even with a zero cooldown the DP set stops at the cap and the
        observer degrades to rebalancing."""
        sim, rng, net, grid = env
        dep = make_deployment(env, k=1)
        dep.start()
        for _ in range(8):
            dep.attach_client(_FakeClient("dp0"))
        det = SaturationDetector(sim, dep.decision_points.values(),
                                 interval_s=10.0, queue_threshold=2)
        det.start()
        obs = ReconfigurationObserver(sim, dep, det, cooldown_s=0.0,
                                      max_decision_points=3)
        self._saturate_dp(env, dep)
        sim.run(until=200.0)
        assert len(dep.decision_points) == 3
        assert obs.dps_added == 2
        assert any(e.action == "rebalance" for e in obs.events)
        assert sim.metrics.counter_value("reconfig.add_dp") == 2
        assert sim.metrics.counter_value("reconfig.rebalance") == \
            sum(1 for e in obs.events if e.action == "rebalance")

    def test_observer_actions_traced(self, env):
        sim, rng, net, grid = env
        sim.trace.enabled = True
        dep = make_deployment(env, k=1)
        dep.start()
        dep.attach_client(_FakeClient("dp0"))
        det = SaturationDetector(sim, dep.decision_points.values(),
                                 interval_s=10.0, queue_threshold=2)
        det.start()
        ReconfigurationObserver(sim, dep, det, cooldown_s=1e9)
        self._saturate_dp(env, dep)
        sim.run(until=15.0)
        events = sim.trace.events("reconfig.action")
        assert len(events) == 1
        assert events[0].detail["action"] == "add_dp"
        assert events[0].detail["new_dp"] == "dp1"

    def test_detector_validation(self, env):
        sim, *_ = env
        with pytest.raises(ValueError):
            SaturationDetector(sim, [], interval_s=0.0)
        with pytest.raises(ValueError):
            SaturationDetector(sim, [], rate_threshold=1.5)

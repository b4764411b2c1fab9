"""Tests for the deployment facade."""

import pytest

from repro.core import DIGruberDeployment
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

"""Tests for private brokers (§2.3) and new workload/trace features."""

import numpy as np
import pytest

from repro.core import DecisionPoint, DisseminationStrategy
from repro.grid import GridBuilder, VORegistry
from repro.net import ConstantLatency, GT3_PROFILE, Network
from repro.sim import RngRegistry, Simulator
from repro.usla import Agreement, AgreementContext
from repro.workloads import JobModel, WorkloadGenerator


@pytest.fixture
def env():
    sim = Simulator()
    rng = RngRegistry(12)
    net = Network(sim, ConstantLatency(0.05))
    grid = GridBuilder(sim, rng.stream("grid")).uniform(n_sites=3,
                                                        cpus_per_site=16)
    return sim, rng, net, grid


def make_dp(env, node_id, private=False, strategy=None):
    sim, rng, net, grid = env
    kw = dict(monitor_interval_s=600.0, sync_interval_s=20.0,
              private=private)
    if strategy is not None:
        kw["strategy"] = strategy
    return DecisionPoint(sim, net, node_id, grid, GT3_PROFILE,
                         rng.stream(f"dp:{node_id}"), **kw)


class TestPrivateBroker:
    def test_private_dispatches_stay_private(self, env):
        sim, rng, net, grid = env
        public = make_dp(env, "pub")
        private = make_dp(env, "priv", private=True)
        public.start(neighbors=["priv"])
        private.start(neighbors=["pub"])
        sim.run(until=1.0)
        target = grid.site_names[0]
        private.engine.record_local_dispatch(target, "vo0", 8, now=sim.now)
        sim.run(until=60.0)
        # The public peer never learns of the private broker's work.
        assert public.engine.view.estimated_free(target) == 16.0

    def test_private_broker_still_consumes_the_flood(self, env):
        sim, rng, net, grid = env
        public = make_dp(env, "pub")
        private = make_dp(env, "priv", private=True)
        public.start(neighbors=["priv"])
        private.start(neighbors=["pub"])
        sim.run(until=1.0)
        target = grid.site_names[0]
        public.engine.record_local_dispatch(target, "vo0", 8, now=sim.now)
        sim.run(until=60.0)
        assert private.engine.view.estimated_free(target) == 8.0

    def test_private_broker_relays_others_records(self, env):
        """Privacy hides its own work, not the public flood (line topo)."""
        sim, rng, net, grid = env
        a = make_dp(env, "a")
        mid = make_dp(env, "mid", private=True)
        b = make_dp(env, "b")
        a.start(neighbors=["mid"])
        mid.start(neighbors=["a", "b"])
        b.start(neighbors=["mid"])
        sim.run(until=1.0)
        target = grid.site_names[0]
        a.engine.record_local_dispatch(target, "vo0", 4, now=sim.now)
        sim.run(until=90.0)
        assert b.engine.view.estimated_free(target) == 12.0

    def test_private_uslas_not_exported(self, env):
        sim, rng, net, grid = env
        strat = DisseminationStrategy.USAGE_AND_USLA
        private = make_dp(env, "priv", private=True, strategy=strat)
        public = make_dp(env, "pub", strategy=strat)
        private.start(neighbors=["pub"])
        public.start(neighbors=["priv"])
        private.engine.usla_store.publish(
            Agreement("secret", AgreementContext("p", "c")))
        sim.run(until=60.0)
        assert "secret" not in public.engine.usla_store


class TestDiurnalWorkload:
    def _gen(self):
        vos = VORegistry()
        vos.create("v", n_groups=1, users_per_group=1)
        return WorkloadGenerator(vos, JobModel(),
                                 RngRegistry(3).stream("w"))

    def test_zero_amplitude_keeps_everything(self):
        gen = self._gen()
        wl = gen.host_workload("h", duration_s=1000.0, diurnal_amplitude=0.0)
        assert len(wl) == 1000

    def test_amplitude_thins_trough(self):
        gen = self._gen()
        wl = gen.host_workload("h", duration_s=86400.0, interarrival_s=10.0,
                               diurnal_amplitude=0.8)
        arrivals = wl.arrivals
        # Peak (around t=0 and t=86400) keeps nearly all arrivals;
        # trough (t ~= 43200) loses ~80%.
        peak = np.sum(arrivals < 8640)
        trough = np.sum((arrivals > 38880) & (arrivals < 47520))
        assert trough < 0.5 * peak
        assert len(wl) < 86400 / 10.0

    def test_amplitude_validation(self):
        gen = self._gen()
        with pytest.raises(ValueError):
            gen.host_workload("h", duration_s=10.0, diurnal_amplitude=1.0)

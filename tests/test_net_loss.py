"""Tests for lossy-WAN behavior (message drops).

The fault layer is the one way a message is lost: a
:class:`~repro.faults.netem.TransportFaultModel` with a per-link
``LinkFault(loss=…)`` drops each message independently.
"""

import pytest

from repro.experiments import smoke_config, run_experiment
from repro.experiments.runner import build_experiment, run_built
from repro.faults.netem import LinkFault, TransportFaultModel
from repro.net import ConstantLatency, Endpoint, Network
from repro.sim import RngRegistry, Simulator


@pytest.fixture
def sim():
    return Simulator()


def lossy_net(sim, rate, a, b, seed=0):
    """A network whose ``a``-``b`` link drops messages at ``rate``."""
    net = Network(sim, ConstantLatency(0.01))
    net.faults = TransportFaultModel(sim, RngRegistry(seed).stream("loss"))
    net.faults.set_link(a, b, LinkFault(loss=rate))
    return net


class TestLossMechanics:
    def test_validation(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError, match="loss"):
                LinkFault(loss=bad)

    def test_zero_loss_never_drops(self, sim):
        net = lossy_net(sim, rate=0.0, a="c", b="s")
        Endpoint(net, "c")
        srv = Endpoint(net, "s")
        srv.register_handler("e", lambda p, s: p)
        for i in range(50):
            net.rpc("c", "s", "e", i)
        sim.run()
        assert net.faults.n_rules == 0  # a no-op rule is never installed
        assert net.stats.dropped == 0
        assert net.stats.rpcs_completed == 50

    def test_half_loss_fails_many_rpcs_by_timeout(self, sim):
        net = lossy_net(sim, rate=0.5, a="c", b="s")
        Endpoint(net, "c")
        srv = Endpoint(net, "s")
        srv.register_handler("e", lambda p, s: p)
        results = []
        for i in range(200):
            ev = net.rpc("c", "s", "e", i, timeout=5.0)
            ev.add_callback(lambda e: results.append(e.ok))
        sim.run()
        completed = sum(1 for ok in results if ok)
        # Both legs must survive: P ~ 0.25.
        assert 0.15 < completed / 200 < 0.40
        assert net.stats.dropped > 100
        assert net.stats.dropped == net.faults.dropped

    def test_dropped_oneway_vanishes(self, sim):
        net = lossy_net(sim, rate=1.0, a="a", b="b", seed=3)
        Endpoint(net, "a")

        class Sink(Endpoint):
            def __init__(self, *a):
                super().__init__(*a)
                self.got = 0

            def on_oneway(self, msg):
                self.got += 1

        sink = Sink(net, "b")
        for _ in range(20):
            net.send_oneway("a", "b", "x", None)
        sim.run()
        assert sink.got == 0
        assert net.stats.dropped == 20


def _run_lossy(config):
    """A run in which 15 % of the messages touching any DP are lost."""
    built = build_experiment(config)
    faults = TransportFaultModel(built.sim, built.rng.stream("loss"))
    for dp_id in built.deployment.dp_ids:
        faults.set_node(dp_id, LinkFault(loss=0.15))
    built.network.faults = faults
    return run_built(built)


class TestEndToEndUnderLoss:
    def test_brokering_degrades_gracefully(self):
        """With a lossy WAN the system keeps placing jobs: lost
        queries become timeout fallbacks, not stuck clients."""
        config = smoke_config(n_clients=10, duration_s=400.0)
        clean = run_experiment(config)
        lossy = _run_lossy(config)
        fb_clean = clean.client_fallbacks()
        fb_lossy = lossy.client_fallbacks()
        assert lossy.network.faults.dropped > 0
        # Loss converts handled operations into timeouts...
        assert fb_lossy["timeout"] > fb_clean["timeout"]
        assert fb_lossy["handled"] < fb_clean["handled"]
        # ...but everything that reached the channel got placed.
        rows = lossy.trace.job_arrays()
        placed = dict(zip(rows["jid"].tolist(), rows["site"] != ""))
        assert all(placed[c.workload.jid_base + i]
                   for c in lossy.clients for i in range(c._next - 1))
        assert lossy.n_jobs > 0

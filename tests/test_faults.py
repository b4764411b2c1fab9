"""Tests for repro.faults: netem rules, schedules, injector, scenarios."""

import numpy as np
import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    LinkFault,
    TransportFaultModel,
    build_scenario,
    scenario_names,
)
from repro.faults.netem import CLEAN_FATE
from repro.net import ConstantLatency, Network, RpcTimeout, cross_pairs
from repro.net.transport import Endpoint, Message
from repro.sim import Simulator


def make_model(seed=0):
    sim = Simulator()
    return sim, TransportFaultModel(sim, np.random.default_rng(seed))


def msg(src="a", dst="b", kind="oneway", op="x"):
    return Message(src=src, dst=dst, kind=kind, op=op, payload=None)


class TestLinkFault:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkFault(loss=1.5)
        with pytest.raises(ValueError):
            LinkFault(dup_rate=-0.1)
        with pytest.raises(ValueError):
            LinkFault(extra_delay_s=-1.0)

    def test_noop_detection(self):
        assert LinkFault().is_noop
        assert not LinkFault(cut=True).is_noop
        assert not LinkFault(loss=0.1).is_noop

    def test_noop_rule_not_installed(self):
        sim, model = make_model()
        model.set_link("a", "b", LinkFault())
        model.set_node("c", LinkFault())
        assert model.n_rules == 0


class TestTransportFaultModel:
    def test_clean_fate_without_rules(self):
        sim, model = make_model()
        assert model.on_message(msg()) is CLEAN_FATE

    def test_cut_drops_everything(self):
        sim, model = make_model()
        model.cut_link("a", "b")
        fate = model.on_message(msg("a", "b"))
        assert fate.drop and fate.extra_delays == ()
        assert model.dropped == 1
        assert sim.metrics.counter_value("fault.drop") == 1

    def test_asymmetric_cut_is_one_way(self):
        sim, model = make_model()
        model.set_link("a", "b", LinkFault(cut=True), symmetric=False)
        assert model.on_message(msg("a", "b")).drop
        assert not model.on_message(msg("b", "a")).drop

    def test_symmetric_cut_covers_both_directions(self):
        sim, model = make_model()
        model.cut_link("a", "b")
        assert model.on_message(msg("a", "b")).drop
        assert model.on_message(msg("b", "a")).drop
        model.clear_link("a", "b")
        assert not model.on_message(msg("a", "b")).drop

    def test_loss_drops_proportionally(self):
        sim, model = make_model()
        model.set_link("a", "b", LinkFault(loss=0.5))
        fates = [model.on_message(msg("a", "b")) for _ in range(2000)]
        dropped = sum(f.drop for f in fates)
        assert 850 <= dropped <= 1150

    def test_extra_delay_applied(self):
        sim, model = make_model()
        model.set_link("a", "b", LinkFault(extra_delay_s=2.5))
        fate = model.on_message(msg("a", "b"))
        assert fate.extra_delays == (2.5,)
        assert model.delayed == 1

    def test_jitter_bounded_and_random(self):
        sim, model = make_model()
        model.set_link("a", "b", LinkFault(jitter_s=3.0))
        delays = [model.on_message(msg("a", "b")).extra_delays[0]
                  for _ in range(200)]
        assert all(0.0 <= d <= 3.0 for d in delays)
        assert len(set(delays)) > 100  # actually jittered

    def test_duplication_adds_copies(self):
        sim, model = make_model()
        model.set_link("a", "b", LinkFault(dup_rate=1.0))
        fate = model.on_message(msg("a", "b"))
        assert not fate.drop
        assert len(fate.extra_delays) == 2
        assert model.duplicated == 1

    def test_duplicate_copies_get_independent_jitter(self):
        sim, model = make_model()
        model.set_link("a", "b", LinkFault(dup_rate=1.0, jitter_s=5.0))
        fate = model.on_message(msg("a", "b"))
        assert len(fate.extra_delays) == 2
        assert fate.extra_delays[0] != fate.extra_delays[1]

    def test_node_rule_applies_both_directions(self):
        sim, model = make_model()
        model.isolate_node("n")
        assert model.on_message(msg("n", "b")).drop
        assert model.on_message(msg("a", "n")).drop
        assert not model.on_message(msg("a", "b")).drop
        model.restore_node("n")
        assert not model.on_message(msg("n", "b")).drop

    def test_node_and_link_rules_compose(self):
        sim, model = make_model()
        model.set_node("a", LinkFault(extra_delay_s=1.0))
        model.set_link("a", "b", LinkFault(extra_delay_s=2.0))
        fate = model.on_message(msg("a", "b"))
        assert fate.extra_delays == (3.0,)

    def test_determinism_same_seed(self):
        fates = []
        for _ in range(2):
            sim, model = make_model(seed=42)
            model.set_link("a", "b", LinkFault(loss=0.3, jitter_s=2.0,
                                               dup_rate=0.2))
            fates.append([model.on_message(msg("a", "b"))
                          for _ in range(500)])
        assert fates[0] == fates[1]


class _Sink(Endpoint):
    def __init__(self, network, node_id):
        super().__init__(network, node_id)
        self.received = 0
        self.register_handler("echo", lambda payload, src: {"ok": True})

    def on_oneway(self, message):
        self.received += 1


class TestTransportIntegration:
    def _net(self, seed=0):
        sim = Simulator()
        net = Network(sim, ConstantLatency(0.1))
        net.faults = TransportFaultModel(sim, np.random.default_rng(seed))
        return sim, net

    def test_cut_link_blocks_oneways(self):
        sim, net = self._net()
        sink = _Sink(net, "b")
        net.faults.cut_link("a", "b")
        net.send_oneway("a", "b", "ping", {})
        sim.run(until=10.0)
        assert sink.received == 0
        assert net.stats.dropped == 1

    def test_dup_delivers_twice(self):
        sim, net = self._net()
        sink = _Sink(net, "b")
        net.faults.set_link("a", "b", LinkFault(dup_rate=1.0))
        net.send_oneway("a", "b", "ping", {})
        sim.run(until=10.0)
        assert sink.received == 2

    def test_cut_request_times_out(self):
        sim, net = self._net()
        _Sink(net, "b")
        net.faults.cut_link("a", "b")
        ev = net.rpc("a", "b", "echo", {}, timeout=5.0)
        sim.run(until=10.0)
        assert ev.triggered and not ev.ok
        assert isinstance(ev.value, RpcTimeout)

    def test_cut_request_without_timeout_abandoned(self):
        """The pending-RPC table must not leak on fault-dropped requests."""
        sim, net = self._net()
        _Sink(net, "b")
        net.faults.cut_link("a", "b")
        ev = net.rpc("a", "b", "echo", {})
        sim.run(until=10.0)
        assert not ev.triggered
        assert net._pending_rpcs == {}
        assert net.stats.rpcs_lost == 1

    def test_cut_response_abandoned(self):
        """Asymmetric cut on the return path reaps the pending entry."""
        sim, net = self._net()
        _Sink(net, "b")
        net.faults.set_link("b", "a", LinkFault(cut=True), symmetric=False)
        ev = net.rpc("a", "b", "echo", {})
        sim.run(until=10.0)
        assert not ev.triggered
        assert net._pending_rpcs == {}

    def test_duplicated_response_completes_once(self):
        sim, net = self._net()
        _Sink(net, "b")
        net.faults.set_link("a", "b", LinkFault(dup_rate=1.0))
        ev = net.rpc("a", "b", "echo", {})
        sim.run(until=10.0)
        assert ev.ok
        # The extra copies are discarded, not double-completed.
        assert net.stats.rpcs_completed == 1


class TestCrossPairs:
    def test_all_cross_island_ordered_pairs(self):
        pairs = cross_pairs([["a", "b"], ["c"]])
        assert set(pairs) == {("a", "c"), ("b", "c"), ("c", "a"), ("c", "b")}

    def test_rejects_duplicate_membership(self):
        with pytest.raises(ValueError):
            cross_pairs([["a"], ["a", "b"]])

    def test_three_islands(self):
        pairs = cross_pairs([["a"], ["b"], ["c"]])
        assert len(pairs) == 6


class TestFaultSchedule:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(at=-1.0, kind="dp.crash")
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, kind="bogus")

    def test_events_sorted_by_time(self):
        sched = (FaultSchedule()
                 .add(30.0, "heal")
                 .add(10.0, "dp.crash", dp="dp0")
                 .add(20.0, "dp.restart", dp="dp0"))
        assert [e.at for e in sched] == [10.0, 20.0, 30.0]
        assert sched.horizon_s == 30.0

    def test_json_roundtrip(self):
        sched = (FaultSchedule(name="s")
                 .add(10.0, "link.fault", a="x", b="y", cut=True)
                 .add(20.0, "node.degrade", dp="dp0", factor=4.0))
        again = FaultSchedule.from_json(sched.to_json(), name="s")
        assert again.to_dicts() == sched.to_dicts()

    def test_all_kinds_constructible(self):
        for kind in FAULT_KINDS:
            FaultEvent(at=0.0, kind=kind)


class _DpStub:
    """Just enough surface for the injector's dp-targeted events."""

    class _Container:
        def __init__(self):
            self.degrade_factor = 1.0

        def set_degradation(self, factor):
            self.degrade_factor = factor

    def __init__(self):
        self.container = self._Container()
        self.crashed = 0
        self.restarted = 0

    def crash(self):
        self.crashed += 1

    def restart(self):
        self.restarted += 1


class _DeploymentStub:
    def __init__(self, dps):
        self.decision_points = dps

    def dp(self, dp_id):
        return self.decision_points[dp_id]


class TestFaultInjector:
    def _injector(self, schedule, seed=0):
        sim = Simulator()
        net = Network(sim, ConstantLatency(0.1))
        dps = {"dp0": _DpStub(), "dp1": _DpStub()}
        inj = FaultInjector(sim, net, schedule, np.random.default_rng(seed),
                            deployment=_DeploymentStub(dps))
        return sim, net, dps, inj

    def test_installs_fault_model(self):
        sim, net, dps, inj = self._injector(FaultSchedule())
        assert net.faults is inj.model

    def test_events_fire_at_scheduled_times(self):
        sched = (FaultSchedule()
                 .add(10.0, "link.fault", a="x", b="y", cut=True)
                 .add(20.0, "link.restore", a="x", b="y"))
        sim, net, dps, inj = self._injector(sched)
        assert inj.arm() == 2
        sim.run(until=5.0)
        assert net.faults.link_fault("x", "y") is None
        sim.run(until=15.0)
        assert net.faults.link_fault("x", "y").cut
        sim.run(until=25.0)
        assert net.faults.link_fault("x", "y") is None
        assert len(inj.applied) == 2
        assert sum(c.value for n, c in sim.metrics.counters.items()
                   if n.startswith("faults.apply.")) == 2

    def test_arm_twice_rejected(self):
        sim, net, dps, inj = self._injector(FaultSchedule())
        inj.arm()
        with pytest.raises(RuntimeError):
            inj.arm()

    def test_injection_traced_with_namespaced_args(self):
        """Tracing an event whose args include ``node`` must not
        collide with emit()'s own node= parameter (regression)."""
        sched = (FaultSchedule()
                 .add(10.0, "node.fault", node="dp0", loss=0.5)
                 .add(20.0, "node.restore", node="dp0"))
        sim, net, dps, inj = self._injector(sched)
        sim.trace.subscribe(sim.trace.ring)
        inj.arm()
        sim.run(until=30.0)
        events = [e for e in sim.trace.events()
                  if e.kind.startswith("faults.apply.")]
        assert [e.kind for e in events] == ["faults.apply.node.fault",
                                            "faults.apply.node.restore"]
        assert events[0].detail["arg_node"] == "dp0"
        assert events[0].node == "injector"

    def test_dp_crash_restart_dispatch(self):
        sched = (FaultSchedule()
                 .add(10.0, "dp.crash", dp="dp0")
                 .add(20.0, "dp.restart", dp="dp0"))
        sim, net, dps, inj = self._injector(sched)
        inj.arm()
        sim.run(until=30.0)
        assert dps["dp0"].crashed == 1
        assert dps["dp0"].restarted == 1
        assert dps["dp1"].crashed == 0

    def test_degrade_sets_container_factor(self):
        sched = (FaultSchedule()
                 .add(10.0, "node.degrade", dp="dp1", factor=4.0)
                 .add(20.0, "node.degrade", dp="dp1", factor=1.0))
        sim, net, dps, inj = self._injector(sched)
        inj.arm()
        sim.run(until=15.0)
        assert dps["dp1"].container.degrade_factor == 4.0
        sim.run(until=25.0)
        assert dps["dp1"].container.degrade_factor == 1.0

    def test_partition_and_heal_exact(self):
        """heal removes exactly the cuts the partition installed."""
        sched = (FaultSchedule()
                 .add(10.0, "partition", islands=[["a", "b"], ["c"]])
                 .add(20.0, "heal"))
        sim, net, dps, inj = self._injector(sched)
        # A pre-existing unrelated rule must survive the heal.
        inj.model.cut_link("q", "r", symmetric=False)
        inj.arm()
        sim.run(until=15.0)
        assert inj.model.link_fault("a", "c").cut
        assert inj.model.link_fault("c", "b").cut
        assert inj.model.link_fault("a", "b") is None  # same island
        sim.run(until=25.0)
        assert inj.model.link_fault("a", "c") is None
        assert inj.model.link_fault("q", "r").cut  # untouched

    def test_dp_event_without_deployment_is_error(self):
        sim = Simulator()
        net = Network(sim, ConstantLatency(0.1))
        sched = FaultSchedule().add(1.0, "dp.crash", dp="dp0")
        inj = FaultInjector(sim, net, sched, np.random.default_rng(0))
        inj.arm()
        with pytest.raises(RuntimeError):
            sim.run(until=5.0)


class TestScenarios:
    def test_all_scenarios_build(self):
        for name in scenario_names():
            sched = build_scenario(name, dp_ids=["dp0", "dp1"],
                                   hosts=["h0", "h1", "h2"], duration_s=600.0)
            assert len(sched) >= 1
            assert sched.horizon_s <= 600.0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            build_scenario("bogus", dp_ids=["dp0"], hosts=[], duration_s=60.0)

    def test_scenarios_are_pure(self):
        a = build_scenario("partition2", dp_ids=["dp0", "dp1"],
                           hosts=["h0", "h1"], duration_s=300.0)
        b = build_scenario("partition2", dp_ids=["dp0", "dp1"],
                           hosts=["h0", "h1"], duration_s=300.0)
        assert a.to_dicts() == b.to_dicts()

    def test_partition2_splits_hosts_across_islands(self):
        sched = build_scenario("partition2", dp_ids=["dp0", "dp1"],
                               hosts=["h0", "h1", "h2", "h3"],
                               duration_s=300.0)
        islands = sched.events[0].args["islands"]
        assert len(islands) == 2
        # Both islands contain a decision point and some hosts.
        assert any(m.startswith("dp") for m in islands[0])
        assert any(m.startswith("dp") for m in islands[1])
        assert any(m.startswith("h") for m in islands[0])
        assert any(m.startswith("h") for m in islands[1])


class TestFaultFreePathIsTheFaultPath:
    """The transport's fault-free send (one latency sample, one
    schedule) and its fault-layer send are the same model: with a fault
    layer installed that judges every message clean, a run is the run."""

    @staticmethod
    def _digest(install_empty_model: bool, **kw) -> str:
        from repro.experiments.configs import canonical_gt3
        from repro.experiments.parallel import summarize, summary_digest
        from repro.experiments.runner import build_experiment, run_built
        built = build_experiment(canonical_gt3(3, duration_s=600.0, **kw))
        if install_empty_model:
            model = TransportFaultModel(built.sim,
                                        np.random.default_rng(0))
            seen = []
            judge = model.on_message
            model.on_message = lambda msg: seen.append(msg.kind) or judge(msg)
            built.network.faults = model
        result = run_built(built)
        if install_empty_model:
            assert {"request", "response", "oneway"} <= set(seen)
            assert model.dropped == model.duplicated == 0
        return summary_digest(summarize(result))

    def test_an_empty_fault_model_changes_nothing(self):
        assert self._digest(True) == self._digest(False)

    # Recorded before the fault-free path was split off: a crash, lossy
    # links (drops) and duplicated, reordered copies.
    @pytest.mark.parametrize("scenario,digest", [
        ("dp_crash", "303e97b6"), ("flaky_dp", "42d576c8"),
        ("dup_reorder", "e5ff95cd")])
    def test_chaos_cell_keeps_its_digest(self, scenario, digest):
        assert self._digest(False, chaos_scenario=scenario) == digest

"""Regression tests for three formerly-silent failure paths.

Each test encodes a pre-fix failure mode and fails on the old code:

* ``Simulator.every`` — an exception in the periodic fn killed the
  chain silently (the reschedule only happened after a successful
  call), so one bad sync round permanently desynchronized a broker;
* ``Network.rpc`` — a completed RPC left its timeout ScheduledCall
  ticking in the heap, and a lost request/response with no timeout
  armed leaked its ``_pending_rpcs`` entry forever; caller timeouts
  were also invisible in ``stats.rpcs_failed``;
* ``GruberEngine.availabilities`` — with ``now`` omitted, stale
  dispatch records never aged out of ``estimated_vo_busy``, zeroing
  USLA headroom forever.
"""

import pytest

from repro.core import DispatchRecord, GridStateView, GruberEngine
from repro.faults.netem import LinkFault, TransportFaultModel
from repro.net import ConstantLatency, Endpoint, Network, RpcTimeout
from repro.sim import Simulator
from repro.usla import (
    Agreement,
    AgreementContext,
    FairShareRule,
    ServiceTerm,
    ShareKind,
)


@pytest.fixture
def sim():
    return Simulator()


# -- Simulator.every: errors must not kill the periodic chain -----------------

class TestEveryErrorPolicy:
    def test_record_keeps_chain_alive(self, sim):
        calls = []

        def fn():
            calls.append(sim.now)
            if len(calls) == 2:
                raise RuntimeError("one bad round")

        sim.every(1.0, fn, on_error="record")
        sim.run(until=5.5)
        # Pre-fix the tick at t=2 died without rescheduling: calls == 2.
        assert len(calls) == 5
        assert sim.metrics.counter_value("kernel.periodic_errors") == 1

    def test_raise_propagates_but_chain_survives(self, sim):
        calls = []

        def fn():
            calls.append(sim.now)
            if len(calls) == 2:
                raise RuntimeError("boom")

        sim.every(1.0, fn)  # default on_error="raise"
        with pytest.raises(RuntimeError, match="boom"):
            sim.run(until=5.5)
        # The next tick was rescheduled before the raise escaped, so
        # resuming the loop continues the chain (pre-fix it was dead).
        sim.run(until=5.5)
        assert len(calls) == 5

    def test_error_traced_with_timer_name(self, sim):
        sim.trace.subscribe(sim.trace.ring)

        def fn():
            raise ValueError("nope")

        sim.every(1.0, fn, on_error="record", name="sync:dp0")
        sim.run(until=2.5)
        events = sim.trace.events("kernel.periodic_errors")
        assert len(events) == 2
        assert events[0].node == "sync:dp0"
        assert "ValueError" in events[0].detail["error"]

    def test_on_error_callable(self, sim):
        seen = []

        def fn():
            raise KeyError("k")

        sim.every(1.0, fn, on_error=seen.append)
        sim.run(until=3.5)
        assert len(seen) == 3 and all(isinstance(e, KeyError) for e in seen)

    def test_invalid_policy_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.every(1.0, lambda: None, on_error="ignore")

    def test_cancel_wins_over_error_reschedule(self, sim):
        handle_box = {}

        def fn():
            handle_box["h"].cancel()
            raise RuntimeError("last gasp")

        handle_box["h"] = sim.every(1.0, fn, on_error="record")
        sim.run(until=10.0)
        assert sim.metrics.counter_value("kernel.periodic_errors") == 1


# -- Network.rpc: no leaked pending entries, no stray timeout calls ----------

class _ScriptedRng:
    """Deterministic .random() values for loss injection."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0) if self._values else 1.0


class TestRpcBookkeeping:
    @staticmethod
    def _lossy_net(sim, draws):
        """The a-b link loses a message whenever its scripted draw is
        below 0.5 (the fault layer: the one way a message is lost)."""
        net = Network(sim, ConstantLatency(0.1))
        net.faults = TransportFaultModel(sim, _ScriptedRng(draws))
        net.faults.set_link("a", "b", LinkFault(loss=0.5))
        return net

    def _echo_pair(self, net):
        Endpoint(net, "a")
        server = Endpoint(net, "b")
        server.register_handler("echo", lambda payload, src: payload)
        return server

    def test_timeout_call_cancelled_on_completion(self, sim):
        net = Network(sim, ConstantLatency(0.1))
        self._echo_pair(net)
        ev = net.rpc("a", "b", "echo", 42, timeout=1000.0)
        sim.run()
        assert ev.ok and ev.value == 42
        # Pre-fix the armed timeout stayed in the heap and the run
        # only ended once the clock reached it.
        assert sim.now < 1.0
        assert net._pending_rpcs == {}

    def test_timeout_counted_as_failure(self, sim):
        net = Network(sim, ConstantLatency(0.1))
        server = self._echo_pair(net)
        server.online = False
        ev = net.rpc("a", "b", "echo", 1, timeout=5.0)
        sim.run()
        assert ev.ok is False and isinstance(ev.value, RpcTimeout)
        assert net.stats.rpcs_failed == 1       # pre-fix: 0
        assert net.stats.rpcs_timed_out == 1
        assert net._pending_rpcs == {}

    def test_lost_request_without_timeout_reaped(self, sim):
        net = self._lossy_net(sim, [0.0])  # request dropped
        self._echo_pair(net)
        ev = net.rpc("a", "b", "echo", 1)
        sim.run()
        assert not ev.triggered  # caller hangs, like a crashed peer
        assert net._pending_rpcs == {}          # pre-fix: leaked forever
        assert net.stats.rpcs_lost == 1
        assert net.stats.rpcs_failed == 1

    def test_lost_response_without_timeout_reaped(self, sim):
        net = self._lossy_net(sim, [0.9, 0.0])  # response dropped
        self._echo_pair(net)
        ev = net.rpc("a", "b", "echo", 1)
        sim.run()
        assert not ev.triggered
        assert net._pending_rpcs == {}
        assert net.stats.rpcs_lost == 1

    def test_offline_endpoint_without_timeout_reaped(self, sim):
        net = Network(sim, ConstantLatency(0.1))
        server = self._echo_pair(net)
        server.online = False
        net.rpc("a", "b", "echo", 1)
        sim.run()
        assert net._pending_rpcs == {}
        assert net.stats.rpcs_lost == 1

    def test_lost_response_with_timeout_not_double_counted(self, sim):
        net = self._lossy_net(sim, [0.9, 0.0])
        self._echo_pair(net)
        ev = net.rpc("a", "b", "echo", 1, timeout=5.0)
        sim.run()
        # The armed timeout reaps the entry; the response loss must not
        # also fail it (one RPC, one failure).
        assert isinstance(ev.value, RpcTimeout)
        assert net.stats.rpcs_failed == 1
        assert net.stats.rpcs_timed_out == 1
        assert net.stats.rpcs_lost == 0
        assert net._pending_rpcs == {}


# -- VO-busy staleness: headroom must recover when records age out -----------

def _publish_share(engine, provider, consumer, pct):
    ag = Agreement(
        name=f"{provider}-{consumer}",
        context=AgreementContext(provider=provider, consumer=consumer),
        terms=[ServiceTerm("cpu", FairShareRule(
            provider, consumer, pct, ShareKind.UPPER_LIMIT))],
    )
    engine.usla_store.publish(ag)
    engine.invalidate_policy_cache()


class TestVoBusyExpiry:
    def test_availabilities_default_now_expires_stale_records(self):
        engine = GruberEngine("dp0", {"s0": 100, "s1": 50}, usla_aware=True,
                              assumed_job_lifetime_s=900.0)
        _publish_share(engine, "s0", "atlas", 20.0)
        engine.record_local_dispatch("s0", "atlas", cpus=20, now=0.0)
        assert engine.availabilities(vo="atlas")["s0"] == 0.0  # exhausted

        # Knowledge moves on: a peer record learned at t=2000 advances
        # the view's horizon far past the t=0 dispatch's lifetime.
        peer = GruberEngine("dp1", {"s0": 100, "s1": 50})
        rec = peer.record_local_dispatch("s1", "cms", cpus=1, now=1500.0)
        engine.merge_remote_records([rec], now=2000.0)

        # Pre-fix: availabilities() with now omitted never expired the
        # stale record, so atlas stayed pinned at zero headroom forever.
        assert engine.availabilities(vo="atlas")["s0"] == 20.0

    def test_estimated_vo_busy_explicit_now_expires(self):
        view = GridStateView({"s0": 100}, assumed_job_lifetime_s=900.0)
        view.apply_record(DispatchRecord(origin="dp0", seq=0, site="s0",
                                         vo="atlas", cpus=10, time=0.0))
        assert view.estimated_vo_busy("s0", "atlas") == 10.0
        assert view.estimated_vo_busy("s0", "atlas", now=1000.0) == 0.0
        # Free counts and VO attribution age out together.
        assert view.free_map(now=1000.0)["s0"] == 100.0

    def test_latest_time_tracks_all_knowledge_sources(self):
        view = GridStateView({"s0": 100})
        view.apply_record(DispatchRecord(origin="dp0", seq=0, site="s0",
                                         vo="atlas", cpus=1, time=5.0))
        assert view.latest_time == 5.0
        view.refresh_site("s0", busy_cpus=0.0, now=42.0)
        assert view.latest_time == 42.0
        view.expire(100.0)
        assert view.latest_time == 100.0

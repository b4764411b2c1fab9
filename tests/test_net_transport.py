"""Tests for the simulated transport and RPC layer."""

import pytest

from repro.net import ConstantLatency, Endpoint, Network, RpcError, RpcTimeout
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim):
    return Network(sim, ConstantLatency(0.1))


def make_endpoint(net, node_id):
    return Endpoint(net, node_id)


def deferred(sim, service_s, post):
    """A deferred handler: answers ``post(request)`` ``service_s`` after
    the request arrives."""
    def handler(request):
        request.post = post
        sim.schedule(service_s, request.served)
    return handler


class TestRegistration:
    def test_register_and_lookup(self, net):
        ep = make_endpoint(net, "a")
        assert net.endpoint("a") is ep
        assert "a" in net

    def test_duplicate_id_rejected(self, net):
        make_endpoint(net, "a")
        with pytest.raises(ValueError):
            make_endpoint(net, "a")

    def test_duplicate_handler_rejected(self, net):
        ep = make_endpoint(net, "a")
        ep.register_handler("op", lambda p, s: None)
        with pytest.raises(ValueError):
            ep.register_handler("op", lambda p, s: None)


class TestRpc:
    def test_round_trip_takes_two_latencies(self, sim, net):
        make_endpoint(net, "client")
        server = make_endpoint(net, "server")
        server.register_handler("echo", lambda payload, src: payload)
        done = []
        ev = net.rpc("client", "server", "echo", {"x": 1})
        ev.add_callback(lambda e: done.append((sim.now, e.value)))
        sim.run()
        assert done == [(pytest.approx(0.2), {"x": 1})]

    def test_deferred_handler_consumes_time(self, sim, net):
        make_endpoint(net, "client")
        server = make_endpoint(net, "server")
        server.register_handler("double",
                                deferred(sim, 2.0, lambda r: r.payload * 2),
                                deferred=True)
        ev = net.rpc("client", "server", "double", 21)
        done = []
        ev.add_callback(lambda e: done.append((sim.now, e.value)))
        sim.run()
        assert done == [(pytest.approx(2.2), 42)]

    def test_handler_exception_fails_rpc(self, sim, net):
        make_endpoint(net, "client")
        server = make_endpoint(net, "server")
        server.register_handler("boom", lambda p, s: (_ for _ in ()).throw(ValueError("bad")))
        ev = net.rpc("client", "server", "boom")
        sim.run()
        assert ev.ok is False and isinstance(ev.value, RpcError)
        assert "bad" in str(ev.value)

    def test_deferred_handler_exception_fails_rpc(self, sim, net):
        make_endpoint(net, "client")
        server = make_endpoint(net, "server")

        def post(request):
            raise KeyError("missing")

        server.register_handler("boom", deferred(sim, 1.0, post),
                                deferred=True)
        ev = net.rpc("client", "server", "boom")
        sim.run()
        assert ev.ok is False and isinstance(ev.value, RpcError)

    def test_missing_handler_fails_rpc(self, sim, net):
        make_endpoint(net, "client")
        make_endpoint(net, "server")
        ev = net.rpc("client", "server", "nope")
        sim.run()
        assert ev.ok is False and "no handler" in str(ev.value)

    def test_unknown_destination_raises_immediately(self, net):
        make_endpoint(net, "client")
        with pytest.raises(KeyError):
            net.rpc("client", "ghost", "op")

    def test_timeout_fails_but_server_completes(self, sim, net):
        make_endpoint(net, "client")
        server = make_endpoint(net, "server")
        served = []

        def post(request):
            served.append(sim.now)
            return "late"

        server.register_handler("slow", deferred(sim, 10.0, post),
                                deferred=True)
        ev = net.rpc("client", "server", "slow", timeout=1.0)
        sim.run()
        # Caller saw a timeout...
        assert ev.ok is False and isinstance(ev.value, RpcTimeout)
        # ...but the server still did the work (paper's discard semantics).
        assert served == [pytest.approx(10.1)]
        assert net.stats.rpcs_completed == 0

    def test_response_after_timeout_discarded_quietly(self, sim, net):
        make_endpoint(net, "client")
        server = make_endpoint(net, "server")

        server.register_handler("slow", deferred(sim, 5.0, lambda r: "x"),
                                deferred=True)
        net.rpc("client", "server", "slow", timeout=0.5)
        sim.run()  # must not raise when the response arrives at t=5.2

    def test_payload_size_adds_transfer_time(self, sim):
        net = Network(sim, ConstantLatency(0.1), kb_transfer_s=0.01)
        make_endpoint(net, "c")
        server = make_endpoint(net, "s")
        server.register_handler("get", lambda p, s: "data")
        done = []
        ev = net.rpc("c", "s", "get", size_kb=10.0, response_size_kb=100.0)
        ev.add_callback(lambda e: done.append(sim.now))
        sim.run()
        # 0.1 + 10*0.01 out, 0.1 + 100*0.01 back = 1.3
        assert done == [pytest.approx(1.3)]

    def test_stats_counters(self, sim, net):
        make_endpoint(net, "c")
        server = make_endpoint(net, "s")
        server.register_handler("ok", lambda p, s: 1)
        server.register_handler("bad", lambda p, s: (_ for _ in ()).throw(RuntimeError()))
        net.rpc("c", "s", "ok")
        net.rpc("c", "s", "bad")
        sim.run()
        assert net.stats.rpcs_started == 2
        assert net.stats.rpcs_completed == 1
        assert net.stats.rpcs_failed == 1
        assert net.stats.per_op == {"ok": 1, "bad": 1}

    def test_concurrent_rpcs_independent(self, sim, net):
        make_endpoint(net, "c")
        server = make_endpoint(net, "s")
        server.register_handler("echo", lambda p, s: p)
        results = []
        for i in range(5):
            net.rpc("c", "s", "echo", i).add_callback(
                lambda e: results.append(e.value))
        sim.run()
        assert sorted(results) == [0, 1, 2, 3, 4]


class TestContinuationForm:
    def test_then_is_called_once_with_the_outcome(self, sim, net):
        make_endpoint(net, "client")
        server = make_endpoint(net, "server")
        server.register_handler("echo", lambda payload, src: payload)
        server.register_handler("boom", lambda p, s: {}["nope"])
        seen = []
        for op in ("echo", "boom"):
            net.rpc("client", "server", op, 7,
                    then=lambda ok, value: seen.append((sim.now, ok, value)))
        sim.run()
        assert [(t, ok) for t, ok, _ in seen] == [(pytest.approx(0.2), True),
                                                 (pytest.approx(0.2), False)]
        assert seen[0][2] == 7 and isinstance(seen[1][2], RpcError)
        # Two deliveries and two returns: no hop between them.
        assert sim.events_executed == 4

    def test_timeout_reaches_then_as_rpc_timeout(self, sim, net):
        make_endpoint(net, "client")
        server = make_endpoint(net, "server")
        server.register_handler("slow", deferred(sim, 5.0, lambda r: "x"),
                                deferred=True)
        seen = []
        net.rpc("client", "server", "slow", timeout=1.0,
                then=lambda ok, value: seen.append((sim.now, ok, value)))
        sim.run()
        assert len(seen) == 1 and seen[0][:2] == (1.0, False)
        assert isinstance(seen[0][2], RpcTimeout)

    def test_detached_caller_is_not_called_but_rpc_is_counted(self, sim, net):
        make_endpoint(net, "client")
        server = make_endpoint(net, "server")
        server.register_handler("echo", lambda payload, src: payload)
        seen = []
        handle = net.rpc("client", "server", "echo", 1,
                         then=lambda ok, value: seen.append(value))
        handle.then = None
        sim.run()
        assert seen == [] and net.stats.rpcs_completed == 1
        assert net._pending_rpcs == {}


class TestRpcMetrics:
    def test_outcome_counters_appear_on_first_use_and_count_exactly(
            self, sim, net):
        make_endpoint(net, "c")
        server = make_endpoint(net, "s")
        server.register_handler("ok", lambda p, s: 1)
        server.register_handler("bad", lambda p, s: {}["nope"])
        server.register_handler("slow", deferred(sim, 5.0, lambda r: 1),
                                deferred=True)
        metrics = sim.metrics
        assert not any(n.startswith("rpc.") for n in metrics.counters)
        assert "rpc.latency_s" not in metrics.histograms
        net.rpc("c", "s", "ok")
        sim.run()
        assert sorted(n for n in metrics.counters if n.startswith("rpc.")) \
            == ["rpc.ok"]
        for op in ("ok", "ok", "bad", "slow"):
            net.rpc("c", "s", op, timeout=1.0)
        sim.run()
        counts = {n: c.value for n, c in metrics.counters.items()
                  if n.startswith("rpc.")}
        assert counts == {"rpc.ok": 3, "rpc.error": 1, "rpc.timeout": 1}
        assert metrics.histograms["rpc.latency_s"].count == 5

    def test_event_names_are_formatted_only_when_tracing(self, sim, net):
        make_endpoint(net, "c")
        make_endpoint(net, "s")
        assert net.rpc("c", "s", "op").name == "rpc"
        sim.trace.subscribe(sim.trace.ring)
        assert net.rpc("c", "s", "op").name == "rpc:op:2"


class TestOneway:
    def test_oneway_delivery(self, sim, net):
        make_endpoint(net, "a")

        class Sink(Endpoint):
            def __init__(self, network, node_id):
                super().__init__(network, node_id)
                self.received = []

            def on_oneway(self, msg):
                self.received.append((sim.now, msg.op, msg.payload))

        sink = Sink(net, "b")
        net.send_oneway("a", "b", "gossip", [1, 2, 3])
        sim.run()
        assert sink.received == [(pytest.approx(0.1), "gossip", [1, 2, 3])]

    def test_oneway_unknown_destination(self, net):
        make_endpoint(net, "a")
        with pytest.raises(KeyError):
            net.send_oneway("a", "ghost", "x", None)

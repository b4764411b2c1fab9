"""Tests for decision points, monitor, and the sync protocol."""

import pytest

from repro.core import DecisionPoint, DisseminationStrategy, SiteMonitor
from repro.core.engine import GruberEngine
from repro.grid import Cluster, GridBuilder, Job, Site
from repro.net import ConstantLatency, GT3_PROFILE, Network, RpcError
from repro.sim import RngRegistry, Simulator
from repro.usla import Agreement, AgreementContext


@pytest.fixture
def env():
    sim = Simulator()
    rng = RngRegistry(0)
    net = Network(sim, ConstantLatency(0.05))
    grid = GridBuilder(sim, rng.stream("grid")).uniform(
        n_sites=4, cpus_per_site=16)
    return sim, rng, net, grid


def make_dp(env, node_id="dp0", **kw):
    sim, rng, net, grid = env
    defaults = dict(monitor_interval_s=60.0, sync_interval_s=30.0)
    defaults.update(kw)
    return DecisionPoint(sim, net, node_id, grid, GT3_PROFILE,
                         rng.stream(f"dp:{node_id}"), **defaults)


class TestSiteMonitor:
    def test_sweep_feeds_engine(self, env):
        sim, rng, net, grid = env
        engine = GruberEngine("m", {s.name: s.total_cpus
                                    for s in grid.sites.values()})
        site = grid.site(grid.site_names[0])
        site.submit(Job(vo="v", group="g", user="u", cpus=4, duration_s=1000.0))
        mon = SiteMonitor(sim, grid, engine, interval_s=60.0)
        mon.sweep()
        assert engine.availabilities()[site.name] == 12.0
        assert mon.sweeps == 1

    def test_periodic_sweeps(self, env):
        sim, rng, net, grid = env
        engine = GruberEngine("m", {s.name: s.total_cpus
                                    for s in grid.sites.values()})
        mon = SiteMonitor(sim, grid, engine, interval_s=60.0)
        mon.start(initial=True)
        sim.run(until=200.0)
        assert mon.sweeps == 4  # t=0, 60, 120, 180

    def test_stop(self, env):
        sim, rng, net, grid = env
        engine = GruberEngine("m", {s.name: s.total_cpus
                                    for s in grid.sites.values()})
        mon = SiteMonitor(sim, grid, engine, interval_s=10.0)
        mon.start(initial=False)
        sim.run(until=25.0)
        mon.stop()
        sim.run(until=100.0)
        assert mon.sweeps == 2

    def test_double_start_rejected(self, env):
        sim, rng, net, grid = env
        engine = GruberEngine("m", {s.name: s.total_cpus
                                    for s in grid.sites.values()})
        mon = SiteMonitor(sim, grid, engine)
        mon.start()
        with pytest.raises(RuntimeError):
            mon.start()


class TestDecisionPointHandlers:
    def test_get_state_returns_availability(self, env):
        sim, rng, net, grid = env
        dp = make_dp(env)
        dp.start(neighbors=[])
        results = []
        ev = net.rpc("client", "dp0", "get_state", {"vo": "vo0"})
        ev.add_callback(lambda e: results.append(e.value))
        sim.run(until=30.0)
        assert results and set(results[0]) == set(grid.site_names)
        assert all(v == 16.0 for v in results[0].values())

    def test_report_dispatch_updates_view(self, env):
        sim, rng, net, grid = env
        dp = make_dp(env)
        dp.start(neighbors=[])
        target = grid.site_names[0]
        net.rpc("client", "dp0", "report_dispatch",
                {"site": target, "vo": "vo0", "cpus": 8})
        sim.run(until=10.0)
        assert dp.engine.view.estimated_free(target) == 8.0

    def test_query_consumes_container_time(self, env):
        sim, rng, net, grid = env
        dp = make_dp(env)
        dp.start(neighbors=[])
        done_at = []
        ev = net.rpc("client", "dp0", "get_state", {})
        ev.add_callback(lambda e: done_at.append(sim.now))
        sim.run(until=30.0)
        # 2 x 0.05 latency + ~0.42 s service (lognormal).
        assert done_at and done_at[0] > 0.2

    def test_create_instance(self, env):
        sim, rng, net, grid = env
        dp = make_dp(env)
        dp.start(neighbors=[])
        results = []
        net.rpc("client", "dp0", "create_instance", {}).add_callback(
            lambda e: results.append(e.value))
        sim.run(until=10.0)
        assert results == [{"created": True}]

    def test_handler_failing_after_its_service_answers_rpc_error(self, env):
        sim, rng, net, grid = env
        dp = make_dp(env)
        dp.start(neighbors=[])
        ev = net.rpc("client", "dp0", "report_dispatch",
                     {"site": "no-such-site", "vo": "vo0", "cpus": 1})
        sim.run(until=10.0)
        assert ev.ok is False and isinstance(ev.value, RpcError)
        assert "no-such-site" in str(ev.value)
        # It failed after the service time, and handed its slot back.
        assert dp.container.completed_ops == 1
        assert dp.container.in_service == 0

    def test_shed_request_answers_rpc_error_one_round_trip_later(self, env):
        sim, rng, net, grid = env
        dp = make_dp(env, max_queue=1)
        dp.start(neighbors=[])
        outcomes = []
        for _ in range(3):
            net.rpc("client", "dp0", "get_state", {}).add_callback(
                lambda e: outcomes.append((sim.now, e.ok, e.value)))
        sim.run(until=30.0)
        shed = outcomes[0]
        assert shed[:2] == (pytest.approx(0.1), False)
        assert isinstance(shed[2], RpcError) and "OverloadShed" in str(shed[2])
        assert [ok for _, ok, _ in outcomes[1:]] == [True, True]
        assert dp.container.shed_ops == 1

    def test_state_response_kb_scales_with_sites(self, env):
        dp = make_dp(env, site_state_kb=0.06)
        assert dp.state_response_kb == pytest.approx(4 * 0.06)

    def test_double_start_rejected(self, env):
        dp = make_dp(env)
        dp.start(neighbors=[])
        with pytest.raises(RuntimeError):
            dp.start()


class TestSyncProtocol:
    def test_records_flow_between_peers(self, env):
        sim, rng, net, grid = env
        dp0 = make_dp(env, "dp0", sync_interval_s=30.0)
        dp1 = make_dp(env, "dp1", sync_interval_s=30.0)
        dp0.start(neighbors=["dp1"])
        dp1.start(neighbors=["dp0"])
        target = grid.site_names[0]
        sim.run(until=1.0)  # past the initial monitor sweep
        dp0.engine.record_local_dispatch(target, "vo0", cpus=8, now=sim.now)
        # Before a sync round, dp1 is stale.
        assert dp1.engine.view.estimated_free(target) == 16.0
        sim.run(until=40.0)
        assert dp1.engine.view.estimated_free(target) == 8.0
        assert dp1.sync.records_adopted >= 1

    def test_no_sync_when_strategy_none(self, env):
        sim, rng, net, grid = env
        dp0 = make_dp(env, "dp0", strategy=DisseminationStrategy.NONE)
        dp1 = make_dp(env, "dp1", strategy=DisseminationStrategy.NONE)
        dp0.start(neighbors=["dp1"])
        dp1.start(neighbors=["dp0"])
        dp0.engine.record_local_dispatch(grid.site_names[0], "vo0", 8, sim.now)
        sim.run(until=120.0)
        assert dp1.sync.records_received == 0

    def test_usla_dissemination(self, env):
        sim, rng, net, grid = env
        kw = dict(strategy=DisseminationStrategy.USAGE_AND_USLA,
                  sync_interval_s=30.0)
        dp0 = make_dp(env, "dp0", **kw)
        dp1 = make_dp(env, "dp1", **kw)
        dp0.start(neighbors=["dp1"])
        dp1.start(neighbors=["dp0"])
        ag = Agreement("grid-atlas", AgreementContext("grid", "atlas"))
        dp0.engine.usla_store.publish(ag)
        sim.run(until=45.0)
        assert "grid-atlas" in dp1.engine.usla_store

    def test_flooding_reaches_across_line_topology(self, env):
        """Records relayed hop-by-hop reach non-neighbors."""
        sim, rng, net, grid = env
        dps = [make_dp(env, f"dp{i}", sync_interval_s=20.0,
                       monitor_interval_s=300.0) for i in range(3)]
        dps[0].start(neighbors=["dp1"])
        dps[1].start(neighbors=["dp0", "dp2"])
        dps[2].start(neighbors=["dp1"])
        target = grid.site_names[0]
        sim.run(until=1.0)  # past the initial monitor sweep
        dps[0].engine.record_local_dispatch(target, "vo0", cpus=4, now=sim.now)
        sim.run(until=70.0)  # >= 2 sync rounds with jitter
        assert dps[2].engine.view.estimated_free(target) == 12.0

    def test_monitor_plus_records_no_double_count(self, env):
        """A dispatch reported and then observed by the monitor is not
        counted twice."""
        sim, rng, net, grid = env
        dp0 = make_dp(env, "dp0", monitor_interval_s=50.0)
        dp1 = make_dp(env, "dp1", monitor_interval_s=50.0,
                      sync_interval_s=30.0)
        dp0.start(neighbors=["dp1"])
        dp1.start(neighbors=["dp0"])
        target = grid.site_names[0]
        job = Job(vo="vo0", group="g", user="u", cpus=8, duration_s=10000.0)
        grid.site(target).submit(job)  # ground truth: 8 busy
        dp0.engine.record_local_dispatch(target, "vo0", cpus=8, now=sim.now)
        sim.run(until=200.0)  # several sync + monitor rounds
        assert dp0.engine.view.estimated_busy(target) == 8.0
        assert dp1.engine.view.estimated_busy(target) == 8.0


class TestDeltaPayloadSharing:
    """A delta tick on the mesh scans the learn order once per distinct
    peer watermark and hands those peers ONE shared list — which is only
    sound while every receiver treats its payload as read-only."""

    @pytest.fixture
    def mesh(self):
        from repro.core.broker import DIGruberDeployment
        sim = Simulator()
        rng = RngRegistry(11)
        net = Network(sim, ConstantLatency(0.03))
        grid = GridBuilder(sim, rng.stream("grid")).uniform(
            n_sites=6, cpus_per_site=64)
        deployment = DIGruberDeployment(
            sim=sim, network=net, grid=grid, profile=GT3_PROFILE, rng=rng,
            n_decision_points=10, sync_delta=True)
        dps = list(deployment.decision_points.values())
        sent = []  # (dst, records list) of every sync message
        send = net.send_oneway

        def spy(src, dst, op, payload, **kw):
            sent.append((dst, payload["records"]))
            return send(src, dst, op, payload, **kw)
        net.send_oneway = spy
        return sim, grid, dps, sent

    @staticmethod
    def _dispatch(dp, grid, n, now):
        for k in range(n):
            dp.engine.record_local_dispatch(
                site=grid.site_names[k % 6], vo=f"vo{k % 3}", cpus=1, now=now)

    @staticmethod
    def _scans(dp):
        """Count the tick's ``records_since`` evaluations."""
        calls = []
        scan = dp.engine.view.records_since
        dp.engine.view.records_since = lambda seq: (calls.append(seq),
                                                    scan(seq))[1]
        return calls

    def test_one_scan_per_distinct_watermark(self, mesh):
        sim, grid, dps, sent = mesh
        dp0 = dps[0]
        scans = self._scans(dp0)
        self._dispatch(dp0, grid, 5, now=0.0)
        dp0.sync.tick()
        assert scans == [0]  # nine peers, one watermark, one scan
        lists = [records for _dst, records in sent]
        assert len(lists) == 9 and len(lists[0]) == 5
        assert all(records is lists[0] for records in lists)
        # A peer that lags (say, it rejoined) holds its own watermark:
        # two distinct marks, two scans, two lists of different length.
        del scans[:], sent[:]
        dp0.sync._peer_marks["dp4"] = 2
        self._dispatch(dp0, grid, 3, now=1.0)
        dp0.sync.tick()
        assert sorted(scans) == [2, 5]
        by_peer = dict(sent)
        assert [r.seq for r in by_peer["dp4"]] == [3, 4, 5, 6, 7, 8]
        assert [r.seq for r in by_peer["dp1"]] == [6, 7, 8]
        assert by_peer["dp1"] == by_peer["dp9"]
        assert set(dp0.sync._peer_marks.values()) == {8}
        assert dp0.sync.records_sent == 9 * 5 + 8 * 3 + 6

    def test_receivers_leave_the_shared_list_alone(self, mesh):
        sim, grid, dps, sent = mesh
        dp0, peers = dps[0], dps[1:]
        self._dispatch(dp0, grid, 5, now=0.0)
        for dp in peers:  # peers hold records of their own to echo back
            self._dispatch(dp, grid, 2, now=0.0)
        dp0.sync.tick()
        shared = sent[0][1]
        at_send = list(shared)
        sim.run(until=5.0)  # nine receivers merge the one list in turn
        assert shared == at_send
        # The last receiver was offered exactly what the first one was.
        assert [dp.sync.records_adopted for dp in peers] == [5] * 9
        # ... and what the sender offers next is unaffected by the merges:
        # only what it learns from the peers' own ticks, in learn order.
        for dp in peers:
            dp.sync.tick()
        sim.run(until=10.0)
        del sent[:]
        dp0.sync.tick()
        assert all(records is sent[0][1] for _dst, records in sent)
        assert [r.key for r in sent[0][1]] == [
            (f"dp{i}", seq) for i in range(1, 10) for seq in (1, 2)]

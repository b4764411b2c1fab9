"""Tests for repro.resilience: backoff, breaker, failover, client wiring."""

import numpy as np
import pytest

from repro.core import DecisionPoint, DIGruberDeployment, GruberClient, \
    LeastUsedSelector
from repro.grid import GridBuilder
from repro.net import ConstantLatency, GT3_PROFILE, Network
from repro.net.container import ContainerProfile
from repro.resilience import CircuitBreaker, FailoverManager, ResilienceConfig
from repro.sim import RngRegistry, Simulator
from repro.workloads import HostWorkload, TraceRecorder

from tests.test_core_client import FAST_PROFILE

#: FAST_PROFILE with a slow dispatch report: the resync test needs the
#: pull_records handler to finish *after* a record lands on the peer.
SLOW_REPORT_PROFILE = ContainerProfile(
    name="slowreport", query_service_s=0.1, report_service_s=1.0,
    query_concurrency=1, query_rtts=1, client_overhead_s=0.1,
    instance_service_s=0.05, instance_concurrency=1, instance_rtts=1,
    instance_client_overhead_s=0.05, sigma=0.0)


@pytest.fixture
def env():
    sim = Simulator()
    rng = RngRegistry(8)
    net = Network(sim, ConstantLatency(0.05))
    grid = GridBuilder(sim, rng.stream("grid")).uniform(n_sites=4,
                                                        cpus_per_site=50)
    return sim, rng, net, grid


def advance(sim, dt):
    """Move the DES clock forward by dt."""
    target = sim.now + dt
    sim.schedule(dt, lambda: None)
    sim.run(until=target)


def make_workload(grid, host, arrivals, duration_s=50.0):
    """A fully deterministic workload: explicit arrival instants."""
    vo = next(iter(grid.vos))
    group = next(iter(vo.groups.values()))
    n = len(arrivals)
    return HostWorkload(
        host=host, arrivals=np.asarray(arrivals, dtype=float),
        identity=np.zeros(n, dtype=np.uint8),
        identities=((vo.name, group.name, "u"),), cpus=np.ones(n, dtype=int),
        durations=np.full(n, duration_s))


def make_client(sim, net, grid, rng, dp_id="dp0", arrivals=(10.0,),
                timeout_s=5.0, resilience=None, failover=None):
    client = GruberClient(
        sim, net, "h0", dp_id, grid,
        make_workload(grid, "h0", list(arrivals)),
        selector=LeastUsedSelector(rng.stream("sel")),
        profile=FAST_PROFILE, rng=rng.stream("cli"),
        trace=TraceRecorder(), timeout_s=timeout_s,
        state_response_kb=0.0, resilience=resilience, failover=failover)
    client.start()
    return client


class TestResilienceConfig:
    def test_defaults_valid(self):
        ResilienceConfig()

    @pytest.mark.parametrize("bad", [
        {"max_attempts": 0},
        {"attempt_timeout_s": -1.0},
        {"backoff_base_s": -1.0},
        {"backoff_factor": 0.5},
        {"backoff_jitter": 1.5},
        {"breaker_threshold": 0},
        {"breaker_open_s": -1.0},
        {"probe_interval_s": 0.0},
        {"probe_unhealthy_after": 0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ResilienceConfig(**bad)

    def test_backoff_exponential_capped(self):
        cfg = ResilienceConfig(backoff_base_s=2.0, backoff_factor=2.0,
                               backoff_max_s=30.0, backoff_jitter=0.0)
        rng = np.random.default_rng(0)
        delays = [cfg.backoff_delay(a, rng) for a in range(1, 7)]
        assert delays == [2.0, 4.0, 8.0, 16.0, 30.0, 30.0]

    def test_backoff_jitter_bounded(self):
        cfg = ResilienceConfig(backoff_base_s=4.0, backoff_jitter=0.5)
        rng = np.random.default_rng(0)
        delays = [cfg.backoff_delay(1, rng) for _ in range(100)]
        assert all(4.0 <= d <= 6.0 for d in delays)
        assert len(set(delays)) > 50

    def test_backoff_attempt_one_based(self):
        with pytest.raises(ValueError):
            ResilienceConfig().backoff_delay(0, np.random.default_rng(0))


class TestCircuitBreaker:
    def _breaker(self, threshold=3, open_s=60.0):
        sim = Simulator()
        return sim, CircuitBreaker(sim, "h0", "dp0", threshold=threshold,
                                   open_s=open_s)

    def test_closed_allows(self):
        sim, br = self._breaker()
        assert br.state == "closed" and br.allow()

    def test_below_threshold_stays_closed(self):
        sim, br = self._breaker(threshold=3)
        br.on_failure()
        br.on_failure()
        assert br.state == "closed" and br.allow()

    def test_opens_at_threshold(self):
        sim, br = self._breaker(threshold=3)
        for _ in range(3):
            br.on_failure()
        assert br.state == "open"
        assert not br.allow()
        assert br.opened_count == 1
        assert sim.metrics.counter_value("breaker.open") == 1

    def test_half_open_after_cooldown(self):
        sim, br = self._breaker(threshold=1, open_s=60.0)
        br.on_failure()
        assert not br.allow()
        advance(sim, 61.0)
        assert br.allow()             # the transition happens here
        assert br.state == "half_open"
        assert sim.metrics.counter_value("breaker.half_open") == 1

    def test_half_open_success_closes(self):
        sim, br = self._breaker(threshold=1, open_s=10.0)
        br.on_failure()
        advance(sim, 11.0)
        assert br.allow()
        br.on_success()
        assert br.state == "closed" and br.failures == 0
        assert sim.metrics.counter_value("breaker.closed") == 1

    def test_half_open_failure_reopens(self):
        sim, br = self._breaker(threshold=3, open_s=10.0)
        for _ in range(3):
            br.on_failure()
        advance(sim, 11.0)
        assert br.allow()
        br.on_failure()               # single failure: straight back open
        assert br.state == "open"
        assert br.opened_count == 2
        assert br.open_until == pytest.approx(sim.now + 10.0)

    def test_success_resets_failure_streak(self):
        sim, br = self._breaker(threshold=3)
        br.on_failure()
        br.on_failure()
        br.on_success()
        br.on_failure()
        br.on_failure()
        assert br.state == "closed"   # streak broken: never reached 3

    def test_state_transitions_traced(self):
        sim, br = self._breaker(threshold=1, open_s=5.0)
        sim.trace.subscribe(sim.trace.ring)
        br.on_failure()
        advance(sim, 6.0)
        br.allow()
        br.on_success()
        states = [e.kind for e in sim.trace.events()
                  if e.kind.startswith("breaker.")]
        assert states == ["breaker.open", "breaker.half_open",
                          "breaker.closed"]


class _ContainerStub:
    def __init__(self, queue_len):
        self.queue_len = queue_len


class _DpStub:
    def __init__(self, queue_len):
        self.container = _ContainerStub(queue_len)


class _DeploymentStub:
    def __init__(self, queues):
        self.decision_points = {d: _DpStub(q) for d, q in queues.items()}


class TestFailoverChoose:
    def _manager(self, queues):
        sim = Simulator()
        fm = FailoverManager(sim, None, _DeploymentStub(queues),
                             ResilienceConfig())
        return sim, fm

    def test_ranks_by_queue_then_id(self):
        sim, fm = self._manager({"dp0": 0, "dp1": 5, "dp2": 2})
        assert fm.choose("dp0") == "dp2"

    def test_id_breaks_queue_ties(self):
        sim, fm = self._manager({"dp0": 0, "dp1": 3, "dp2": 3})
        assert fm.choose("dp0") == "dp1"

    def test_skips_current(self):
        sim, fm = self._manager({"dp0": 0, "dp1": 9})
        assert fm.choose("dp0") == "dp1"

    def test_skips_unhealthy(self):
        sim, fm = self._manager({"dp0": 0, "dp1": 1, "dp2": 9})
        fm._misses["dp1"] = fm.policy.probe_unhealthy_after
        assert fm.choose("dp0") == "dp2"

    def test_respects_allow_predicate(self):
        sim, fm = self._manager({"dp0": 0, "dp1": 1, "dp2": 9})
        assert fm.choose("dp0", allow=lambda d: d != "dp1") == "dp2"

    def test_none_when_no_candidates(self):
        sim, fm = self._manager({"dp0": 0})
        assert fm.choose("dp0") is None


class TestFailoverProbing:
    def _stack(self, env, policy=None):
        sim, rng, net, grid = env
        policy = policy or ResilienceConfig(probe_interval_s=10.0,
                                            probe_timeout_s=3.0,
                                            probe_unhealthy_after=2)
        dep = DIGruberDeployment(sim, net, grid, FAST_PROFILE, rng,
                                 n_decision_points=2)
        fm = FailoverManager(sim, net, dep, policy)
        dep.start()
        fm.start()
        return sim, dep, fm

    def test_live_dps_stay_healthy(self, env):
        sim, dep, fm = self._stack(env)
        sim.run(until=45.0)
        assert fm.healthy("dp0") and fm.healthy("dp1")
        assert fm.probes_failed == 0
        assert fm.probes_sent >= 8
        assert sim.metrics.counter_value("failover.probes") == fm.probes_sent

    def test_dead_dp_marked_unhealthy(self, env):
        sim, dep, fm = self._stack(env)
        dep.dp("dp1").crash()
        sim.run(until=60.0)
        assert fm.healthy("dp0")
        assert not fm.healthy("dp1")
        assert fm.probes_failed >= 2
        assert sim.metrics.counter_value("failover.dp_unhealthy") == 1

    def test_restarted_dp_recovers(self, env):
        sim, dep, fm = self._stack(env)
        dep.dp("dp1").crash()
        sim.run(until=60.0)
        assert not fm.healthy("dp1")
        dep.dp("dp1").restart(resync=False)
        sim.run(until=100.0)
        assert fm.healthy("dp1")
        assert sim.metrics.counter_value("failover.dp_recovered") == 1

    def test_start_is_idempotent(self, env):
        sim, dep, fm = self._stack(env)
        fm.start()                      # second call: no duplicate ticker
        sim.run(until=25.0)
        assert fm.probes_sent == 4      # 2 dps x 2 ticks

    def test_probes_never_raise_into_kernel(self, env):
        sim, dep, fm = self._stack(env)
        dep.dp("dp0").crash()
        dep.dp("dp1").crash()
        sim.run(until=120.0)
        assert sim.metrics.counter_value("kernel.unhandled_failures") == 0
        assert sim.metrics.counter_value("kernel.periodic_errors") == 0


class TestDecisionPointCrashRestart:
    def _dp(self, env, profile=GT3_PROFILE, **kw):
        sim, rng, net, grid = env
        return DecisionPoint(sim, net, "dp0", grid, profile,
                             rng.stream("dp"), monitor_interval_s=600.0, **kw)

    def test_crash_idempotent_single_count(self, env):
        sim, rng, net, grid = env
        dp = self._dp(env)
        dp.start(neighbors=[])
        dp.crash()
        dp.crash()
        assert dp.crashes == 1
        assert sim.metrics.counter_value("dp.crash") == 1

    def test_restart_idempotent_single_count(self, env):
        sim, rng, net, grid = env
        dp = self._dp(env)
        dp.start(neighbors=[])
        dp.crash()
        dp.restart(resync=False)
        dp.restart(resync=False)
        assert dp.online and dp.started
        assert dp.restarts == 1
        assert sim.metrics.counter_value("dp.restart") == 1

    def test_restart_on_running_dp_is_noop(self, env):
        sim, rng, net, grid = env
        dp = self._dp(env)
        dp.start(neighbors=[])
        dp.restart()
        assert dp.restarts == 0

    def test_crash_restart_traced(self, env):
        sim, rng, net, grid = env
        sim.trace.subscribe(sim.trace.ring)
        dp = self._dp(env)
        dp.start(neighbors=[])
        dp.crash()
        dp.restart(resync=False)
        assert len(sim.trace.events("dp.crash")) == 1
        restarts = sim.trace.events("dp.restart")
        assert len(restarts) == 1
        assert restarts[0].detail["resync"] is False

    def test_resync_adopts_post_restart_peer_records(self, env):
        """Records a peer learns after the restart sweep get adopted.

        The restart's initial monitor sweep resets the view's base time
        to the restart instant, so only records newer than that survive
        the merge — ground truth supersedes anything older.
        """
        sim, rng, net, grid = env
        dp0 = DecisionPoint(sim, net, "dp0", grid, SLOW_REPORT_PROFILE,
                            rng.stream("a"), monitor_interval_s=600.0,
                            sync_interval_s=1e6)
        dp1 = DecisionPoint(sim, net, "dp1", grid, SLOW_REPORT_PROFILE,
                            rng.stream("b"), monitor_interval_s=600.0,
                            sync_interval_s=1e6)
        dp0.start(neighbors=["dp1"])
        dp1.start(neighbors=["dp0"])
        sim.run(until=50.0)
        dp0.crash()
        # dp0 restarts at t=100; its pull_records request reaches dp1 at
        # ~100.05 and is answered at ~101.05 (1 s report service time).
        # The peer record lands at t=100.5: after the restart sweep, so
        # it survives the base-time filter, and before the pull response
        # is built, so it is included.
        sim.schedule_at(100.0, dp0.restart)
        sim.schedule_at(100.5, lambda: dp1.engine.record_local_dispatch(
            grid.site_names[0], "vo0", 4, now=sim.now))
        sim.run(until=300.0)
        assert dp0.resync_records == 1
        assert sim.metrics.counter_value("dp.resync_records") == 1
        assert dp0.resync_failures == 0

    def test_resync_rejects_downtime_records(self, env):
        """Records older than the restart sweep are ground-truth-superseded."""
        sim, rng, net, grid = env
        dp0 = DecisionPoint(sim, net, "dp0", grid, SLOW_REPORT_PROFILE,
                            rng.stream("a"), monitor_interval_s=600.0,
                            sync_interval_s=1e6)
        dp1 = DecisionPoint(sim, net, "dp1", grid, SLOW_REPORT_PROFILE,
                            rng.stream("b"), monitor_interval_s=600.0,
                            sync_interval_s=1e6)
        dp0.start(neighbors=["dp1"])
        dp1.start(neighbors=["dp0"])
        sim.run(until=50.0)
        dp0.crash()
        # The record lands during dp0's downtime: the post-restart sweep
        # at t=100 already reflects it, so resync must not double-count.
        sim.schedule_at(80.0, lambda: dp1.engine.record_local_dispatch(
            grid.site_names[0], "vo0", 4, now=sim.now))
        sim.schedule_at(100.0, dp0.restart)
        sim.run(until=300.0)
        assert dp0.resync_records == 0

    def test_resync_tolerates_dead_peer(self, env):
        sim, rng, net, grid = env
        dp0 = DecisionPoint(sim, net, "dp0", grid, GT3_PROFILE,
                            rng.stream("a"), monitor_interval_s=600.0,
                            sync_interval_s=1e6)
        dp1 = DecisionPoint(sim, net, "dp1", grid, GT3_PROFILE,
                            rng.stream("b"), monitor_interval_s=600.0,
                            sync_interval_s=1e6)
        dp0.start(neighbors=["dp1"])
        dp1.start(neighbors=["dp0"])
        dp0.crash()
        dp1.crash()
        sim.schedule_at(100.0, dp0.restart)
        sim.run(until=300.0)
        assert dp0.resync_failures == 1
        assert sim.metrics.counter_value("dp.resync_failures") == 1
        assert sim.metrics.counter_value("kernel.unhandled_failures") == 0


class TestClientRebind:
    def test_rebind_counts_and_traces(self, env):
        sim, rng, net, grid = env
        sim.trace.subscribe(sim.trace.ring)
        dp = DecisionPoint(sim, net, "dp0", grid, FAST_PROFILE,
                           rng.stream("dp"), monitor_interval_s=600.0)
        dp.start(neighbors=[])
        client = make_client(sim, net, grid, rng, arrivals=())
        client.rebind("dp9")
        assert client.rebinds == 1
        assert client.decision_point == "dp9"
        assert sim.metrics.counter_value("client.rebind") == 1
        ev = sim.trace.events("client.rebind")[0]
        assert ev.detail["prior"] == "dp0" and ev.detail["new"] == "dp9"

    def test_rebind_recovers_channel(self, env):
        """After rebinding away from a dead DP, brokering works again."""
        sim, rng, net, grid = env
        dp0 = DecisionPoint(sim, net, "dp0", grid, FAST_PROFILE,
                            rng.stream("a"), monitor_interval_s=600.0)
        dp1 = DecisionPoint(sim, net, "dp1", grid, FAST_PROFILE,
                            rng.stream("b"), monitor_interval_s=600.0)
        dp0.start(neighbors=[])
        dp1.start(neighbors=[])
        dp0.crash()
        # Job 1 (t=10) burns its timeout against dead dp0 and falls
        # back; the operator rebinds at t=100; job 2 (t=200) brokers
        # normally against dp1.
        client = make_client(sim, net, grid, rng, arrivals=(10.0, 200.0))
        sim.schedule_at(100.0, lambda: client.rebind("dp1"))
        sim.run(until=500.0)
        assert client.n_fallback_timeout == 1
        assert client.n_handled == 1
        assert client.rebinds == 1
        assert all(j.site is not None
                   for j in client.trace.live.values())


class TestResilientClient:
    def test_retry_recovers_after_restart(self, env):
        """A transient outage costs retries, not the brokered placement."""
        sim, rng, net, grid = env
        dp = DecisionPoint(sim, net, "dp0", grid, FAST_PROFILE,
                           rng.stream("dp"), monitor_interval_s=600.0)
        dp.start(neighbors=[])
        dp.crash()
        sim.schedule_at(30.0, lambda: dp.restart(resync=False))
        policy = ResilienceConfig(max_attempts=5, attempt_timeout_s=5.0,
                                  backoff_base_s=2.0, backoff_factor=2.0,
                                  backoff_max_s=10.0, backoff_jitter=0.0,
                                  breaker_threshold=10)
        client = make_client(sim, net, grid, rng, arrivals=(10.0,),
                             resilience=policy)
        sim.run(until=200.0)
        assert client.n_handled == 1
        assert client.n_fallback_timeout == 0
        assert client.n_retries >= 1
        assert sim.metrics.counter_value("client.retries") == client.n_retries
        assert next(iter(client.trace.live.values())).handled_by_gruber

    def test_breaker_fastfails_then_falls_back(self, env):
        """A permanently dead DP: breaker opens, attempts stop burning
        timeouts, exhausted jobs still get (random) placements."""
        sim, rng, net, grid = env
        dp = DecisionPoint(sim, net, "dp0", grid, FAST_PROFILE,
                           rng.stream("dp"), monitor_interval_s=600.0)
        dp.start(neighbors=[])
        dp.crash()
        policy = ResilienceConfig(max_attempts=4, attempt_timeout_s=3.0,
                                  backoff_base_s=1.0, backoff_factor=1.0,
                                  backoff_max_s=1.0, backoff_jitter=0.0,
                                  breaker_threshold=2, breaker_open_s=300.0)
        client = make_client(sim, net, grid, rng, arrivals=(10.0, 100.0),
                             resilience=policy)
        sim.run(until=600.0)
        assert client.n_handled == 0
        assert client.n_fallback_timeout == 2
        # Job 1 opens the breaker after 2 failures; its remaining 2
        # attempts and all 4 of job 2's fast-fail.
        assert client.n_breaker_fastfail == 6
        assert sim.metrics.counter_value("breaker.open") == 1
        assert sim.metrics.counter_value(
            "client.breaker_fastfail") == client.n_breaker_fastfail
        assert all(j.site is not None
                   for j in client.trace.live.values())

    def test_failover_to_healthy_secondary(self, env):
        """Probe-driven failover rebinds to the live DP and brokering
        resumes — strictly better than the timeout-only baseline."""
        sim, rng, net, grid = env
        policy = ResilienceConfig(max_attempts=3, attempt_timeout_s=5.0,
                                  backoff_base_s=1.0, backoff_factor=1.0,
                                  backoff_max_s=1.0, backoff_jitter=0.0,
                                  breaker_threshold=2, breaker_open_s=120.0,
                                  probe_interval_s=10.0, probe_timeout_s=3.0,
                                  probe_unhealthy_after=2)
        dep = DIGruberDeployment(sim, net, grid, FAST_PROFILE, rng,
                                 n_decision_points=2)
        fm = FailoverManager(sim, net, dep, policy)
        dep.start()
        fm.start()
        dep.dp("dp0").crash()
        # By t=40 the prober has marked dp0 unhealthy; the first failed
        # attempt then triggers failover to dp1.
        client = make_client(sim, net, grid, rng, arrivals=(40.0, 60.0),
                             resilience=policy, failover=fm)
        sim.run(until=300.0)
        assert client.n_failovers == 1
        assert client.rebinds == 1
        assert client.decision_point == "dp1"
        assert client.n_handled == 2
        assert client.n_fallback_timeout == 0
        assert sim.metrics.counter_value("client.failover") == 1


class TestLoadShedding:
    def test_bounded_queue_sheds_and_answers_fast(self, env):
        sim, rng, net, grid = env
        dp = DecisionPoint(sim, net, "dp0", grid, FAST_PROFILE,
                           rng.stream("dp"), monitor_interval_s=600.0,
                           max_queue=2)
        dp.start(neighbors=[])
        evs = [net.rpc(f"h{i}", "dp0", "get_state", {}) for i in range(10)]
        sim.run(until=60.0)
        shed = [ev for ev in evs if ev.triggered and not ev.ok]
        served = [ev for ev in evs if ev.triggered and ev.ok]
        assert dp.container.shed_ops == len(shed) > 0
        assert len(served) + len(shed) == 10
        assert sim.metrics.counter_value("container.shed") == len(shed)

    def test_unbounded_by_default(self, env):
        sim, rng, net, grid = env
        dp = DecisionPoint(sim, net, "dp0", grid, FAST_PROFILE,
                           rng.stream("dp"), monitor_interval_s=600.0)
        dp.start(neighbors=[])
        evs = [net.rpc(f"h{i}", "dp0", "get_state", {}) for i in range(10)]
        sim.run(until=60.0)
        assert all(ev.ok for ev in evs)
        assert dp.container.shed_ops == 0

    def test_degradation_scales_service_time(self, env):
        sim, rng, net, grid = env
        dp = DecisionPoint(sim, net, "dp0", grid, FAST_PROFILE,
                           rng.stream("dp"), monitor_interval_s=600.0)
        dp.start(neighbors=[])
        done = []
        ev1 = net.rpc("h0", "dp0", "get_state", {})
        ev1.add_callback(lambda e: done.append(sim.now))
        sim.run(until=5.0)
        dp.container.set_degradation(4.0)
        ev2 = net.rpc("h0", "dp0", "get_state", {})
        ev2.add_callback(lambda e: done.append(sim.now))
        sim.run(until=10.0)
        # sigma=0 profile: 0.05 latency + 0.1 (or 0.4 degraded) + 0.05.
        assert done[0] == pytest.approx(0.2, abs=0.01)
        assert done[1] == pytest.approx(5.5, abs=0.01)
        dp.container.set_degradation(1.0)
        with pytest.raises(ValueError):
            dp.container.set_degradation(0.0)

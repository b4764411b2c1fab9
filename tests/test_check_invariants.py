"""Tests for the online invariant checker (`run --check`)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.check import InvariantChecker, InvariantViolation
from repro.core import DecisionPoint, DIGruberDeployment
from repro.grid import Cluster, GridBuilder, Job, Site
from repro.net import ConstantLatency, GT3_PROFILE, Network
from repro.sim import RngRegistry, Simulator
from repro.usla import Agreement, AgreementContext, ServiceTerm
from repro.usla.fairshare import FairShareRule, ShareKind
from repro.workloads import TraceRecorder
from repro.workloads.generator import Lattice
from tests.test_core_client import FAST_PROFILE, SLOW_PROFILE, build


@pytest.fixture
def sim():
    return Simulator()


def make_site(sim, cpus=8, name="s0"):
    return Site(sim, name, [Cluster(f"{name}-c0", cpus)])


def make_job(cpus=1, duration=50.0, vo="vo0"):
    return Job(vo=vo, group="g0", user="u0", cpus=cpus, duration_s=duration)


def rules_of(violations):
    return [v.rule for v in violations]


class TestWiring:
    def test_bad_interval_rejected(self, sim):
        with pytest.raises(ValueError):
            InvariantChecker(sim, interval_s=0.0)

    def test_double_install_rejected(self, sim):
        c = InvariantChecker(sim)
        c.install()
        with pytest.raises(RuntimeError):
            c.install()

    def test_install_runs_periodic_checkpoints(self, sim):
        c = InvariantChecker(sim, interval_s=10.0)
        c.install()
        sim.run(until=45.0)
        assert c.checks_run == 4  # t=10, 20, 30, 40
        assert c.violations == []

    def test_uninstall_stops_checkpoints(self, sim):
        c = InvariantChecker(sim, interval_s=10.0)
        c.install()
        sim.run(until=25.0)
        c.uninstall()
        sim.run(until=100.0)
        assert c.checks_run == 2


class TestSiteInvariants:
    def test_clean_site_passes(self, sim):
        c = InvariantChecker(sim)
        site = make_site(sim)
        c.watch_site(site)
        site.submit(make_job(cpus=2))
        site.submit(make_job(cpus=2, duration=200.0))
        sim.run(until=100.0)
        assert c.check() == []

    def test_busy_sum_violation_detected(self, sim):
        c = InvariantChecker(sim)
        site = make_site(sim)
        c.watch_site(site)
        site.submit(make_job(cpus=2, duration=500.0))
        sim.run(until=10.0)
        site.busy_cpus += 1  # corrupt: no running job holds this CPU
        found = rules_of(c.check())
        assert "site.busy_sum" in found

    def test_busy_bounds_violation_detected(self, sim):
        c = InvariantChecker(sim)
        site = make_site(sim, cpus=2)
        c.watch_site(site)
        site.busy_cpus = -1
        assert "site.busy_bounds" in rules_of(c.check())

    def test_job_conservation_violation_detected(self, sim):
        c = InvariantChecker(sim)
        site = make_site(sim)
        c.watch_site(site)
        site.submit(make_job())
        sim.run()
        site.jobs_completed += 1  # phantom completion
        assert "site.job_conservation" in rules_of(c.check())

    def test_uncredited_cpu_seconds_detected(self, sim):
        # The exact shape of the preemption-accounting bug: CPU-seconds
        # delivered but never credited to any VO.
        c = InvariantChecker(sim)
        site = make_site(sim)
        c.watch_site(site)
        site.submit(make_job(cpus=4, duration=50.0))
        sim.run()
        site.vo_cpu_seconds["vo0"] -= 25.0
        assert "site.cpu_seconds" in rules_of(c.check())

    def test_preempted_job_accounting_passes(self, sim):
        c = InvariantChecker(sim)
        site = make_site(sim)
        c.watch_site(site)
        job = make_job(cpus=4, duration=100.0)
        site.submit(job)
        sim.run(until=30.0)
        site.fail_running_job(job.jid)
        sim.run(until=60.0)
        assert c.check() == []


class TestKernelInvariants:
    def test_clock_monotone_rule(self, sim):
        c = InvariantChecker(sim)
        sim.schedule(10.0, lambda: None)
        sim.run()
        c._last_now = sim.now + 5.0  # simulate a clock that jumped back
        assert "kernel.clock_monotone" in rules_of(c.check())

    def test_heap_dead_rule(self, sim):
        c = InvariantChecker(sim)
        sim._dead = len(sim._heap) + 7
        assert "kernel.heap_dead" in rules_of(c.check())


class TestClientInvariants:
    def _client(self, n_jobs=2):
        trace = TraceRecorder()
        for _ in range(n_jobs):
            j = make_job()
            j.mark_created(0.0)
            trace.close_job(j)
        return SimpleNamespace(
            node_id="h0", trace=trace, busy=False, _next=n_jobs, _timer=None,
            _job=None, n_handled=n_jobs, n_fallback_timeout=0, n_abandoned=0,
            n_retries=0, backlog_peak=0,
            workload=SimpleNamespace(
                arrivals=np.zeros(n_jobs, dtype=float)))

    @staticmethod
    def _completed_early(sim, c, n_jobs=1, duration=100.0, run_for=60.0):
        """Seeded stale-timer bug: complete jobs ``run_for`` s into a
        ``duration`` s run, bypassing the site's stale-timer guard."""
        site = make_site(sim)
        c.watch_site(site)
        jobs = [make_job(duration=duration) for _ in range(n_jobs)]
        for job in jobs:
            site.submit(job)
        sim.run(until=run_for)
        for job in jobs:
            site._complete(job)

    def test_clean_client_passes(self, sim):
        c = InvariantChecker(sim)
        c.watch_client(self._client())
        assert c.check() == []

    def test_job_conservation_violation(self, sim):
        c = InvariantChecker(sim)
        client = self._client()
        client.n_handled -= 2  # two jobs unaccounted for
        c.watch_client(client)
        assert "client.job_conservation" in rules_of(c.check())

    def test_truncated_execution_detected(self, sim):
        # The stale-completion-timer bug signature: a COMPLETED job
        # whose measured execution time undershoots its duration.
        c = InvariantChecker(sim)
        self._completed_early(sim, c)
        assert "client.job_duration" in rules_of(c.violations)

    def test_bad_job_is_flagged_once_not_once_per_pass(self, sim):
        c = InvariantChecker(sim)
        self._completed_early(sim, c, n_jobs=3)
        assert rules_of(c.violations) == ["client.job_duration"] * 3
        sim.run(until=200.0)  # the jobs' own (now stale) timers fire
        assert c.check() == [] and c.check() == []
        assert len(c.violations) == 3

    def test_failed_then_replanned_job_is_still_verified(self, sim):
        # FAILED is not final: the failure is not verified, the re-plan
        # runs on, and the job is verified when it finally completes.
        c = InvariantChecker(sim)
        site = make_site(sim)
        c.watch_site(site)
        job = make_job(duration=100.0)
        site.submit(job)
        sim.run(until=30.0)
        site.fail_running_job(job.jid)  # ran 30 s of 100: not this rule's
        sim.run(until=40.0)
        job.reset_for_replan()
        site.submit(job)
        sim.run(until=100.0)
        assert c.violations == [] and c.jobs_inspected == 0
        site._complete(job)  # the stale first-run deadline: 60 s short
        assert rules_of(c.violations) == ["client.job_duration"]
        assert "ran 60.000000s, duration 100.000000s" in \
            c.violations[0].detail
        assert c.check() == []

    def test_each_job_is_verified_once_at_completion(self, sim):
        c = InvariantChecker(sim)
        site = make_site(sim)
        c.watch_site(site)
        for duration in (10.0, 20.0, 30.0):
            site.submit(make_job(duration=duration))
        sim.run(until=15.0)
        assert c.jobs_inspected == 1  # one completion so far
        for _ in range(3):  # passes re-inspect nothing
            assert c.check() == []
        assert c.jobs_inspected == 1
        sim.run(until=100.0)
        c.check()
        assert c.jobs_inspected == 3 and c.violations == []

    def test_negative_counter_detected(self, sim):
        c = InvariantChecker(sim)
        client = self._client()
        client.n_retries = -1
        c.watch_client(client)
        assert "client.counter_bounds" in rules_of(c.check())

    def test_job_dropped_from_the_table_detected(self):
        # ``trace.job_table``: rows + live == jobs materialized.  Seeded
        # bug: a job leaves the live table without becoming a row.
        sim, client, *_ = build(SLOW_PROFILE, n_jobs=30, interarrival=1.0)
        c = InvariantChecker(sim)
        c.watch_client(client)
        sim.run(until=40.0)
        assert c.check() == []
        jid = next(iter(client.trace.live))
        del client.trace.live[jid]
        found = c.check()
        assert rules_of(found) == ["trace.job_table"]
        assert found[0].detail == (f"0 rows + {client._next - 1} live "
                                   f"!= {client._next} jobs materialized")


class TestArrivalCursorRule:
    """Seeded bugs against a real client: each clause of
    ``client.arrival_cursor`` fires, and a healthy client is clean."""

    def _checked(self, profile, **kw):
        sim, client, *_ = build(profile, **kw)
        c = InvariantChecker(sim)
        c.watch_client(client)
        return sim, client, c

    def _details(self, c):
        return [v.detail for v in c.check()
                if v.rule == "client.arrival_cursor"]

    def test_healthy_client_is_clean_busy_idle_and_exhausted(self):
        sim, client, c = self._checked(FAST_PROFILE)
        for t in (0.0, 0.05, 10.0, 20.0, 20.05, 500.0):
            sim.run(until=t)
            assert self._details(c) == [], t

    def test_cursor_advanced_past_now_fires(self):
        sim, client, c = self._checked(SLOW_PROFILE, n_jobs=30,
                                       interarrival=1.0)
        sim.run(until=5.5)
        assert self._details(c) == []
        # Seeded bug: the cursor takes a job whose arrival is 4 s away.
        client._next = 10
        details = self._details(c)
        assert len(details) == 1 and "cursor 10" in details[0]
        # Cursor consistent with the clock but the job stamped ahead of it.
        client._next = 1
        client._job.created_at = 9.0
        details = self._details(c)
        assert len(details) == 1 and "created at 9.0" in details[0]

    def test_cursor_disagreeing_with_jobs_fires(self):
        sim, client, c = self._checked(SLOW_PROFILE, n_jobs=30,
                                       interarrival=1.0)
        sim.run(until=5.5)
        client._next += 1  # a job skipped: cursor moved, nothing brokered
        details = self._details(c)
        assert len(details) == 1 and "arrival 1 is at 1.0" in details[0]

    def test_job_in_flight_with_cursor_zero_fires(self):
        sim, client, c = self._checked(SLOW_PROFILE, n_jobs=30,
                                       interarrival=1.0)
        sim.run(until=5.5)
        job = client._job
        assert job is not None
        # Seeded bug: the cursor rewinds under the job in flight.  The
        # rule used to compare against arrivals[-1], the last arrival.
        client._next = 0
        want = [f"job {job.jid} in flight with cursor 0"]
        assert self._details(c) == want
        # A host with no arrivals at all: flagged, not an IndexError.
        client.workload.arrivals = client.workload.arrivals[:0]
        assert self._details(c) == want

    def test_fires_on_a_lattice_host(self):
        sim, client, c = self._checked(SLOW_PROFILE, n_jobs=30,
                                       interarrival=1.0)
        # A generator-built host keeps its steady arrivals as a lattice;
        # the rule reads it through ``searchsorted`` and ``[i]`` alone.
        assert isinstance(client.workload.arrivals, Lattice)
        sim.run(until=5.5)
        assert self._details(c) == []
        client._next = 7  # seeded bug: the cursor runs ahead of the clock
        assert self._details(c) == ["cursor 7, 6 arrivals due at t=5.5"]
        client._next = 3  # seeded bug: it skips the job in flight
        assert self._details(c) == [
            f"job {client._job.jid} in flight created at 0.0, arrival 2 "
            f"is at 2.0 (now=5.5)"]

    def test_timer_armed_while_busy_fires(self):
        sim, client, c = self._checked(SLOW_PROFILE, n_jobs=30,
                                       interarrival=1.0)
        sim.run(until=5.5)
        assert client.busy and client._timer is None
        # Seeded bug: a second arrival path arms a timer mid-brokering —
        # when it fired it would start a second job on the one channel.
        client._timer = sim.schedule_at(6.0, lambda: None)
        details = self._details(c)
        assert len(details) == 1 and "busy=True" in details[0]

    def test_timer_armed_with_work_due_fires(self):
        sim, client, c = self._checked(FAST_PROFILE)
        sim.run(until=10.0)  # idle, waiting for the arrival at t=20
        assert not client.busy and client._timer is not None
        sim.now = 20.5  # the clock passes the arrival, the timer did not fire
        details = self._details(c)
        assert len(details) == 1 and "backlog=1" in details[0]


def make_dp(sim, rng, net, grid, node_id="dp0", **kw):
    defaults = dict(monitor_interval_s=600.0, sync_interval_s=60.0)
    defaults.update(kw)
    return DecisionPoint(sim, net, node_id, grid, GT3_PROFILE,
                         rng.stream(f"dp:{node_id}"), **defaults)


@pytest.fixture
def env():
    sim = Simulator()
    rng = RngRegistry(11)
    net = Network(sim, ConstantLatency(0.05))
    grid = GridBuilder(sim, rng.stream("grid")).uniform(
        n_sites=4, cpus_per_site=16)
    return sim, rng, net, grid


class TestDecisionPointInvariants:
    def test_clean_dp_passes(self, env):
        sim, rng, net, grid = env
        dp = make_dp(sim, rng, net, grid)
        c = InvariantChecker(sim)
        c.watch_dp(dp)
        dp.engine.record_local_dispatch(site=grid.site_names[0], vo="vo0",
                                        cpus=2, now=0.0)
        assert c.check() == []

    def test_free_column_corruption_detected(self, env):
        """A free column that drifted from ``cap - busy`` is a
        ``view.audit`` violation naming the site and both numbers."""
        sim, rng, net, grid = env
        dp = make_dp(sim, rng, net, grid)
        c = InvariantChecker(sim)
        c.watch_dp(dp)
        site = grid.site_names[2]
        dp.engine.record_local_dispatch(site=site, vo="vo0", cpus=2, now=0.0)
        assert c.check() == []
        view = dp.engine.view
        view._free[view._col[site]] += 1.0  # seeded: column no longer cap-busy
        found = c.check()
        assert rules_of(found) == ["view.audit"]
        assert found[0].detail == f"free[{site}]=15.0 != recomputed 14.0"

    def test_watermark_bound_violation(self, env):
        sim, rng, net, grid = env
        dp = make_dp(sim, rng, net, grid)
        c = InvariantChecker(sim)
        c.watch_dp(dp)
        dp.sync._peer_marks["dp9"] = 999  # beyond anything learned
        assert "sync.watermark_bound" in rules_of(c.check())

    def test_watermark_monotone_violation(self, env):
        sim, rng, net, grid = env
        dp = make_dp(sim, rng, net, grid)
        c = InvariantChecker(sim)
        c.watch_dp(dp)
        c._last_marks[("dp0", "dp9")] = 5
        dp.sync._peer_marks["dp9"] = 0
        assert "sync.watermark_monotone" in rules_of(c.check())

    def test_policy_cache_incoherence_detected(self, env):
        sim, rng, net, grid = env
        dp = make_dp(sim, rng, net, grid, usla_aware=True)
        site = grid.site_names[0]
        dp.engine.usla_store.publish(Agreement(
            name="a1", context=AgreementContext(provider=site,
                                                consumer="vo0"),
            terms=[ServiceTerm("cpu-share",
                               FairShareRule(site, "vo0", 40.0,
                                             ShareKind.UPPER_LIMIT))]))
        dp.engine._policy()  # build + cache the flattened policy
        c = InvariantChecker(sim)
        c.watch_dp(dp)
        assert c.check() == []
        # Corrupt the cache while leaving the mutation counters in
        # agreement: exactly the state the self-invalidation cannot see.
        from repro.usla.policy import PolicyEngine
        dp.engine._policy_cache = PolicyEngine()
        assert "usla.policy_coherence" in rules_of(c.check())

    def test_deployment_watch_is_live(self, env):
        # Decision points added mid-run by the reconfiguration observer
        # must be checked too; a construction-time snapshot misses them.
        sim, rng, net, grid = env
        dep = DIGruberDeployment(sim, net, grid, GT3_PROFILE, rng,
                                 n_decision_points=1)
        c = InvariantChecker(sim)
        c.watch_deployment(dep)
        assert c.check() == []
        added = dep.add_decision_point()
        added.sync._peer_marks["dpX"] = 123
        found = c.check()
        assert "sync.watermark_bound" in rules_of(found)
        assert found[0].subject == str(added.node_id)


class TestReporting:
    def test_strict_mode_raises(self, sim):
        c = InvariantChecker(sim, strict=True)
        site = make_site(sim)
        c.watch_site(site)
        site.busy_cpus = -3
        with pytest.raises(InvariantViolation, match="site.busy_bounds"):
            c.check()

    def test_nonstrict_counts_and_traces(self, sim):
        c = InvariantChecker(sim)
        site = make_site(sim)
        c.watch_site(site)
        site.busy_cpus = -3
        c.check()
        assert len(c.violations) >= 1
        assert sim.metrics.counter("check.violation").value >= 1

    def test_summary_formats(self, sim):
        c = InvariantChecker(sim)
        c.check()
        assert "1 checkpoint(s), OK" in c.summary()
        site = make_site(sim)
        c.watch_site(site)
        site.busy_cpus = -3
        c.check()
        assert "violation(s)" in c.summary()
        assert "site.busy_bounds" in c.summary()


class TestCheckedExperiment:
    def test_smoke_run_has_zero_violations_strict(self):
        # The acceptance bar: a canonical smoke run under the strict
        # checker completes with every invariant holding throughout.
        from repro.experiments.configs import smoke_config
        from repro.experiments.runner import run_experiment
        config = smoke_config(decision_points=3, n_clients=10,
                              duration_s=300.0, sync_interval_s=30.0,
                              check_enabled=True, check_strict=True,
                              check_interval_s=30.0)
        result = run_experiment(config)
        assert result.checker is not None
        assert result.checker.violations == []
        assert result.checker.checks_run >= 10
        assert result.n_jobs > 0

    def test_checker_off_by_default(self):
        from repro.experiments.configs import smoke_config
        from repro.experiments.runner import run_experiment
        result = run_experiment(smoke_config(duration_s=60.0))
        assert result.checker is None

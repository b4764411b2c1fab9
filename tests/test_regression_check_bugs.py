"""Regression tests for the bugs the correctness plane flushed out.

Each test here failed against the pre-fix code:

1. **Preemption accounting** — ``fail_running_job`` freed CPUs but
   never counted the failure or credited the partial run's CPU-seconds,
   so the busy integral stopped decomposing into per-VO delivery.
2. **Stale completion timer** — a job preempted and re-planned onto
   the *same* site was completed by the first incarnation's timer,
   truncating the second run to the old deadline.
3. **Stale policy cache** — a negotiator publishing straight into the
   USLA store left the engine answering availability queries from
   stale entitlements (no invalidation on the direct-store path).
4. **Sync relay horizon** — the flood cutoff was a fixed
   ``now - 2*interval``, silently dropping records from multi-hop
   relays whenever jitter spaced consecutive ticks further apart.
"""

import pytest

from repro.core import (
    DIGruberDeployment,
    DecisionPoint,
    GruberEngine,
)
from repro.grid import Cluster, GridBuilder, Job, JobState, Site
from repro.net import ConstantLatency, GT3_PROFILE, Network
from repro.sim import RngRegistry, Simulator
from repro.usla import Agreement, AgreementContext, ServiceTerm
from repro.usla.fairshare import FairShareRule, ShareKind
from repro.usla.store import UslaStore


@pytest.fixture
def sim():
    return Simulator()


def make_site(sim, cpus=8, name="s0"):
    return Site(sim, name, [Cluster(f"{name}-c0", cpus)])


def make_job(cpus=1, duration=100.0, vo="vo0"):
    return Job(vo=vo, group="g0", user="u0", cpus=cpus, duration_s=duration)


class TestPreemptionAccounting:
    """Bug 1: fail_running_job must keep the conservation ledger whole."""

    def test_failure_counted_and_partial_run_credited(self, sim):
        site = make_site(sim)
        job = make_job(cpus=4, duration=100.0)
        site.submit(job)
        sim.run(until=30.0)
        site.fail_running_job(job.jid)
        assert site.jobs_failed == 1
        # 30 s on 4 CPUs were genuinely delivered before the kill.
        assert site.vo_cpu_seconds["vo0"] == pytest.approx(120.0)

    def test_ledger_balances_after_preemption(self, sim):
        site = make_site(sim)
        jobs = [make_job(cpus=2, duration=100.0) for _ in range(3)]
        for j in jobs:
            site.submit(j)
        sim.run(until=40.0)
        site.fail_running_job(jobs[1].jid)
        sim.run()
        assert site.jobs_dispatched == 3
        assert (site.jobs_completed + site.jobs_failed
                + site.running_jobs + site.queue_length) == 3

    def test_oversized_rejection_not_in_ledger(self, sim):
        site = make_site(sim, cpus=2)
        site.submit(make_job(cpus=64))
        assert site.jobs_rejected == 1
        assert site.jobs_dispatched == 0

    def test_integral_decomposes_after_preempt(self, sim):
        site = make_site(sim)
        job = make_job(cpus=4, duration=100.0)
        site.submit(job)
        other = make_job(cpus=2, duration=60.0)
        site.submit(other)
        sim.run(until=30.0)
        site.fail_running_job(job.jid)
        sim.run()
        site._advance_integral()
        assert site._busy_integral == pytest.approx(
            sum(site.vo_cpu_seconds.values()))


class TestStaleCompletionTimer:
    """Bug 2: replanning to the same site must outlive the old timer."""

    def test_replanned_job_runs_full_duration(self, sim):
        site = make_site(sim)
        job = make_job(cpus=2, duration=100.0)
        site.submit(job)
        sim.run(until=40.0)
        site.fail_running_job(job.jid)
        job.reset_for_replan()
        site.submit(job)  # Euryale re-plans back onto the same site
        sim.run()
        # Pre-fix: the t=100 timer from the first incarnation completed
        # the job 60 s early (execution 60 s instead of 100 s).
        assert job.state == JobState.COMPLETED
        assert job.completed_at == pytest.approx(140.0)
        assert job.execution_time_s == pytest.approx(100.0)

    def test_stale_timer_does_not_break_accounting(self, sim):
        site = make_site(sim)
        job = make_job(cpus=2, duration=100.0)
        site.submit(job)
        sim.run(until=40.0)
        site.fail_running_job(job.jid)
        job.reset_for_replan()
        site.submit(job)
        sim.run(until=110.0)  # past the stale deadline, before the real one
        assert job.state == JobState.RUNNING
        assert site.busy_cpus == 2
        sim.run()
        assert site.busy_cpus == 0
        assert site.jobs_completed == 1

    def test_normal_completion_unaffected(self, sim):
        site = make_site(sim)
        job = make_job(duration=30.0)
        site.submit(job)
        sim.run()
        assert job.completed_at == pytest.approx(30.0)


class TestStalePolicyCache:
    """Bug 3: direct store mutations must invalidate the policy cache."""

    def _engine(self):
        store = UslaStore("dp0")
        return GruberEngine("dp0", {"s0": 100}, usla_store=store,
                            usla_aware=True), store

    @staticmethod
    def _cap(store, percent, version=1):
        store.publish(Agreement(
            name="cap-vo0", version=version,
            context=AgreementContext(provider="s0", consumer="vo0"),
            terms=[ServiceTerm("cpu-share",
                               FairShareRule("s0", "vo0", percent,
                                             ShareKind.UPPER_LIMIT))]))

    def test_publish_after_warm_cache_respected(self):
        engine, store = self._engine()
        # Warm the cache with no agreements: full headroom.
        assert engine.availabilities(vo="vo0", now=0.0)["s0"] == 100.0
        # Negotiator path: straight into the store, no engine call.
        self._cap(store, 40.0)
        # Pre-fix this still answered 100.0 from the stale cache.
        assert engine.availabilities(vo="vo0", now=0.0)["s0"] == 40.0

    def test_republish_tightens_entitlement(self):
        engine, store = self._engine()
        self._cap(store, 40.0)
        assert engine.availabilities(vo="vo0", now=0.0)["s0"] == 40.0
        self._cap(store, 10.0, version=2)
        assert engine.availabilities(vo="vo0", now=0.0)["s0"] == 10.0

    def test_remove_restores_headroom(self):
        engine, store = self._engine()
        self._cap(store, 40.0)
        assert engine.availabilities(vo="vo0", now=0.0)["s0"] == 40.0
        store.remove("cap-vo0")
        assert engine.availabilities(vo="vo0", now=0.0)["s0"] == 100.0

    def test_mutation_counter_moves_only_on_change(self):
        store = UslaStore("dp0")
        base = store.mutations
        store.remove("absent")          # no-op removal
        assert store.mutations == base
        assert store.merge_from([]) == 0
        assert store.mutations == base


@pytest.fixture
def env():
    sim = Simulator()
    rng = RngRegistry(9)
    net = Network(sim, ConstantLatency(0.05))
    grid = GridBuilder(sim, rng.stream("grid")).uniform(
        n_sites=4, cpus_per_site=16)
    return sim, rng, net, grid


class TestSyncRelayHorizon:
    """Bug 4: the flood cutoff must track actual tick times."""

    def test_jittered_spacing_still_relays(self, env):
        # Ticks spaced 25 s apart with a 10 s nominal interval: a record
        # learned between ticks lands outside the old fixed
        # ``now - 2*interval`` horizon and was silently dropped.
        sim, rng, net, grid = env
        mk = lambda nid: DecisionPoint(  # noqa: E731
            sim, net, nid, grid, GT3_PROFILE, rng.stream(f"dp:{nid}"),
            monitor_interval_s=1e9, sync_interval_s=10.0)
        dp0, dp1 = mk("dp0"), mk("dp1")
        dp0.set_neighbors(["dp1"])
        dp1.set_neighbors(["dp0"])
        for t in (0.5, 25.0, 50.0):
            sim.schedule_at(t, dp0.sync.tick)
        sim.schedule_at(
            26.0, lambda: dp0.engine.record_local_dispatch(
                site=grid.site_names[0], vo="vo0", cpus=2, now=26.0))
        sim.run(until=60.0)
        # The t=50 tick must flood the t=26 record (cutoff = previous
        # tick's predecessor at t=0.5, not 50 - 2*10 = 30).
        assert dp1.sync.records_adopted == 1
        assert ("dp0", 1) in dp1.engine.view._live

    def test_record_flooded_exactly_two_rounds(self, env):
        sim, rng, net, grid = env
        mk = lambda nid: DecisionPoint(  # noqa: E731
            sim, net, nid, grid, GT3_PROFILE, rng.stream(f"dp:{nid}"),
            monitor_interval_s=1e9, sync_interval_s=10.0)
        dp0, dp1 = mk("dp0"), mk("dp1")
        dp0.set_neighbors(["dp1"])
        dp1.set_neighbors(["dp0"])
        dp0.engine.record_local_dispatch(site=grid.site_names[0],
                                         vo="vo0", cpus=1, now=0.0)
        for t in (1.0, 11.0, 21.0, 31.0, 41.0):
            sim.schedule_at(t, dp0.sync.tick)
        sim.run(until=60.0)
        # Sent on the first two rounds (dedup makes one adoption), then
        # aged past the two-tick relay horizon.
        assert dp0.sync.records_sent == 2
        assert dp1.sync.records_received == 2
        assert dp1.sync.records_adopted == 1

    def test_ring_overlay_two_hop_relay_under_jitter(self, env):
        # The end-to-end shape of the bug: on a ring, records travel
        # one hop per tick and *must* be re-flooded by the middle hop.
        # Jitter of the same magnitude as the interval spaces ticks
        # beyond the old horizon.
        sim, rng, net, grid = env
        dep = DIGruberDeployment(sim, net, grid, GT3_PROFILE, rng,
                                 n_decision_points=5,
                                 topology_kind="ring",
                                 sync_interval_s=10.0,
                                 monitor_interval_s=1e9)
        for dp in dep.decision_points.values():
            dp.sync.jitter_s = 15.0  # >= interval: the failing regime
        dep.start()
        sim.schedule_at(
            12.0, lambda: dep.dp("dp0").engine.record_local_dispatch(
                site=grid.site_names[0], vo="vo0", cpus=2, now=12.0))
        sim.run(until=240.0)
        # dp2 and dp3 are both two hops from dp0 on the 5-ring; the
        # record must reach every decision point.
        for dp_id, dp in dep.decision_points.items():
            assert ("dp0", 1) in dp.engine.view._live, \
                f"{dp_id} never learned dp0's record"

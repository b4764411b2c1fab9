"""Tests for the GRUBER client (timeout fallback, channel serialization)."""

import sys

import numpy as np
import pytest

from repro.core import DecisionPoint, GruberClient, LeastUsedSelector
from repro.grid import GridBuilder
from repro.net import ConstantLatency, GT3_PROFILE, ContainerProfile, Network
from repro.sim import RngRegistry, Simulator
from repro.workloads import JobModel, TraceRecorder, WorkloadGenerator

FAST_PROFILE = ContainerProfile(
    name="fast", query_service_s=0.1, report_service_s=0.02,
    query_concurrency=1, query_rtts=1, client_overhead_s=0.1,
    instance_service_s=0.05, instance_concurrency=1, instance_rtts=1,
    instance_client_overhead_s=0.05, sigma=0.0)

SLOW_PROFILE = ContainerProfile(
    name="slow", query_service_s=30.0, report_service_s=1.0,
    query_concurrency=1, query_rtts=1, client_overhead_s=0.1,
    instance_service_s=1.0, instance_concurrency=1, instance_rtts=1,
    instance_client_overhead_s=0.1, sigma=0.0)


def jobs(client):
    """The client's jobs in creation order.  No site observer closes
    them in these hand-built rigs, so every one is still live."""
    return list(client.trace.live.values())


def build(profile, n_jobs=5, interarrival=20.0, timeout_s=15.0, seed=0):
    sim = Simulator()
    rng = RngRegistry(seed)
    net = Network(sim, ConstantLatency(0.05))
    grid = GridBuilder(sim, rng.stream("grid")).uniform(n_sites=4,
                                                        cpus_per_site=50)
    dp = DecisionPoint(sim, net, "dp0", grid, profile, rng.stream("dp"),
                       monitor_interval_s=600.0)
    dp.start(neighbors=[])
    gen = WorkloadGenerator(grid.vos, JobModel(duration_mean_s=100.0,
                                               min_duration_s=10.0,
                                               cpu_choices=(1,),
                                               cpu_weights=(1.0,)),
                            rng.stream("wl"))
    workload = gen.host_workload("h0", duration_s=n_jobs * interarrival,
                                 interarrival_s=interarrival)
    trace = TraceRecorder()
    client = GruberClient(sim, net, "h0", "dp0", grid, workload,
                          selector=LeastUsedSelector(rng.stream("sel")),
                          profile=profile, rng=rng.stream("cl"),
                          trace=trace, timeout_s=timeout_s,
                          state_response_kb=0.0)
    client.start()
    return sim, client, dp, grid, trace


class TestHandledPath:
    def test_all_jobs_handled_when_fast(self):
        sim, client, dp, grid, trace = build(FAST_PROFILE)
        sim.run(until=200.0)
        assert client.n_handled == 5
        assert client.n_fallback_timeout == 0
        assert client.backlog_len == 0
        assert all(j.handled_by_gruber for j in jobs(client))

    def test_queries_recorded_with_response(self):
        sim, client, dp, grid, trace = build(FAST_PROFILE)
        sim.run(until=200.0)
        q = trace.query_arrays()
        assert trace.n_queries == 5
        assert not q["timed_out"].any()
        assert np.all(q["response_s"] > 0.3)  # overhead + rtt + service

    def test_dispatch_reaches_site_and_runs(self):
        sim, client, dp, grid, trace = build(FAST_PROFILE)
        sim.run(until=400.0)
        assert all(j.completed_at is not None for j in jobs(client))

    def test_dp_view_reflects_reports(self):
        sim, client, dp, grid, trace = build(FAST_PROFILE)
        sim.run(until=15.0)  # first job dispatched, none finished
        busy = sum(dp.engine.view.estimated_busy(s) for s in grid.site_names)
        assert busy == 1.0

    def test_accuracy_near_perfect_with_fresh_view(self):
        sim, client, dp, grid, trace = build(FAST_PROFILE)
        sim.run(until=200.0)
        accs = [j.scheduling_accuracy for j in jobs(client)]
        assert all(a == pytest.approx(1.0) for a in accs)


class TestTimeoutPath:
    def test_slow_service_triggers_timeout_fallback(self):
        sim, client, dp, grid, trace = build(SLOW_PROFILE)
        sim.run(until=300.0)
        assert client.n_fallback_timeout >= 1
        first = jobs(client)[0]
        assert not first.handled_by_gruber
        # Job was dispatched at ~timeout, well before the 30 s service.
        assert first.dispatched_at < 16.0

    def test_late_response_still_recorded(self):
        sim, client, dp, grid, trace = build(SLOW_PROFILE, n_jobs=1)
        sim.run(until=300.0)
        q = trace.query_arrays()
        assert q["timed_out"][0]
        assert q["response_s"][0] > 15.0  # the full (late) response time

    def test_channel_busy_jobs_queue_in_backlog(self):
        # Jobs every 1 s against a ~31 s brokering op: the channel
        # serializes, so submissions are delayed (paper §4.4.2).
        sim, client, dp, grid, trace = build(SLOW_PROFILE, n_jobs=30,
                                             interarrival=1.0)
        sim.run(until=100.0)
        processed = client.n_handled + client.n_fallback_timeout
        assert processed <= 4  # ~3 queries fit in 100 s
        assert client.backlog_peak >= 20
        assert processed + client.backlog_len + (1 if client.busy else 0) == 30

    def test_backlog_drains_in_order(self):
        sim, client, dp, grid, trace = build(SLOW_PROFILE, n_jobs=10,
                                             interarrival=1.0)
        sim.run(until=400.0)
        taken = jobs(client)
        created = [j.created_at for j in taken]
        assert created == sorted(created)
        # Every job the channel reached was dispatched somewhere.
        assert all(j.site is not None for j in taken
                   if j is not taken[-1] or not client.busy)


class TestRebind:
    def test_rebind_changes_target(self):
        sim, client, dp, grid, trace = build(FAST_PROFILE, n_jobs=5,
                                             interarrival=20.0)
        net = client.network
        dp2 = DecisionPoint(sim, net, "dp1", grid, FAST_PROFILE,
                            RngRegistry(9).stream("dp1"),
                            monitor_interval_s=600.0)
        dp2.start(neighbors=[])
        sim.run(until=30.0)
        client.rebind("dp1")
        sim.run(until=200.0)
        assert dp2.engine.queries_served > 0

    def test_double_start_rejected(self):
        sim, client, dp, grid, trace = build(FAST_PROFILE)
        with pytest.raises(RuntimeError):
            client.start()


# -- demand-driven arrivals: the cursor against a per-arrival reference ----
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.workloads import HostWorkload  # noqa: E402


class _FixedOpClient(GruberClient):
    """Holds the channel exactly ``OP_S`` per job.  Every time is dyadic,
    so float sums are exact and an arrival can tie with a pump instant."""

    OP_S = 0.75

    def _broker_once(self, job):
        self.starts.append(self.sim.now)
        self.sim.schedule(self.OP_S, self._op_done)

    def _op_done(self):
        self.busy = False
        self._pump()


def cursor_client(arrivals, cls=_FixedOpClient, profile=FAST_PROFILE):
    sim = Simulator()
    rng = RngRegistry(0)
    net = Network(sim, ConstantLatency(0.05))
    grid = GridBuilder(sim, rng.stream("grid")).uniform(n_sites=2,
                                                        cpus_per_site=50)
    dp = DecisionPoint(sim, net, "dp0", grid, profile, rng.stream("dp"),
                       monitor_interval_s=1e6)
    dp.start(neighbors=[])
    n = len(arrivals)
    workload = HostWorkload(
        host="h0", arrivals=np.asarray(arrivals, dtype=float),
        identity=np.zeros(n, dtype=np.uint8),
        identities=(("vo0", "vo0-g0", "u"),), cpus=np.ones(n, dtype=int),
        durations=np.full(n, 1000.0))
    client = cls(sim, net, "h0", "dp0", grid, workload,
                 selector=LeastUsedSelector(rng.stream("sel")),
                 profile=profile, rng=rng.stream("cl"),
                 trace=TraceRecorder(), state_response_kb=0.0)
    client.starts = []
    client.start()
    return sim, client


def reference_view(arrivals, starts, now):
    """The retired model, literally: one wake-up per arrival appends to a
    backlog (peak sampled after each append); each brokering start pops
    one.  Arrivals at an instant are processed before that instant's pop.
    """
    events = sorted([(t, 0) for t in arrivals if t <= now]
                    + [(t, 1) for t in starts if t <= now])
    backlog = peak = 0
    active_from = None
    for t, is_pop in events:
        if is_pop:
            backlog -= 1
        else:
            active_from = t if active_from is None else active_from
            backlog += 1
            peak = max(peak, backlog)
    done = all(t <= now for t in arrivals)
    active_until = (arrivals[-1] if arrivals else 0.0) if done else None
    return backlog, peak, active_from, active_until


HORIZON_S = 12.0
quarter_s = st.integers(0, 80).map(lambda q: q / 4.0)  # to 20 s: past horizon


class TestArrivalCursor:
    @given(arrivals=st.lists(quarter_s, max_size=40).map(sorted),
           reads=st.lists(st.one_of(quarter_s, st.floats(0.0, HORIZON_S)),
                          min_size=1, max_size=8).map(sorted))
    @settings(max_examples=150, deadline=None)
    def test_derived_reads_match_per_arrival_reference(self, arrivals, reads):
        sim, client = cursor_client(arrivals)
        seen = []
        for t in (r for r in reads if r <= HORIZON_S):
            sim.run(until=t)
            seen.append((t, client.backlog_len, client.backlog_peak,
                         client.active_from, client.active_until))
        sim.run(until=HORIZON_S)
        # ``starts`` is complete only now; the reference replays it.
        for t, *got in seen:
            assert tuple(got) == reference_view(arrivals, client.starts, t), t
        taken = jobs(client)
        assert [j.created_at for j in taken] == arrivals[:len(taken)]
        assert len(taken) + client.backlog_len == \
            sum(t <= HORIZON_S for t in arrivals)

    def test_arrival_exactly_at_a_pump_instant_counts_as_due(self):
        # Job 0 holds the channel over [0, 0.75]; the arrival at 0.75
        # ties with the pump that ends it and is brokered at once.
        sim, client = cursor_client([0.0, 0.25, 0.75])
        sim.run(until=0.75)
        assert client.starts == [0.0, 0.75]
        assert client.backlog_peak == 2 and client.backlog_len == 1
        assert client._timer is None  # busy: no arrival event pending

    def test_unsorted_arrivals_rejected_by_name(self):
        with pytest.raises(ValueError, match="arrivals must be "
                                             "non-decreasing.*index 2"):
            cursor_client([0.0, 5.0, 4.0])

    def test_busy_client_executes_events_per_brokered_job_only(self):
        # 1,000 one-per-second arrivals against a ~31 s brokering op:
        # the per-arrival model ran >= 1,000 wake-ups here.
        sim, client = cursor_client(np.arange(1000.0), cls=GruberClient,
                                    profile=SLOW_PROFILE)
        sim.run(until=1000.0)
        assert len(jobs(client)) == 34 and client.n_fallback_timeout == 33
        assert client.backlog_len == 1000 - len(jobs(client))
        # Six per timed-out job (overhead sleep, get_state delivery, race
        # timer, random site's delivery, service completion, late
        # answer), two for the job in flight, five sync ticks.
        assert sim.events_executed == 6 * 33 + 2 + 5
        assert sim.events_executed < 1000  # fewer events than arrivals

    def test_idle_client_wakes_exactly_at_its_next_arrival(self):
        sim, client = cursor_client([5.0, 17.0], cls=GruberClient)
        sim.run(until=10.0)
        assert not client.busy and client.n_handled == 1
        assert client._timer is not None and client._timer.time == 17.0
        before = sim.events_executed
        sim.run(until=16.999)
        assert sim.events_executed == before  # nothing ticks while idle
        sim.run(until=17.0)
        assert client.busy and client._timer is None
        assert jobs(client)[-1].created_at == 17.0
        # The timer; the job's brokering starts inside it.
        assert sim.events_executed == before + 1

    @staticmethod
    def _events_per_job(one_phase):
        from repro.experiments.configs import canonical_gt3
        from repro.experiments.runner import run_experiment
        result = run_experiment(canonical_gt3(3, duration_s=600.0,
                                              one_phase=one_phase))
        n_jobs = result.trace.n_jobs
        assert n_jobs > 1000
        return result.sim.events_executed / n_jobs

    def test_events_per_job_trajectory_gate(self):
        # Hardware-independent: an exact counter.  The per-arrival model
        # ran ~36 kernel events per brokered job on this config, the
        # cursor with generator brokering ~19.5, callbacks ~9.  A change
        # that reintroduces idle ticks or a same-instant hop per job
        # fails here on any runner.
        assert self._events_per_job(one_phase=False) <= 12.0

    def test_events_per_job_trajectory_gate_one_phase(self):
        assert self._events_per_job(one_phase=True) <= 12.0


#: Two protocol round trips, so the brokering path has its RTT sleep.
CENSUS_PROFILE = ContainerProfile(
    name="census", query_service_s=0.1, report_service_s=0.02,
    query_concurrency=1, query_rtts=2, client_overhead_s=0.1,
    instance_service_s=0.05, instance_concurrency=1, instance_rtts=1,
    instance_client_overhead_s=0.05, sigma=0.0)


class TestEventCensus:
    """Exact kernel events for one brokered job, each one named.  The
    count is the difference against the same host with no arrivals, so
    the decision point's own timers cancel out."""

    def _events(self, arrivals, profile, one_phase=False, horizon=1200.0):
        sim, client = cursor_client(arrivals, cls=GruberClient,
                                    profile=profile)
        client.one_phase = one_phase
        sim.run(until=horizon)
        return sim.events_executed, client

    def _census(self, profile, **kw):
        baseline, _ = self._events([], profile, **kw)
        total, client = self._events([1.0], profile, **kw)
        return total - baseline, client

    def test_answered_two_phase_job(self):
        events, client = self._census(CENSUS_PROFILE)
        assert client.n_handled == 1 and jobs(client)[0].completed_at
        # arrival timer, overhead sleep, RTT sleep, get_state delivery,
        # its service completion, the answer's delivery, the job's
        # delivery to its site, report delivery, its service completion,
        # the ack's delivery, the job's completion at the site.
        assert events == 11

    def test_timed_out_job(self):
        events, client = self._census(SLOW_PROFILE)
        assert client.n_fallback_timeout == 1 and client.n_abandoned == 0
        # arrival timer, overhead sleep, get_state delivery, the race
        # timer, the random site's delivery, the late service
        # completion, the late answer's delivery, the job's completion.
        assert events == 8

    def test_one_phase_job(self):
        events, client = self._census(CENSUS_PROFILE, one_phase=True)
        assert client.n_handled == 1 and jobs(client)[0].completed_at
        # arrival timer, overhead sleep, RTT sleep, broker_job delivery,
        # its service completion, the answer's delivery, the job's
        # delivery to its site, the job's completion.
        assert events == 8


class TestCallCensus:
    """Python-level calls per brokered job over the run phase of
    ``canonical_gt3(3)`` at 600 s: like :class:`TestEventCensus`, an
    exact count, so a change that adds frames to a hop trips it on any
    runner.  114.3 Python and 131.1 C calls a job when the budget was
    set, 113.0 and 130.4 once the engine bound its dispatch counter
    (DESIGN.md §6 prices a hop)."""

    BUDGET = 120.0

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
        reason="call counts depend on the interpreter (3.12 inlines "
               "comprehensions); the budget is CPython 3.11's")
    def test_python_calls_per_brokered_job(self):
        from repro.experiments.configs import canonical_gt3
        from repro.experiments.runner import (build_experiment,
                                              finalize_experiment)
        built = build_experiment(canonical_gt3(3, duration_s=600.0,
                                               seed=20050101))
        calls = {"call": 0, "c_call": 0}

        def count(frame, event, arg):
            if event in calls:
                calls[event] += 1

        sys.setprofile(count)
        try:
            built.sim.run(until=600.0)
        finally:
            sys.setprofile(None)
        n_jobs = finalize_experiment(built).trace.n_jobs
        assert n_jobs == 3375
        per_job = calls["call"] / n_jobs
        print(f"{per_job:.1f} Python and {calls['c_call'] / n_jobs:.1f} C "
              f"calls per brokered job (budget {self.BUDGET})")
        assert per_job <= self.BUDGET


class TestQueryRecordNamesTheQueriedDp:
    def _rebind_mid_query(self, profile):
        sim, client, dp, grid, trace = build(profile, n_jobs=1)
        DecisionPoint(sim, client.network, "dp1", grid, profile,
                      RngRegistry(9).stream("dp1"),
                      monitor_interval_s=600.0).start(neighbors=[])
        sim.run(until=0.2)  # the query is in flight to dp0
        assert client.busy
        client.rebind("dp1")
        sim.run(until=300.0)
        return trace.query_arrays()

    def test_answered_query_names_the_old_dp(self):
        q = self._rebind_mid_query(FAST_PROFILE)
        assert not q["timed_out"][0]
        assert list(q["decision_point"]) == ["dp0"]

    def test_timed_out_query_names_the_old_dp(self):
        q = self._rebind_mid_query(SLOW_PROFILE)
        assert q["timed_out"][0]
        assert list(q["decision_point"]) == ["dp0"]

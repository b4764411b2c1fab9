"""Cross-module invariants over full experiment runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import smoke_config, run_experiment


@pytest.fixture(scope="module")
def result():
    return run_experiment(smoke_config(n_clients=16, duration_s=400.0))


class TestJobConservation:
    def test_every_dispatched_job_has_consistent_timestamps(self, result):
        j = result.trace.job_arrays()
        dispatched = ~np.isnan(j["dispatched_at"])
        started = ~np.isnan(j["started_at"])
        completed = ~np.isnan(j["completed_at"])
        # created <= dispatched <= started <= completed where defined.
        assert np.all(j["created_at"][dispatched]
                      <= j["dispatched_at"][dispatched] + 1e-9)
        assert np.all(j["dispatched_at"][started]
                      <= j["started_at"][started] + 1e-9)
        both = started & completed
        assert np.all(j["started_at"][both] <= j["completed_at"][both] + 1e-9)
        # Started implies dispatched; completed implies started.
        assert np.all(dispatched[started])
        assert np.all(started[completed])

    def test_client_job_counts_add_up(self, result):
        per_client = sum(c._next for c in result.clients)
        assert per_client == result.trace.n_jobs and not result.trace.live
        # A busy client's current job may or may not have been counted
        # yet (it is counted at its dispatch, which can precede the
        # report ack that frees the channel).
        processed = sum(c.n_handled + c.n_fallback_timeout
                        for c in result.clients)
        in_flight = sum(1 for c in result.clients if c.busy)
        assert processed <= result.trace.n_jobs <= processed + in_flight

    def test_workload_conservation(self, result):
        """Materialized + backlogged = offered, per client."""
        for c in result.clients:
            assert c._next + c.backlog_len == len(c.workload)


class TestSiteAccounting:
    def test_free_cpu_cache_matches_sites(self, result):
        grid = result.grid
        cached = [grid.free_at(name) for name in grid.site_names]
        actual = [s.free_cpus for s in grid.sites.values()]
        assert cached == actual

    def test_busy_cpus_bounded(self, result):
        for site in result.grid.sites.values():
            assert 0 <= site.busy_cpus <= site.total_cpus

    def test_site_dispatch_counts_match_trace(self, result):
        j = result.trace.job_arrays()
        dispatched = ~np.isnan(j["dispatched_at"])
        per_trace = int(dispatched.sum())
        per_sites = sum(s.jobs_dispatched for s in result.grid.sites.values())
        # Sites may have also rejected oversized jobs (counted in trace
        # as dispatched-then-failed) — they are counted consistently.
        assert per_sites <= per_trace
        assert per_trace - per_sites == int(j["failed"].sum())


class TestBrokerAccounting:
    def test_query_count_matches_clients(self, result):
        # Queries are recorded when their response arrives (even for
        # timed-out operations), so at most one per client — the one in
        # flight at the end of the run — can be missing.
        processed = sum(c.n_handled + c.n_fallback_timeout
                        for c in result.clients)
        busy = sum(1 for c in result.clients if c.busy)
        assert result.trace.n_queries >= processed - busy
        assert result.trace.n_queries <= processed + busy

    def test_handled_jobs_have_response_times(self, result):
        # A handled job's response time is its answered query's row;
        # a handled job whose report is still in flight has none yet.
        q = result.trace.query_arrays()
        answered = ~q["timed_out"] & ~np.isnan(q["responded_at"])
        handled = sum(c.n_handled for c in result.clients)
        busy = sum(1 for c in result.clients if c.busy)
        assert handled - busy <= int(answered.sum()) <= handled
        assert np.all(q["response_s"][answered] > 0)

    def test_dp_views_never_negative(self, result):
        for dp in result.deployment.decision_points.values():
            free = dp.engine.view.free_map()
            assert all(0 <= v <= dp.engine.view.capacities[s]
                       for s, v in free.items())


class TestMetricBounds:
    def test_all_metrics_in_range(self, result):
        for cat in ("handled", "not_handled", "all"):
            assert 0.0 <= result.utilization(cat) <= 1.0
            assert result.qtime(cat) >= 0.0
            assert result.normalized_qtime(cat) >= 0.0
        assert 0.0 <= result.accuracy("handled") <= 1.0

    def test_category_utilization_decomposes(self, result):
        u_all = result.utilization("all")
        u_h = result.utilization("handled")
        u_nh = result.utilization("not_handled")
        assert u_h + u_nh == pytest.approx(u_all, rel=1e-6, abs=1e-9)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=5, deadline=None)
def test_invariants_hold_across_seeds(seed):
    """Short randomized runs never violate the structural invariants."""
    res = run_experiment(smoke_config(n_clients=6, duration_s=120.0,
                                      seed=seed))
    j = res.trace.job_arrays()
    started = ~np.isnan(j["started_at"])
    assert np.all(j["dispatched_at"][started] <= j["started_at"][started])
    assert 0.0 <= res.utilization("all") <= 1.0
    for site in res.grid.sites.values():
        assert 0 <= site.busy_cpus <= site.total_cpus

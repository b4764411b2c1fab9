"""Scale-plane regression tests.

Covers the 10x-OSG survival work: cancellation-aware heap compaction,
condition detach, pooled RPC timeouts, the state view's indexes, delta
sync, and the metrics fixes that only bite at scale.  Equivalence with
the pre-optimization paths is pinned by the reference models in
``test_sim_properties.py`` / ``test_core_state_stateful.py`` and the
golden journal digests in ``test_check_differ.py``.
"""

import numpy as np
import pytest

from repro.core.state import DispatchRecord, GridStateView
from repro.net import ConstantLatency, Endpoint, Network
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# Kernel: condition detach + heap boundedness
# ---------------------------------------------------------------------------

class TestConditionDetach:
    def test_anyof_detaches_losing_timeout(self):
        """The losing timer of a race must not keep the heap entry live."""
        sim = Simulator()
        fast_ev = sim.timeout(1.0)
        slow_ev = sim.timeout(1000.0)
        race = sim.any_of([fast_ev, slow_ev])
        sim.run(until=2.0)
        assert race.triggered
        # The loser's scheduled call was cancelled on detach.
        assert slow_ev.call.cancelled
        assert slow_ev.callbacks == []

    def test_anyof_detaches_on_failure(self):
        sim = Simulator()
        ev = sim.event()
        pending = sim.timeout(1000.0)
        combo = sim.any_of([ev, pending])
        combo.add_callback(lambda e: None)
        ev.fail(RuntimeError("boom"))
        sim.run(until=1.0)
        assert combo.triggered and not combo.ok
        assert pending.callbacks == []
        assert pending.call.cancelled

    def test_heap_stays_bounded_under_races(self):
        """10k won races must not leave 10k dead timers in the heap."""
        sim = Simulator()

        def one_race():
            fast_ev = sim.timeout(0.001)
            slow_ev = sim.timeout(10_000.0)
            yield sim.any_of([fast_ev, slow_ev])

        def driver():
            for _ in range(10_000):
                yield sim.process(one_race())

        sim.process(driver())
        sim.run(until=100.0)
        # Live work at any instant is a handful of timers; the heap must
        # not scale with the 10k completed races.
        assert len(sim._heap) < 100
        assert sim.compactions > 0


class TestRpcHeapBoundedness:
    def test_completed_rpcs_do_not_bloat_heap(self):
        """10k completed RPCs with armed timeouts: O(live) heap."""
        sim = Simulator()
        net = Network(sim, ConstantLatency(0.01))
        Endpoint(net, "client")
        server = Endpoint(net, "server")
        server.register_handler("echo", lambda payload, src: payload)

        def driver():
            for i in range(10_000):
                ev = net.rpc("client", "server", "echo", {"i": i},
                             timeout=300.0)
                yield ev
                assert ev.value == {"i": i}

        sim.process(driver())
        sim.run()
        assert len(sim._heap) < 100
        assert sim.heap_peak < 1000  # not O(completed RPCs)


# ---------------------------------------------------------------------------
# State view: churn, expiry index, learn ring
# ---------------------------------------------------------------------------

def _rec(seq, site="s0", vo="cms", cpus=4, time=0.0, group=""):
    return DispatchRecord(origin="dp0", seq=seq, site=site, vo=vo,
                          cpus=cpus, time=time, group=group)


class TestStateChurn:
    def test_vo_busy_keys_do_not_accumulate(self):
        """Long sweeps: dead (site, consumer) keys must be deleted."""
        view = GridStateView({"s0": 100}, assumed_job_lifetime_s=10.0)
        for i in range(500):
            t = float(i)
            view.apply_record(_rec(i, vo=f"vo{i % 50}",
                                   group=f"g{i % 7}", time=t))
            view.expire(t)
        # ~10 live records -> at most ~20 consumer keys (vo + vo.group),
        # not 100 (50 VOs x 2) dead zeros.
        assert len(view._vo_busy) <= 2 * view.n_records
        view.expire(1000.0)
        assert view.n_records == 0
        assert view._vo_busy == {}

    def test_learn_log_pruned(self):
        # The learn order is the live table's own insertion order: there
        # is no separate log left to prune, and the table holds live
        # records only.
        view = GridStateView({"s0": 100}, assumed_job_lifetime_s=10.0)
        for i in range(2_000):
            t = float(i)
            view.apply_record(_rec(i, time=t))
            view.expire(t)
        assert len(view._live) < 200  # not O(records ever learned)


class TestIndexedEquivalence:
    """Watermark and key-reuse edge cases of the view's indexes."""

    def test_records_since_watermark(self):
        view = GridStateView({"s0": 100}, assumed_job_lifetime_s=100.0)
        for i in range(10):
            view.apply_record(_rec(i, time=float(i)))
        mark, records = view.records_since(0)
        assert [r.seq for r in records] == list(range(10))
        mark2, records = view.records_since(mark)
        assert records == [] and mark2 == mark
        view.apply_record(_rec(10, time=10.0))
        mark3, records = view.records_since(mark)
        assert [r.seq for r in records] == [10]
        assert mark3 == mark + 1

    def test_key_reuse_after_absorb_keeps_index_consistent(self):
        """Adversarial redelivery: a dropped record's key comes back on
        a *different* record.  Stale expiry-heap/learn-ring entries must
        not be treated as live just because the key is."""
        view = GridStateView({"s0": 100, "s2": 10},
                             assumed_job_lifetime_s=100.0)
        old = _rec(1, site="s2", cpus=2, time=0.5)
        view.apply_record(old, now=40.0)
        view.refresh_site("s2", busy_cpus=0.0, now=40.0)  # absorbs `old`
        # Same key, different record (flooding dedup normally rejects
        # this; after the drop the key is free again).
        new = _rec(1, site="s0", cpus=3, time=41.0)
        assert view.apply_record(new, now=41.0)
        # The stale s2 entry's time passes the cutoff: must be skipped,
        # not matched by key against the live s0 record.
        view.expire(101.0)
        assert view.estimated_busy("s0") == 3.0
        assert view.estimated_busy("s2") == 0.0
        assert view.pending_records(-1.0) == [new]
        _, records = view.records_since(0)
        assert records == [new]

    def test_records_since_skips_dead(self):
        view = GridStateView({"s0": 100}, assumed_job_lifetime_s=5.0)
        for i in range(10):
            view.apply_record(_rec(i, time=float(i)))
        view.expire(10.0)  # records with time < 5 are gone
        _, records = view.records_since(0)
        assert [r.seq for r in records] == [5, 6, 7, 8, 9]


# ---------------------------------------------------------------------------
# Metrics: bin-edge clamp + concurrency rewrite
# ---------------------------------------------------------------------------

class TestEdgesClamp:
    def test_final_sliver_events_are_counted(self):
        """Seed failure: float accumulation left the last edge below
        t_end, silently dropping completions at the very end of a run."""
        from repro.metrics.timeseries import windowed_rate
        window_s = 1.1
        t_start = 120.09448068756856
        t_end = t_start
        for _ in range(155):  # a sim clock accumulates, so t_end drifts
            t_end += window_s
        n = int(np.ceil((t_end - t_start) / window_s))
        raw_last = t_start + n * window_s
        assert raw_last < t_end  # the seed bug precondition
        centers, rates = windowed_rate(np.array([t_end]),
                                       t_start, t_end, window_s)
        assert rates.sum() * window_s == pytest.approx(1.0)

    def test_edges_still_exact_when_no_drift(self):
        from repro.metrics.timeseries import _edges
        edges = _edges(0.0, 600.0, 60.0)
        assert len(edges) == 11
        assert edges[0] == 0.0 and edges[-1] == 600.0


def _concurrency_matrix(start_times, end_times, t_start, t_end, window_s):
    """The old O(windows x clients) implementation, kept as the oracle."""
    from repro.metrics.timeseries import _edges
    edges = _edges(t_start, t_end, window_s)
    s = np.asarray(start_times, dtype=np.float64)
    e = np.asarray(end_times, dtype=np.float64)
    e = np.where(np.isnan(e), t_end, e)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    active = (s[None, :] < hi) & (e[None, :] > lo)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, active.sum(axis=1)


class TestConcurrencyRewrite:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_matrix_oracle_on_random_inputs(self, seed):
        from repro.metrics.timeseries import concurrency_series
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        starts = rng.uniform(0.0, 900.0, size=n)
        ends = starts + rng.uniform(0.0, 600.0, size=n)
        ends[rng.uniform(size=n) < 0.2] = np.nan  # active through t_end
        centers, counts = concurrency_series(starts, ends, 0.0, 1000.0, 37.0)
        oc, on = _concurrency_matrix(starts, ends, 0.0, 1000.0, 37.0)
        np.testing.assert_array_equal(centers, oc)
        np.testing.assert_array_equal(counts, on)

    def test_window_boundary_semantics(self):
        """start < hi (exclusive), end > lo (exclusive) — exactly as the
        matrix version counted them."""
        from repro.metrics.timeseries import concurrency_series
        starts = np.array([10.0])
        ends = np.array([20.0])
        _, counts = concurrency_series(starts, ends, 0.0, 40.0, 10.0)
        # Active in [10,20) only: not [0,10) (end>lo fails at lo=10?
        # no: lo=0,hi=10 -> start<10 is False), not [20,30).
        np.testing.assert_array_equal(counts, [0, 1, 0, 0])


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    def _summary(self):
        from repro.experiments import run_experiment
        from repro.experiments.configs import canonical_gt3
        config = canonical_gt3(3, duration_s=240.0, n_clients=24,
                               n_sites=30, total_cpus=4000)
        result = run_experiment(config)
        return (result.summary(), result.n_jobs,
                result.dp_ops(), result.client_fallbacks())

    def test_fast_on_is_self_deterministic(self):
        """Same seed ⇒ same summary, op counts and fallbacks."""
        assert self._summary() == self._summary()

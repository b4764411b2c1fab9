"""Tests for the staleness-aware grid state view."""

import numpy as np
import pytest

from repro.core import DispatchRecord, GridStateView


def rec(origin="dp0", seq=1, site="s0", vo="vo0", cpus=2, time=10.0):
    return DispatchRecord(origin=origin, seq=seq, site=site, vo=vo,
                          cpus=cpus, time=time)


@pytest.fixture
def view():
    return GridStateView({"s0": 100, "s1": 50}, assumed_job_lifetime_s=600.0)


class TestConstruction:
    def test_initial_estimates_all_free(self, view):
        assert view.estimated_free("s0") == 100
        assert view.free_map() == {"s0": 100.0, "s1": 50.0}
        assert view.n_sites == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GridStateView({})


class TestRecords:
    def test_apply_decrements_free(self, view):
        view.apply_record(rec(cpus=8))
        assert view.estimated_free("s0") == 92

    def test_duplicate_ignored(self, view):
        assert view.apply_record(rec()) is True
        assert view.apply_record(rec()) is False
        assert view.estimated_busy("s0") == 2

    def test_same_seq_different_origin_both_apply(self, view):
        view.apply_record(rec(origin="dp0", seq=1))
        view.apply_record(rec(origin="dp1", seq=1))
        assert view.estimated_busy("s0") == 4

    def test_unknown_site_rejected(self, view):
        with pytest.raises(KeyError):
            view.apply_record(rec(site="ghost"))

    def test_busy_clamped_to_capacity(self, view):
        for i in range(100):
            view.apply_record(rec(seq=i, site="s1", cpus=10))
        assert view.estimated_busy("s1") == 50
        assert view.estimated_free("s1") == 0

    def test_vo_busy_tracked(self, view):
        view.apply_record(rec(seq=1, vo="atlas", cpus=4))
        view.apply_record(rec(seq=2, vo="atlas", cpus=2))
        view.apply_record(rec(seq=3, vo="cms", cpus=1))
        assert view.estimated_vo_busy("s0", "atlas") == 6
        assert view.estimated_vo_busy("s0", "cms") == 1
        assert view.estimated_vo_busy("s0", "lhcb") == 0

    def test_apply_records_counts_fresh(self, view):
        n = view.apply_records([rec(seq=1), rec(seq=2), rec(seq=1)])
        assert n == 2


class TestRefresh:
    def test_refresh_overrides_base(self, view):
        view.refresh_site("s0", busy_cpus=30.0, now=100.0)
        assert view.estimated_busy("s0") == 30.0

    def test_older_records_absorbed_by_refresh(self, view):
        view.apply_record(rec(seq=1, cpus=5, time=50.0))
        view.refresh_site("s0", busy_cpus=5.0, now=100.0)
        # The record predates the refresh: it is in the ground truth.
        assert view.estimated_busy("s0") == 5.0
        assert view.estimated_vo_busy("s0", "vo0") == 0.0

    def test_newer_records_survive_refresh(self, view):
        view.refresh_site("s0", busy_cpus=10.0, now=100.0)
        view.apply_record(rec(seq=1, cpus=5, time=150.0))
        assert view.estimated_busy("s0") == 15.0

    def test_record_older_than_base_not_applied(self, view):
        view.refresh_site("s0", busy_cpus=10.0, now=100.0)
        view.apply_record(rec(seq=1, cpus=5, time=50.0))
        assert view.estimated_busy("s0") == 10.0

    def test_refresh_all(self, view):
        view.refresh_all({"s0": 20.0, "s1": 10.0}, now=100.0)
        assert view.estimated_busy("s1") == 10.0

    def test_unknown_site_refresh_rejected(self, view):
        with pytest.raises(KeyError):
            view.refresh_site("ghost", 1.0, 0.0)


class TestExpiryAndPending:
    def test_expire_drops_past_lifetime(self, view):
        view.apply_record(rec(seq=1, time=10.0, cpus=4))
        view.apply_record(rec(seq=2, time=700.0, cpus=2))
        dropped = view.expire(now=800.0)  # lifetime 600 -> cutoff 200
        assert dropped == 1
        assert view.estimated_busy("s0") == 2
        assert view.n_records == 1

    def test_expired_key_forgotten(self, view):
        """After expiry, the dedup key is forgotten (bounded memory)."""
        view.apply_record(rec(seq=1, time=10.0))
        view.expire(now=1000.0)
        assert view.n_records == 0

    def test_query_with_now_expires_lazily(self, view):
        view.apply_record(rec(seq=1, time=10.0, cpus=4))
        assert view.estimated_busy("s0") == 4
        assert view.estimated_busy("s0", now=700.0) == 0
        assert view.free_map(now=700.0)["s0"] == 100.0

    def test_record_arriving_after_own_expiry_rejected(self, view):
        """A record relayed slower than the job lifetime is useless."""
        assert view.apply_record(rec(seq=1, time=10.0), now=700.0) is False
        assert view.n_records == 0

    def test_expiry_decrements_vo_busy(self, view):
        view.apply_record(rec(seq=1, time=10.0, vo="atlas", cpus=4))
        view.expire(now=800.0)
        assert view.estimated_vo_busy("s0", "atlas") == 0.0

    def test_pending_records_cutoff(self, view):
        view.apply_record(rec(seq=1, time=10.0))
        view.apply_record(rec(seq=2, time=90.0))
        pending = view.pending_records(newer_than=50.0)
        assert [r.seq for r in pending] == [2]

    def test_lifetime_validation(self):
        with pytest.raises(ValueError):
            GridStateView({"s": 1}, assumed_job_lifetime_s=0.0)


class TestAnswerSnapshotIsolation:
    """An availability answer is a reply in flight: it is taken at
    answer time and must not see anything the view does afterwards.
    (Regression guard for the aliasing bug a columnar view makes
    possible — ``free_map`` handing out its live column.)"""

    @pytest.mark.parametrize("ask", [
        lambda v: v.free_map(now=10.0),
        lambda v: v.free_subset(("s1", "s0"), now=10.0)],
        ids=["free_map", "free_subset"])
    def test_reply_unchanged_by_later_writes(self, view, ask):
        view.apply_record(rec(seq=1, site="s1", cpus=4))
        reply = ask(view)
        names, values = reply.names, reply.free.tolist()
        assert dict(reply) == {"s0": 100.0, "s1": 46.0}

        view.apply_record(rec(seq=2, site="s0", cpus=8, time=11.0))
        view.refresh_site("s1", 30.0, now=12.0)
        view.extend_capacities({"s2": 10})
        view.expire(5000.0)

        assert reply.names is names and len(reply) == 2
        assert reply.free.tolist() == values
        assert dict(reply) == {"s0": 100.0, "s1": 46.0}
        assert "s2" not in reply
        # ... while a fresh answer does see all of it.
        assert dict(view.free_map()) == {"s0": 100.0, "s1": 20.0, "s2": 10.0}

    def test_reply_refuses_writes(self, view):
        reply = view.free_map()
        assert reply.free.flags.writeable is False
        with pytest.raises(ValueError):
            reply.free[0] = 0.0
        with pytest.raises(TypeError):
            reply["s0"] = 0.0
        assert view.free_map()["s0"] == 100.0

    def test_answers_share_names_not_values(self, view):
        a, b = view.free_map(), view.free_map()
        assert a.names is b.names
        assert not np.shares_memory(a.free, b.free)
        assert not np.shares_memory(a.free, view._free)

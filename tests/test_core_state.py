"""Tests for the staleness-aware grid state view."""

import gc
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core import (AvailabilityView, DispatchRecord, GridStateView,
                        GruberEngine)
from repro.grid.builder import GridBuilder
from repro.sim.kernel import Simulator
from repro.sim.snapshot import state_digest


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
        first, second = rec(seq=1), rec(seq=2)
        adopted = view.apply_records([first, second, rec(seq=1)])
        # The adopted records themselves, in payload order.
        assert [id(r) for r in adopted] == [id(first), id(second)]

    def test_echo_payload_changes_nothing(self, view):
        view.apply_records([rec(seq=1), rec(seq=2)], now=20.0)
        before = state_digest(view.snapshot_state())
        assert view.apply_records([rec(seq=2), rec(seq=1)], now=500.0) == []
        assert state_digest(view.snapshot_state()) == before
        assert view.latest_time == 20.0  # echoes witness nothing

    def test_rejected_new_record_still_advances_latest_time(self, view):
        view.refresh_site("s0", busy_cpus=0.0, now=100.0)
        absorbed, too_old = rec(seq=1, time=50.0), rec(seq=2, time=150.0)
        assert view.apply_records([absorbed], now=200.0) == []
        assert view.latest_time == 200.0
        assert view.apply_records([too_old], now=750.0) == []
        assert view.latest_time == 750.0 and view.n_records == 0

    def test_unknown_site_mid_payload_keeps_the_prefix(self, view):
        payload = [rec(seq=1), rec(seq=2, site="ghost"), rec(seq=3)]
        with pytest.raises(KeyError, match="ghost"):
            view.apply_records(payload)
        assert sorted(view._live) == [("dp0", 1)]


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


class TestRecordIdentity:
    """``key`` and ``consumers`` are stored once at construction and
    stay outside equality, hash and ``repr``."""

    def test_identity_fields_derive_from_the_init_fields(self):
        plain = rec(origin="dp3", seq=9, vo="atlas")
        grouped = DispatchRecord(origin="dp3", seq=9, site="s0", vo="atlas",
                                 cpus=2, time=10.0, group="higgs")
        assert plain.key == grouped.key == ("dp3", 9)
        assert plain.consumers == ("atlas",)
        assert grouped.consumers == ("atlas", "atlas.higgs")
        assert plain.key is plain.key  # stored, not rebuilt per read

    def test_equality_hash_and_repr_read_the_init_fields_only(self):
        a, b = rec(seq=4), rec(seq=4)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != rec(seq=4, cpus=3)
        assert "key" not in repr(a) and "consumers" not in repr(a)
        with pytest.raises(AttributeError):
            a.key = ("dp9", 9)  # frozen
        with pytest.raises(TypeError):
            DispatchRecord(origin="dp0", seq=1, site="s0", vo="vo0",
                           cpus=1, time=0.0, key=("dp9", 9))

    def test_pickle_round_trip(self):
        # Sharded workers exchange records through pickle.
        sent = DispatchRecord(origin="dp1", seq=7, site="s1", vo="cms",
                              cpus=3, time=42.5, group="top")
        got = pickle.loads(pickle.dumps(sent))
        assert got == sent and hash(got) == hash(sent)
        assert (got.key, got.consumers) == (sent.key, sent.consumers)


class TestAuditCatchesSeededCorruption:
    """Each ``audit`` rule fires on the drift it names (and only then)."""

    @pytest.mark.parametrize("corrupt,problem", [
        (lambda v: v._extra_busy.__setitem__(v._col["s0"], 9.0),
         "extra_busy[s0]=9.0 but site heap holds 4 CPUs"),
        (lambda v: v._vo_busy.__setitem__(("s0", "atlas"), 5.0),
         "vo_busy sum 5.0 != extra_busy[s0]=4.0"),
        (lambda v: v._vo_busy.__setitem__(("s1", "cms"), 0.0),
         "non-positive vo_busy[s1,cms]=0.0"),
        (lambda v: v._base_busy.__setitem__(v._col["s1"], 51.0),
         "base_busy[s1]=51.0 outside [0, 50]"),
        (lambda v: v._free.__setitem__(0, 97.0),
         "free[s0]=97.0 != recomputed 96.0"),
        (lambda v: v._live.pop(("dp0", 1)),
         "live table holds 0 records but the site heaps hold 1"),
        (lambda v: v._live.__setitem__(("dp7", 7), v._live["dp0", 1]),
         "live table holds 2 records but the site heaps hold 1"),
        (lambda v: v._expiry_heap.remove(v._live["dp0", 1]),
         "expiry heap holds 0 entries but live + absorbed = 1"),
    ], ids=["extra_busy", "vo_busy-sum", "vo_busy-sign", "base_busy",
            "free-column", "live-table-lost", "live-table-extra",
            "expiry-heap-lost"])
    def test_rule_fires(self, view, corrupt, problem):
        view.apply_record(rec(seq=1, vo="atlas", cpus=4))
        assert view.audit() == []
        corrupt(view)
        assert problem in view.audit()


class TestAnswerSnapshotIsolation:
    """An availability answer is a reply in flight: it is taken at
    answer time and must not see anything the view does afterwards.
    (Regression guard for the aliasing bug a columnar view makes
    possible — ``free_map`` handing out its live column.)"""

    @pytest.mark.parametrize("ask", [lambda v: v.free_map(now=10.0)],
                             ids=["free_map"])
    def test_reply_unchanged_by_later_writes(self, view, ask):
        view.apply_record(rec(seq=1, site="s1", cpus=4))
        reply = ask(view)
        names, values = reply.names, reply.free.tolist()
        assert dict(reply) == {"s0": 100.0, "s1": 46.0}

        view.apply_record(rec(seq=2, site="s0", cpus=8, time=11.0))
        view.refresh_site("s1", 30.0, now=12.0)
        view.expire(5000.0)

        assert reply.names is names and len(reply) == 2
        assert reply.free.tolist() == values
        assert dict(reply) == {"s0": 100.0, "s1": 46.0}
        # ... while a fresh answer does see all of it.
        assert dict(view.free_map()) == {"s0": 100.0, "s1": 20.0}

    def test_reply_refuses_writes(self, view):
        reply = view.free_map()
        assert reply.free.flags.writeable is False
        with pytest.raises(ValueError):
            reply.free[0] = 0.0
        with pytest.raises(TypeError):
            reply["s0"] = 0.0
        assert view.free_map()["s0"] == 100.0

    @pytest.mark.parametrize("write", [
        lambda v: v.apply_record(rec(seq=2, site="s0", cpus=8, time=11.0)),
        lambda v: v.apply_records([rec(seq=2, site="s1", time=11.0)]),
        lambda v: v.refresh_site("s1", 30.0, now=12.0),
        lambda v: v.refresh_all({"s0": 5.0, "s1": 6.0}, now=12.0),
        lambda v: v.expire(5000.0),
    ], ids=["apply_record", "apply_records", "refresh_site", "refresh_all",
            "expire"])
    def test_unchanged_view_answers_once(self, view, write):
        """One frozen copy per column version: asking again without a
        write in between hands back the same answer; any write retires
        it, and the retired answer keeps its values."""
        view.apply_record(rec(seq=1, site="s1", cpus=4))
        a = view.free_map()
        assert view.free_map() is a
        assert not np.shares_memory(a.free, view._free)
        a_values = a.free.tolist()
        write(view)
        b = view.free_map()
        assert b is not a
        assert a.free.tolist() == a_values
        assert view.free_map() is b

    @pytest.mark.parametrize("write", [
        lambda v: v.apply_record(rec(seq=9, site="c063", time=11.0)),
        lambda v: v.apply_record(rec(seq=9, site="c064", time=11.0)),
        lambda v: v.apply_record(rec(seq=9, site="c199", time=11.0)),
        lambda v: v.refresh_all(dict.fromkeys(v.capacities, 1.0), now=12.0),
        lambda v: v.expire(5000.0),
    ], ids=["last-of-chunk-0", "first-of-chunk-1", "last-partial-chunk",
            "refresh_all", "expire"])
    def test_chunked_answer_read_late(self, write):
        """A ``free_map`` answer shares frozen 64-site chunks and joins
        them when first read: read only after the next write, it still
        holds the column as served, and the next answer holds the new
        one.  200 sites: chunks of 64, 64, 64 and 8."""
        view = GridStateView({f"c{i:03d}": 100 for i in range(200)},
                             assumed_job_lifetime_s=600.0)
        for seq, site in enumerate(("c000", "c063", "c064", "c199"), 1):
            view.apply_record(rec(seq=seq, site=site, cpus=seq))
        first_served, first = view._free.copy(), view.free_map()
        view.apply_record(rec(seq=5, site="c130", cpus=5))
        served, reply = view._free.copy(), view.free_map()
        write(view)
        fresh = view.free_map()
        assert fresh is not reply
        assert fresh.free.tolist() == view._free.tolist()
        assert reply.free.tolist() == served.tolist()
        assert first.free.tolist() == first_served.tolist()


def _traced_bytes(build):
    """Bytes ``build()`` allocates and still holds (deterministic, unlike
    RSS), plus what it returned."""
    gc.collect()
    tracemalloc.start()
    try:
        held = build()
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return size, held


class TestAnswerLabels:
    """An array-built answer whose names and values disagree in length
    is refused, naming both."""

    @pytest.mark.parametrize("build", [
        lambda: AvailabilityView(("s0", "s1"), [1.0, 2.0, 3.0]),
    ], ids=["array"])
    def test_mislabelled_answer_refused(self, build):
        with pytest.raises(ValueError, match="2 site names for 3 free"):
            build()


class TestRetainedBytes:
    """A view pays per live record and per site of dynamic state: the
    static half is the grid's, and absorbed records leave."""

    def test_views_share_the_grids_static_knowledge(self):
        """Ten decision points' views of a 3,000-site grid cost <= 128 B
        per site per view (330 B when each view copied the static
        tables; ~50 B is the six per-site columns)."""
        grid = GridBuilder(Simulator(), np.random.default_rng(1)).build(
            n_sites=3000, total_cpus=400_000)
        n_views = 10
        size, engines = _traced_bytes(lambda: [
            GruberEngine(f"dp{k}", site_capacities=grid.site_index)
            for k in range(n_views)])
        assert all(e.view.capacities is grid.site_index.capacities
                   for e in engines)
        assert size / (n_views * 3000) <= 128.0

    def test_absorbed_records_leave(self):
        """After a monitor sweep absorbs 20,000 adopted records the view
        retains <= 64 B per record (151 B while the expiry heap kept the
        absorbed entries until their lifetime passed); what remains is
        the live table's dict storage, which Python does not shrink."""
        n_sites, n = 300, 20_000
        view = GridStateView({f"s{i}": 1000 for i in range(n_sites)})
        records = [rec(seq=i, site=f"s{i % n_sites}", cpus=1,
                       time=float(i) * 0.01) for i in range(n)]
        sweep = {f"s{i}": 0.0 for i in range(n_sites)}

        def absorb():
            assert len(view.apply_records(records, now=200.0)) == n
            view.refresh_all(sweep, now=300.0)
        size, _ = _traced_bytes(absorb)
        assert view.n_records == 0 and view.audit() == []
        assert len(view._expiry_heap) == 0
        assert size / n <= 64.0

    def test_answers_in_flight_keep_only_the_written_chunk(self):
        """100 unread ``free_map`` answers of a 3,000-site view, one
        adopted record apart, retain <= 2 KB each, the record included:
        1,407 B measured (~380 B the record; the answer is one frozen
        64-site chunk, the 47-chunk tuple and the view), 24,604 B when
        every answer copied the whole column."""
        n_sites, n = 3000, 100
        view = GridStateView({f"s{i}": 100 for i in range(n_sites)})
        records = [rec(seq=k, site=f"s{k * 29 % n_sites}", cpus=1,
                       time=float(k)) for k in range(n)]
        view.free_map()  # the first answer freezes every chunk

        def answer():
            answers = []
            for r in records:
                view.apply_record(r)
                answers.append(view.free_map())
            return answers
        size, answers = _traced_bytes(answer)
        assert len({id(a) for a in answers}) == n
        assert size / n <= 2048.0

"""Stateful property test: GridStateView vs a brute-force reference.

Hypothesis drives random interleavings of record application, monitor
refreshes, expiry sweeps, and duplicate/out-of-order deliveries; after
every step the view's incremental estimates and its indexed queries
(``free_map``, ``pending_records``, ``records_since``) must match a
reference model that recomputes everything from scratch.  The
availability answers are checked as the selectors read them: column
order, float64 values and names.

The write side is driven both ways: one record / one site at a time and
as batches (``apply_records``, ``refresh_all``).  The reference only
knows the per-record semantics, so every batch rule is a proof that the
batch path equals the per-record one — duplicates and repeated keys
inside a payload, replays of dropped keys, ``now=None``, an unknown site
mid-batch — down to ``latest_time`` and ``info_age_s``.

Every answer handed out is kept for the machine's lifetime with a copy
of the live column taken when it was served: answers are shared until
the column is next written, and a ``free_map`` answer shares the frozen
64-site chunks nobody wrote since, so after every step each one must
still equal its copy, and ``audit`` must find nothing — including the
expiry heap's ``live + absorbed`` count, which a refresh must leave with
absorbed entries no more than live ones.  The grid spans two chunks (the
second partial); the rules write at the chunk boundaries (columns 63 and
64), the last column, and every column at once.  Some answers are served between writes and read only later, the
way a reply in flight is: a chunk the view froze by reference, or a
write that left its chunk clean, shows up there.
"""

import numpy as np
import pytest

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.state import DispatchRecord, GridStateView
from repro.sim.snapshot import state_digest

#: 127 sites: chunk 0 holds columns 0-63, the partial chunk 1 the rest.
SITES = {"s0": 100, "s1": 50, "s2": 10,
         **{f"p{i:03d}": 8 for i in range(3, 127)}}
#: The sites the rules write: the first columns, both sides of the chunk
#: boundary and the last column.
HOT = ("s0", "s1", "s2", "p063", "p064", "p126")
LIFETIME = 100.0


class ReferenceView:
    """Recompute-from-scratch model of the documented semantics."""

    def __init__(self):
        self.capacities = dict(SITES)
        self.base = {s: (0.0, -float("inf")) for s in SITES}  # busy, time
        self.records: dict[tuple, DispatchRecord] = {}
        # key -> (learn sequence number, learn time) of the live record
        self.learned: dict[tuple, tuple[int, float]] = {}
        self.learn_count = 0
        # Everything the view ever witnessed, for the monotone horizons:
        # instants seen, (site, learn time) per adoption, (site, time)
        # per refresh.
        self.witnessed: list[float] = []
        self.adoptions: list[tuple[str, float]] = []
        self.refreshes: list[tuple[str, float]] = []

    def apply(self, rec, learn_time):
        if rec.key in self.records:
            return False  # an echo: nothing moves, not even latest_time
        if rec.site not in self.capacities:
            raise KeyError(rec.site)
        self.witnessed.append(learn_time)
        busy, base_time = self.base[rec.site]
        if rec.time <= base_time:
            return False
        if learn_time - rec.time >= LIFETIME:
            return False
        self.records[rec.key] = rec
        self.learn_count += 1
        self.learned[rec.key] = (self.learn_count, learn_time)
        self.adoptions.append((rec.site, learn_time))
        return True

    def refresh(self, site, busy, now):
        self.base[site] = (busy, now)
        self.witnessed.append(now)
        self.refreshes.append((site, now))
        self.records = {k: r for k, r in self.records.items()
                        if r.site != site or r.time > now}

    def expire(self, now):
        self.witnessed.append(now)
        self.records = {k: r for k, r in self.records.items()
                        if r.time >= now - LIFETIME}

    def latest_time(self):
        return max(self.witnessed, default=-float("inf"))

    def info_age_s(self, now, site=None):
        seen = [t for s, t in self.adoptions + self.refreshes
                if site is None or s == site]
        return max(now - max(seen), 0.0) if seen else None

    def estimated_busy(self, site):
        busy, _ = self.base[site]
        extra = sum(r.cpus for r in self.records.values() if r.site == site)
        return min(max(busy + extra, 0.0), self.capacities[site])

    def free(self):
        """``[(site, free)]`` in column order."""
        return [(s, float(self.capacities[s] - self.estimated_busy(s)))
                for s in self.capacities]

    def live_in_learn_order(self):
        """``(learn_seq, learn_time, record)`` of every live record."""
        return sorted((*self.learned[k], r) for k, r in self.records.items())


class StateViewMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.view = GridStateView(dict(SITES), assumed_job_lifetime_s=LIFETIME)
        self.ref = ReferenceView()
        self.clock = 0.0
        self.seq = 0
        #: ``(answer, the live column's values at hand-out)`` for every
        #: answer given; ``unread`` ones have not had ``free`` read yet.
        self.handed_out: list = []
        self.unread: list = []

    def served(self, answer):
        """``answer`` beside a copy of the live column taken now."""
        col = self.view._col
        return answer, self.view._free[[col[s] for s in answer.names]]

    def keep(self, answer):
        self.handed_out.append(self.served(answer))
        return answer

    def assert_compacted(self):
        """Right after a refresh: absorbed entries <= live ones."""
        assert self.view._absorbed <= len(self.view._live)

    def assert_answer(self, answer, want):
        """An availability answer, read the way the selectors read it."""
        self.keep(answer)
        assert answer.names == tuple(s for s, _ in want)
        assert answer.free.dtype == np.float64
        assert answer.free.tolist() == [f for _, f in want]
        assert not answer.free.flags.writeable
        assert dict(answer) == dict(want) and len(answer) == len(want)

    @rule(data=st.data(),
          cpus=st.integers(1, 20),
          origin=st.sampled_from(["dp0", "dp1"]),
          age=st.floats(0.0, 150.0),
          local=st.booleans())
    def apply_fresh_record(self, data, cpus, origin, age, local):
        self.seq += 1
        site = data.draw(st.sampled_from(HOT))
        rec = DispatchRecord(origin=origin, seq=self.seq, site=site,
                             vo="vo0", cpus=cpus,
                             time=max(self.clock - age, 0.0))
        # A local dispatch omits ``now`` and is learned at its own
        # (possibly older) dispatch time: learn times need not be
        # monotonic, which is what the learn ring's clamp is for.
        now = None if local else self.clock
        assert self.view.apply_record(rec, now=now) == \
            self.ref.apply(rec, learn_time=rec.time if local else self.clock)

    @rule(data=st.data())
    def replay_duplicate(self, data):
        """Re-deliver an already-known record (flooding does this)."""
        if self.seq == 0:
            return
        seq = data.draw(st.integers(1, self.seq))
        # Reconstruct a record with the same key but (adversarially)
        # different contents — dedup must ignore it entirely.
        rec = DispatchRecord(origin="dp0", seq=seq, site="s0", vo="vo0",
                             cpus=99, time=self.clock)
        known = rec.key in self.ref.records
        before = self.keep(self.view.free_map())
        applied = self.view.apply_record(rec, now=self.clock)
        # A dropped record's key is free again, so the redelivery may
        # be genuinely new — on both sides or on neither.
        assert applied == self.ref.apply(rec, learn_time=self.clock)
        if known:
            assert not applied
            assert self.keep(self.view.free_map()) == before

    @rule(data=st.data(), local=st.booleans(), ghost=st.booleans())
    def apply_payload(self, data, local, ghost):
        """A sync payload: fresh records, echoes of live ones, replays of
        dropped keys and keys repeated inside the payload, in any order —
        optionally with a record for an unknown site somewhere in it."""
        sites = list(HOT) + ["ghost"] * ghost
        first = self.seq + 1
        self.seq += data.draw(st.integers(0, 3))
        payload = [
            DispatchRecord(origin=origin, seq=seq, site=site, vo="vo0",
                           group=group, cpus=cpus,
                           time=max(self.clock - age, 0.0))
            for origin, seq, site, group, cpus, age in data.draw(st.lists(
                st.tuples(st.sampled_from(["dp0", "dp1"]),
                          st.integers(max(first - 6, 1), max(self.seq, 1)),
                          st.sampled_from(sites), st.sampled_from(["", "g"]),
                          st.integers(1, 20), st.floats(0.0, 150.0)),
                max_size=8))]
        now = None if local else self.clock
        want, unknown_site = [], False
        for rec in payload:
            try:
                if self.ref.apply(rec, rec.time if local else self.clock):
                    want.append(rec)
            except KeyError:
                unknown_site = True  # the prefix stays applied
                break
        if unknown_site:
            with pytest.raises(KeyError, match="ghost"):
                self.view.apply_records(payload, now=now)
        else:
            got = self.view.apply_records(payload, now=now)
            # The adopted record *objects*, in payload order.
            assert [id(r) for r in got] == [id(r) for r in want]

    @rule()
    def replay_everything_live(self):
        """An all-duplicate payload (a mesh echo) changes nothing."""
        before = state_digest(self.view.snapshot_state())
        echoes = [DispatchRecord(origin=r.origin, seq=r.seq, site="ghost",
                                 vo="vo9", cpus=99, time=self.clock + 1e6)
                  for r in self.ref.records.values()]
        assert self.view.apply_records(echoes, now=self.clock + 1e6) == []
        assert state_digest(self.view.snapshot_state()) == before

    @rule(data=st.data())
    def answer_between_writes(self, data):
        """Answers served between dispatches, left unread (in flight)."""
        for site in data.draw(st.lists(st.sampled_from(HOT),
                                       min_size=1, max_size=4)):
            self.seq += 1
            rec = DispatchRecord(origin="dp0", seq=self.seq, site=site,
                                 vo="vo0", cpus=1, time=self.clock)
            assert self.view.apply_record(rec, now=self.clock) == \
                self.ref.apply(rec, learn_time=self.clock)
            self.unread.append(self.served(self.view.free_map()))

    @rule()
    def read_answers_in_flight(self):
        self.handed_out += self.unread
        self.unread = []
        self.answers_handed_out_never_change()

    def teardown(self):
        self.read_answers_in_flight()

    @rule(data=st.data(), busy=st.floats(0.0, 100.0))
    def monitor_refresh(self, data, busy):
        site = data.draw(st.sampled_from(HOT))
        busy = min(busy, self.ref.capacities[site])
        self.view.refresh_site(site, busy, self.clock)
        self.assert_compacted()
        self.ref.refresh(site, busy, self.clock)

    @rule(data=st.data())
    def monitor_sweep(self, data):
        sweep = data.draw(st.dictionaries(
            st.sampled_from(HOT),
            st.floats(0.0, 7.0)))  # the smallest capacity
        self.view.refresh_all(sweep, self.clock)
        self.assert_compacted()
        for site, busy in sweep.items():
            self.ref.refresh(site, busy, self.clock)
        # Sites are validated before anything is stamped.
        before = state_digest(self.view.snapshot_state())
        with pytest.raises(KeyError, match="ghost"):
            self.view.refresh_all({**sweep, "ghost": 1.0}, self.clock + 1e6)
        assert state_digest(self.view.snapshot_state()) == before

    @rule(busy=st.floats(0.0, 7.0))
    def monitor_sweep_every_site(self, busy):
        """A full monitor sweep writes every chunk."""
        self.view.refresh_all(dict.fromkeys(self.ref.capacities, busy),
                              self.clock)
        self.assert_compacted()
        for site in self.ref.capacities:
            self.ref.refresh(site, busy, self.clock)

    @rule(dt=st.floats(0.1, 60.0))
    def advance_time(self, dt):
        self.clock += dt

    @rule()
    def expire_sweep(self):
        self.view.expire(self.clock)
        self.ref.expire(self.clock)

    @invariant()
    def estimates_match_reference(self):
        # Force lazy expiry on both sides before comparing.
        self.view.expire(self.clock)
        self.ref.expire(self.clock)
        for site in self.ref.capacities:
            assert self.view.estimated_busy(site) == \
                self.ref.estimated_busy(site), site

    @invariant()
    def indexed_queries_match_reference(self):
        self.ref.expire(self.clock)
        self.assert_answer(self.view.free_map(now=self.clock),
                           self.ref.free())
        live = self.ref.live_in_learn_order()
        # Every boundary a cutoff can straddle: each live learn time.
        cutoffs = {-float("inf"), self.clock, *(t for _, t, _ in live)}
        for cutoff in cutoffs:
            assert self.view.pending_records(cutoff) == \
                [r for _, t, r in live if t > cutoff], cutoff
        for mark in range(self.ref.learn_count + 1):
            assert self.view.records_since(mark) == \
                (self.ref.learn_count,
                 [r for n, _, r in live if n > mark]), mark
        assert self.view.audit() == []

    @invariant()
    def answers_handed_out_never_change(self):
        for answer, values in self.handed_out:
            assert answer.free.tolist() == values.tolist()
        assert self.view.audit() == []

    @invariant()
    def horizons_match_reference(self):
        assert self.view.latest_time == self.ref.latest_time()
        for site in (None, *self.ref.capacities):
            assert self.view.info_age_s(self.clock, site) == \
                self.ref.info_age_s(self.clock, site), site

    @invariant()
    def estimates_bounded(self):
        for site, cap in self.ref.capacities.items():
            assert 0.0 <= self.view.estimated_busy(site) <= cap
            assert 0.0 <= self.view.estimated_free(site) <= cap


StateViewMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestStateView = StateViewMachine.TestCase

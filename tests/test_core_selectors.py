"""Tests for site-selector policies."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    AvailabilityView,
    LeastRecentlyUsedSelector,
    LeastUsedSelector,
    RandomSelector,
    RoundRobinSelector,
    make_selector,
)
from repro.sim import RngRegistry


@pytest.fixture
def rng():
    return RngRegistry(0).stream("selector")


AVAIL = {"a": 10.0, "b": 50.0, "c": 30.0, "d": 0.0}


class TestRandomSelector:
    def test_only_fitting_sites(self, rng):
        sel = RandomSelector(rng)
        picks = {sel.select(AVAIL, cpus=20) for _ in range(50)}
        assert picks <= {"b", "c"}
        assert len(picks) == 2  # both get picked eventually

    def test_none_when_nothing_fits(self, rng):
        assert RandomSelector(rng).select(AVAIL, cpus=1000) is None

    def test_select_any_ignores_availability(self, rng):
        sel = RandomSelector(rng)
        picks = {sel.select_any(list(AVAIL)) for _ in range(100)}
        assert picks == {"a", "b", "c", "d"}

    def test_select_any_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            RandomSelector(rng).select_any([])


class TestRoundRobin:
    def test_cycles_in_name_order(self):
        sel = RoundRobinSelector()
        picks = [sel.select(AVAIL, cpus=5) for _ in range(6)]
        assert picks == ["a", "b", "c", "a", "b", "c"]

    def test_skips_unfitting(self):
        sel = RoundRobinSelector()
        picks = [sel.select(AVAIL, cpus=20) for _ in range(4)]
        assert picks == ["b", "c", "b", "c"]

    def test_none_when_nothing_fits(self):
        assert RoundRobinSelector().select(AVAIL, cpus=1000) is None


class TestLeastUsed:
    def test_picks_most_free(self, rng):
        assert LeastUsedSelector(rng).select(AVAIL, cpus=1) == "b"

    def test_tie_break_random_among_best(self, rng):
        sel = LeastUsedSelector(rng)
        avail = {"x": 10.0, "y": 10.0, "z": 1.0}
        picks = {sel.select(avail, cpus=1) for _ in range(50)}
        assert picks == {"x", "y"}

    def test_none_when_nothing_fits(self, rng):
        assert LeastUsedSelector(rng).select(AVAIL, cpus=1000) is None


class TestLRU:
    def test_rotates_through_sites(self):
        sel = LeastRecentlyUsedSelector()
        picks = [sel.select(AVAIL, cpus=5) for _ in range(4)]
        # Never-used sites first (name order), then the oldest-used.
        assert picks == ["a", "b", "c", "a"]

    def test_respects_fit(self):
        sel = LeastRecentlyUsedSelector()
        assert sel.select(AVAIL, cpus=40) == "b"
        assert sel.select(AVAIL, cpus=40) == "b"


class TestFactory:
    def test_all_names(self, rng):
        for name in ("random", "round_robin", "least_used", "lru"):
            assert make_selector(name, rng) is not None

    def test_unknown_rejected(self, rng):
        with pytest.raises(ValueError):
            make_selector("best_fit", rng)

    def test_stochastic_needs_rng(self):
        with pytest.raises(ValueError):
            make_selector("random")
        assert make_selector("round_robin") is not None


# -- differential: array selectors vs the dict scans they replaced -----------
# The reference policies below are the pre-columnar implementations, kept
# here (and only here) verbatim.  The array selectors must return the same
# site AND consume the rng identically, selection after selection.

def _fitting(availabilities, cpus):
    return [s for s, free in availabilities.items() if free >= cpus]


class RefRandom:
    def __init__(self, rng):
        self.rng = rng

    def select(self, availabilities, cpus):
        fitting = _fitting(availabilities, cpus)
        if not fitting:
            return None
        return fitting[int(self.rng.integers(0, len(fitting)))]

    def select_any(self, sites):
        return sites[int(self.rng.integers(0, len(sites)))]


class RefRoundRobin:
    def __init__(self):
        self._cursor = 0

    def select(self, availabilities, cpus):
        fitting = sorted(_fitting(availabilities, cpus))
        if not fitting:
            return None
        choice = fitting[self._cursor % len(fitting)]
        self._cursor += 1
        return choice


class RefLeastUsed:
    def __init__(self, rng, spread=1.0):
        self.rng = rng
        self.spread = spread

    def select(self, availabilities, cpus):
        fitting = _fitting(availabilities, cpus)
        if not fitting:
            return None
        best = max(availabilities[s] for s in fitting)
        top = [s for s in fitting if availabilities[s] >= self.spread * best]
        if len(top) == 1:
            return top[0]
        return top[int(self.rng.integers(0, len(top)))]


class RefLRU:
    def __init__(self):
        self._last_used = {}
        self._tick = 0

    def select(self, availabilities, cpus):
        fitting = _fitting(availabilities, cpus)
        if not fitting:
            return None
        choice = min(fitting, key=lambda s: (self._last_used.get(s, -1), s))
        self._tick += 1
        self._last_used[choice] = self._tick
        return choice


def ref_least_bad(availabilities, fallback):
    """The nothing-fits fallback as client and decision point wrote it."""
    best = max(availabilities.values())
    top = [s for s, v in availabilities.items() if v >= best - 1e-9]
    return fallback.select_any(top)


def _pair(policy, spread, seed):
    """(array selector, reference, their rngs) — rngs seeded alike."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    if policy == "random":
        return RandomSelector(a), RefRandom(b), a, b
    if policy == "round_robin":
        return RoundRobinSelector(), RefRoundRobin(), a, b
    if policy == "least_used":
        return LeastUsedSelector(a, spread), RefLeastUsed(b, spread), a, b
    return LeastRecentlyUsedSelector(), RefLRU(), a, b


#: Free-CPU estimates: small integers (ties, all-full), values one ulp
#: either side of an integer, and ``cap - busy`` with fractional busy.
free_values = st.one_of(
    st.integers(0, 4).map(float),
    st.sampled_from([0.5, 1.9999999999999998, 2.0000000000000004, 3.4]),
    st.tuples(st.integers(1, 64), st.floats(0.0, 64.0)).map(
        lambda cb: cb[0] - min(cb[1], cb[0])))


@st.composite
def availability_rows(draw):
    """Unique site names in arbitrary (non-sorted) column order, plus a
    few value rows over them — successive answers of one decision point."""
    names = tuple(draw(st.lists(
        st.text("abcXYZ019_", min_size=1, max_size=4),
        min_size=1, max_size=9, unique=True)))
    row = st.lists(free_values, min_size=len(names), max_size=len(names))
    return names, draw(st.lists(row, min_size=1, max_size=4))


class TestArraySelectorsMatchDictScans:
    @settings(max_examples=150, deadline=None)
    @given(data=availability_rows(),
           policy=st.sampled_from(["random", "round_robin", "least_used", "lru"]),
           spread=st.sampled_from([1.0, 0.85, 0.5]),
           cpus=st.lists(st.integers(1, 5), min_size=1, max_size=5),
           seed=st.integers(0, 2**16), as_dict=st.booleans())
    @example(data=(("b", "a", "c"), [[0.0, 0.0, 0.0]]), policy="least_used",
             spread=0.85, cpus=[1], seed=0, as_dict=False)   # all full
    @example(data=(("b", "a", "c"), [[0.0, 2.0, 1.0]]), policy="least_used",
             spread=0.5, cpus=[2], seed=0, as_dict=False)    # one fits
    @example(data=(("b", "a", "c"), [[3.0, 3.0, 3.0], [0.5, 0.5, 0.5]]),
             policy="round_robin", spread=1.0, cpus=[1], seed=3,
             as_dict=True)                                    # ties + fallback
    def test_same_site_same_rng_state_for_50_selections(
            self, data, policy, spread, cpus, seed, as_dict):
        names, rows = data
        sel, ref, sel_rng, ref_rng = _pair(policy, spread, seed)
        fb_rng, ref_fb_rng = (np.random.default_rng(seed + 1),
                              np.random.default_rng(seed + 1))
        fallback, ref_fallback = RandomSelector(fb_rng), RefRandom(ref_fb_rng)
        for k in range(50):
            avail = dict(zip(names, rows[k % len(rows)]))
            view = avail if as_dict else AvailabilityView(
                names, np.array(rows[k % len(rows)]))
            n = cpus[k % len(cpus)]
            got, want = sel.select(view, n), ref.select(avail, n)
            if want is None:   # the least-bad path, as the callers run it
                assert got is None
                got = fallback.least_bad(view)
                want = ref_least_bad(avail, ref_fallback)
            assert got == want, (k, avail, n)
            assert sel_rng.bit_generator.state == ref_rng.bit_generator.state
            assert fb_rng.bit_generator.state == ref_fb_rng.bit_generator.state


class _TwoMaskLeastUsed(LeastUsedSelector):
    """``_pick`` as it stood: two masks joined with ``&``."""

    def _pick(self, view, cpus):
        free = view.free
        best = free.max(initial=-np.inf)
        if best < cpus:
            return None
        top = np.flatnonzero((free >= cpus) & (free >= self.spread * best))
        if len(top) == 1:
            return top[0]
        return top[int(self.rng.integers(0, len(top)))]


@st.composite
def free_columns(draw):
    """1-3,000 sites of free CPUs: few distinct values (ties), sometimes
    all equal, sometimes fractional."""
    n = draw(st.integers(1, 3000))
    levels = draw(st.lists(st.sampled_from(
        [0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 7.0, 8.0, 16.0, 17.5, 64.0, 400.0]),
        min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(levels) - 1), min_size=n,
                          max_size=n))
    return np.array([levels[i] for i in picks])


class TestLeastUsedOneMask:
    @settings(max_examples=80, deadline=None)
    @given(free=free_columns(), spread=st.sampled_from([1.0, 0.85]),
           cpus=st.lists(st.integers(1, 70), min_size=1, max_size=8),
           seed=st.integers(0, 2**16))
    def test_picks_the_two_mask_site_with_the_same_draw(self, free, spread,
                                                        cpus, seed):
        one = LeastUsedSelector(np.random.default_rng(seed), spread)
        two = _TwoMaskLeastUsed(np.random.default_rng(seed), spread)
        view = AvailabilityView(tuple(f"s{i}" for i in range(len(free))),
                                free)
        for n in cpus:
            assert one._pick(view, n) == two._pick(view, n)
            assert (one.rng.bit_generator.state
                    == two.rng.bit_generator.state)

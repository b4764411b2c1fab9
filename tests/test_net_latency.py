"""Tests for latency models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import ConstantLatency, LanLatency, PairwiseWanLatency
from repro.net.latency import LatencyModel
from repro.sim import RngRegistry


class TestConstantLatency:
    def test_sample(self):
        assert ConstantLatency(0.05).sample("a", "b") == 0.05

    def test_rtt_is_double(self):
        assert ConstantLatency(0.05).rtt("a", "b") == pytest.approx(0.10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)


class TestLanLatency:
    def test_sub_millisecond(self):
        assert LanLatency().sample("a", "b") < 0.001


class TestPairwiseWanLatency:
    def test_base_latency_stable_per_pair(self):
        model = PairwiseWanLatency(RngRegistry(1).stream("wan"))
        assert model.base_latency("a", "b") == model.base_latency("a", "b")

    def test_base_latency_symmetric(self):
        model = PairwiseWanLatency(RngRegistry(1).stream("wan"))
        assert model.base_latency("a", "b") == model.base_latency("b", "a")

    def test_self_latency_zero(self):
        model = PairwiseWanLatency(RngRegistry(1).stream("wan"))
        assert model.sample("a", "a") == 0.0

    def test_pairs_differ(self):
        model = PairwiseWanLatency(RngRegistry(1).stream("wan"))
        bases = {model.base_latency("a", f"n{i}") for i in range(20)}
        assert len(bases) > 10  # lognormal diversity

    def test_jitter_varies_per_message(self):
        model = PairwiseWanLatency(RngRegistry(1).stream("wan"))
        samples = {model.sample("a", "b") for _ in range(20)}
        assert len(samples) > 10

    def test_median_scale(self):
        """Sampled latencies have roughly the configured median."""
        model = PairwiseWanLatency(RngRegistry(2).stream("wan"),
                                   median_ms=60.0, sigma=0.6)
        samples = np.array([model.sample(f"x{i}", f"y{i}") for i in range(2000)])
        median = np.median(samples)
        assert 0.04 < median < 0.09  # ~60 ms within lognormal tolerance

    def test_parameter_validation(self):
        rng = RngRegistry(0).stream("wan")
        with pytest.raises(ValueError):
            PairwiseWanLatency(rng, median_ms=0.0)
        with pytest.raises(ValueError):
            PairwiseWanLatency(rng, sigma=-1.0)

    @pytest.mark.parametrize("field", ["median_ms", "sigma", "jitter_sigma"])
    def test_nan_parameters_refused_by_name(self, field):
        # ``median_ms <= 0`` / ``sigma < 0`` are both false for NaN,
        # which then poisoned every delay (and every heap time) after.
        with pytest.raises(ValueError, match=f"{field} must be"):
            PairwiseWanLatency(RngRegistry(0).stream("wan"),
                               **{field: float("nan")})

    def test_all_samples_positive(self):
        model = PairwiseWanLatency(RngRegistry(3).stream("wan"))
        assert all(model.sample("a", f"b{i}") > 0 for i in range(100))


class _ScalarWan(PairwiseWanLatency):
    """The one-draw-at-a-time model the blocked one replaced: a scalar
    ``np.exp(rng.normal(0, s))`` per base and per message."""

    def base_latency(self, src, dst):
        base = self._base.get((src, dst))
        if base is None:
            if src == dst:
                return 0.0
            base = self._base.get((dst, src))
            if base is None:
                base = self._base[src, dst] = self.median_s * float(
                    np.exp(self.rng.normal(0.0, self.sigma)))
        return base

    def sample(self, src, dst):
        base = self.base_latency(src, dst)
        if base == 0.0:
            return 0.0
        return base * float(np.exp(self.rng.normal(0.0, self.jitter_sigma)))

    # Two scalar samples, not the blocked model's one-frame round trip.
    rtt = LatencyModel.rtt


class _ReprKeyedWan(_ScalarWan):
    """The earlier key: one entry per pair under its ``repr``-canonical
    ordering, built (two ``repr`` calls) on every message."""

    def base_latency(self, src, dst):
        if src == dst:
            return 0.0
        key = (src, dst) if repr(src) <= repr(dst) else (dst, src)
        base = self._base.get(key)
        if base is None:
            base = self.median_s * float(np.exp(self.rng.normal(0.0, self.sigma)))
            self._base[key] = base
        return base


@given(sigma=st.sampled_from([0.0, 0.15, 0.6, 1.7]),
       jitter_sigma=st.sampled_from([0.0, 0.05, 0.15, 0.9]),
       run=st.sampled_from([1, 1023, 1024, 1025, 2049]),
       pairs=st.integers(1, 40), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_blocked_draws_equal_the_scalar_model(sigma, jitter_sigma, run,
                                              pairs, seed):
    """Every base and jitter draw of the blocked model equals the scalar
    one, whatever the shape parameters, wherever first-message base
    draws fall, and across block boundaries (1,023 / 1,024 / 1,025
    draws into a block)."""
    def draws(cls):
        model = cls(RngRegistry(seed).stream("wan"), sigma=sigma,
                    jitter_sigma=jitter_sigma)
        out = [model.sample("h", f"s{i % pairs}") for i in range(run)]
        out += [model.rtt(f"d{i}", "h") for i in range(pairs)]
        return out

    assert draws(PairwiseWanLatency) == draws(_ScalarWan)


@given(steps=st.lists(st.tuples(st.sampled_from(["sample", "rtt"]),
                                st.integers(0, 5), st.integers(0, 5)),
                      min_size=1, max_size=400),
       seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_either_direction_and_rtt_equal_the_scalar_model(steps, seed):
    """A pair first seen in one direction is found under the other (a
    response, an RTT's back leg) with the same base; a one-frame
    ``rtt`` draws what two samples draw, a node paired with itself
    included.  Block boundaries fall anywhere in the mix."""
    def draws(cls):
        model = cls(RngRegistry(seed).stream("wan"))
        return [getattr(model, op)(f"n{a}", f"n{b}")
                for _ in range(4) for op, a, b in steps]

    assert draws(PairwiseWanLatency) == draws(_ScalarWan)


def test_block_position_is_snapshot_state():
    """Two models whose streams are in the same place but whose blocks
    are read to different depths are different states."""
    a = PairwiseWanLatency(RngRegistry(5).stream("wan"))
    b = PairwiseWanLatency(RngRegistry(5).stream("wan"))
    a.sample("x", "y")
    b.sample("x", "y")
    b.sample("x", "y")
    assert (a.rng.bit_generator.state == b.rng.bit_generator.state)
    assert a.snapshot_state() != b.snapshot_state()


_NODES = ["dp0", "dp1", "host000", "host001", "site-a", "site-b", 7]


@given(messages=st.lists(st.tuples(st.sampled_from(_NODES),
                                   st.sampled_from(_NODES)), max_size=60),
       seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_ordered_key_draws_like_the_repr_canonical_key(messages, seed):
    """Same value for every message, the first draw per unordered pair
    unchanged, and one entry per pair either way (no reverse copy)."""
    old = _ReprKeyedWan(RngRegistry(seed).stream("wan"))
    new = PairwiseWanLatency(RngRegistry(seed).stream("wan"))
    assert ([old.sample(s, d) for s, d in messages]
            == [new.sample(s, d) for s, d in messages])
    assert len(new._base) == len(old._base)

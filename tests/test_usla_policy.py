"""Tests for policy evaluation (admission, entitlements, violations)."""

import pytest

from repro.usla import FairShareRule, PolicyEngine, ShareKind, parse_policy


@pytest.fixture
def engine():
    return PolicyEngine(parse_policy("""
        grid:atlas=40%
        grid:cms=30%+
        grid:cdf=10%-
        atlas:atlas.higgs=50%+
    """))


class TestIndexing:
    def test_len_and_iter(self, engine):
        assert len(engine) == 4
        assert len(list(engine)) == 4

    def test_rules_for_pair(self, engine):
        rules = engine.rules_for("grid", "atlas")
        assert len(rules) == 1 and rules[0].percent == 40.0

    def test_rules_for_provider(self, engine):
        assert len(engine.rules_for("grid")) == 3

    def test_remove(self, engine):
        assert engine.remove_rules("grid", "cms") == 1
        assert engine.rules_for("grid", "cms") == []


class TestEntitlements:
    def test_entitled_fraction_target(self, engine):
        assert engine.entitled_fraction("grid", "atlas") == 0.40

    def test_entitled_fraction_default_opportunistic(self, engine):
        assert engine.entitled_fraction("grid", "unknown-vo") == 1.0

    def test_entitled_fraction_min_of_rules(self):
        e = PolicyEngine([FairShareRule("g", "v", 40.0),
                          FairShareRule("g", "v", 25.0, ShareKind.UPPER_LIMIT)])
        assert e.entitled_fraction("g", "v") == 0.25

    def test_lower_limit_does_not_cap(self, engine):
        assert engine.entitled_fraction("grid", "cdf") == 1.0


class TestAdmission:
    def test_within_share_allowed(self, engine):
        d = engine.check_admission("grid", "atlas", usage_fraction=0.20,
                                   request_fraction=0.10)
        assert d.allowed and d.headroom_fraction == pytest.approx(0.20)

    def test_over_share_denied(self, engine):
        d = engine.check_admission("grid", "cms", usage_fraction=0.29,
                                   request_fraction=0.05)
        assert not d.allowed
        assert d.binding_rule.percent == 30.0
        assert "upper_limit" in d.reason

    def test_no_rule_admitted(self, engine):
        d = engine.check_admission("grid", "newvo", usage_fraction=0.9)
        assert d.allowed and d.binding_rule is None

    def test_exactly_at_cap_allowed(self, engine):
        d = engine.check_admission("grid", "cms", usage_fraction=0.25,
                                   request_fraction=0.05)
        assert d.allowed

    def test_negative_inputs_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.check_admission("grid", "atlas", usage_fraction=-0.1)

    def test_recursive_group_admission(self, engine):
        d = engine.check_admission("atlas", "atlas.higgs", usage_fraction=0.55)
        assert not d.allowed


class TestPolicyProperties:
    """Hypothesis checks on policy-engine algebra."""

    from hypothesis import given
    from hypothesis import strategies as st

    shares = st.lists(st.floats(min_value=0.1, max_value=100.0,
                                allow_nan=False), min_size=1, max_size=6)

    @given(shares)
    def test_entitled_fraction_is_min_of_caps(self, percents):
        from repro.usla import FairShareRule, PolicyEngine, ShareKind
        engine = PolicyEngine(
            FairShareRule("g", "v", p, ShareKind.UPPER_LIMIT)
            for p in percents)
        assert engine.entitled_fraction("g", "v") == \
            pytest.approx(min(percents) / 100.0)

    @given(shares, st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    def test_admission_monotone_in_usage(self, percents, usage):
        """If denied at usage u, also denied at any higher usage."""
        from repro.usla import FairShareRule, PolicyEngine, ShareKind
        engine = PolicyEngine(
            FairShareRule("g", "v", p, ShareKind.UPPER_LIMIT)
            for p in percents)
        d_low = engine.check_admission("g", "v", usage, 0.05)
        d_high = engine.check_admission("g", "v", usage + 0.1, 0.05)
        if not d_low.allowed:
            assert not d_high.allowed

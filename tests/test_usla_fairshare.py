"""Tests for fair-share rules and the textual parser."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.usla import (
    FairShareRule,
    ResourceType,
    ShareKind,
    UslaParseError,
    format_rule,
    parse_policy,
    parse_rule,
)


class TestFairShareRule:
    def test_fraction(self):
        r = FairShareRule("grid", "atlas", 25.0)
        assert r.fraction == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            FairShareRule("grid", "v", 0.0)
        with pytest.raises(ValueError):
            FairShareRule("grid", "v", 101.0)
        with pytest.raises(ValueError):
            FairShareRule("", "v", 10.0)
        with pytest.raises(ValueError):
            FairShareRule("grid", "", 10.0)

    def test_headroom(self):
        upper = FairShareRule("grid", "v", 40.0, ShareKind.UPPER_LIMIT)
        assert upper.headroom(0.25) == pytest.approx(0.15)
        assert upper.headroom(0.50) == pytest.approx(-0.10)
        lower = FairShareRule("grid", "v", 40.0, ShareKind.LOWER_LIMIT)
        assert lower.headroom(0.99) == float("inf")


class TestParser:
    def test_parse_target(self):
        r = parse_rule("grid:atlas=40%")
        assert (r.provider, r.consumer, r.percent, r.kind) == \
            ("grid", "atlas", 40.0, ShareKind.TARGET)
        assert r.resource is ResourceType.CPU

    def test_parse_upper(self):
        assert parse_rule("grid:cms=30%+").kind is ShareKind.UPPER_LIMIT

    def test_parse_lower(self):
        assert parse_rule("grid:cms=10%-").kind is ShareKind.LOWER_LIMIT

    def test_parse_resource_prefix(self):
        r = parse_rule("storage|site003:atlas=25%+")
        assert r.resource is ResourceType.STORAGE
        assert r.provider == "site003"

    def test_parse_dotted_consumer(self):
        r = parse_rule("atlas:atlas.higgs=50%")
        assert r.consumer == "atlas.higgs"

    def test_parse_fractional_percent(self):
        assert parse_rule("g:c=12.5%").percent == 12.5

    def test_whitespace_tolerated(self):
        assert parse_rule("  grid : atlas = 40 % + ").percent == 40.0

    @pytest.mark.parametrize("bad", [
        "", "gridatlas=40%", "grid:atlas=40", "grid:atlas=x%",
        "grid:atlas=40%*", "disk|grid:atlas=40%", "grid:=40%",
        "grid:atlas=-5%",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(UslaParseError):
            parse_rule(bad)

    def test_out_of_range_percent_is_parse_error(self):
        with pytest.raises(UslaParseError):
            parse_rule("grid:atlas=150%")

    def test_parse_policy_document(self):
        doc = """
        # grid-level shares
        grid:atlas=40%
        grid:cms=30%+    # cap cms

        atlas:atlas.higgs=50%
        """
        rules = parse_policy(doc)
        assert len(rules) == 3
        assert rules[1].kind is ShareKind.UPPER_LIMIT

    def test_parse_policy_reports_line_number(self):
        with pytest.raises(UslaParseError, match="line 2"):
            parse_policy("grid:a=10%\nbogus line\n")


rule_strategy = st.builds(
    FairShareRule,
    provider=st.from_regex(r"[A-Za-z0-9_\-]{1,12}", fullmatch=True),
    consumer=st.from_regex(r"[A-Za-z0-9_\-]{1,12}(\.[A-Za-z0-9_\-]{1,8}){0,2}",
                           fullmatch=True),
    percent=st.floats(min_value=0.01, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
    kind=st.sampled_from(list(ShareKind)),
    resource=st.sampled_from(list(ResourceType)),
)


@given(rule_strategy)
def test_format_parse_roundtrip(rule):
    parsed = parse_rule(format_rule(rule))
    assert parsed.provider == rule.provider
    assert parsed.consumer == rule.consumer
    assert parsed.kind == rule.kind
    assert parsed.resource == rule.resource
    assert parsed.percent == pytest.approx(rule.percent, rel=1e-6)


@given(rule_strategy, st.floats(min_value=0, max_value=2, allow_nan=False))
def test_headroom_sign_consistent_with_violation(rule, usage):
    """Negative headroom on an upper limit means usage exceeds it, and
    vice versa."""
    if rule.kind is ShareKind.UPPER_LIMIT:
        assert (rule.headroom(usage) < 0) == (usage > rule.fraction)

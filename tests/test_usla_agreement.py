"""Tests for WS-Agreement-style documents."""

import pytest

from repro.usla import (
    Agreement,
    AgreementContext,
    FairShareRule,
    Goal,
    ServiceTerm,
    ShareKind,
)


def make_agreement():
    return Agreement(
        name="grid-atlas",
        context=AgreementContext(provider="grid", consumer="atlas"),
        terms=[ServiceTerm("cpu-share", FairShareRule("grid", "atlas", 40.0))],
        goals=[Goal("utilization", ">=", 0.5)],
        children=[
            Agreement(
                name="atlas-higgs",
                context=AgreementContext(provider="atlas", consumer="atlas.higgs"),
                terms=[ServiceTerm("cpu-share",
                                   FairShareRule("atlas", "atlas.higgs", 50.0,
                                                 ShareKind.UPPER_LIMIT))],
            )
        ],
    )


class TestContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            AgreementContext(provider="", consumer="x")

    def test_expiration(self):
        ag = Agreement("a", AgreementContext("p", "c", expiration_s=100.0))
        assert not ag.is_expired(99.0)
        assert ag.is_expired(100.0)

    def test_no_expiration(self):
        ag = Agreement("a", AgreementContext("p", "c"))
        assert not ag.is_expired(1e12)


class TestGoals:
    @pytest.mark.parametrize("cmp,obs,expected", [
        (">=", 0.5, True), (">=", 0.4, False),
        ("<=", 0.4, True), ("<=", 0.6, False),
        (">", 0.51, True), ("<", 0.49, True), ("==", 0.5, True),
    ])
    def test_comparators(self, cmp, obs, expected):
        assert Goal("m", cmp, 0.5).satisfied_by(obs) is expected

    def test_unknown_comparator_rejected(self):
        with pytest.raises(ValueError):
            Goal("m", "!=", 0.5)


class TestRecursion:
    def test_all_rules_flattens_tree(self):
        rules = make_agreement().all_rules()
        assert len(rules) == 2
        assert {r.consumer for r in rules} == {"atlas", "atlas.higgs"}


class TestSerialization:
    def test_roundtrip(self):
        ag = make_agreement()
        restored = Agreement.from_dict(ag.to_dict())
        assert restored.name == ag.name
        assert restored.context == ag.context
        assert restored.terms == ag.terms
        assert restored.goals == ag.goals
        assert len(restored.children) == 1
        assert restored.children[0].terms == ag.children[0].terms

    def test_version_roundtrip(self):
        ag = make_agreement()
        ag.bump_version()
        assert Agreement.from_dict(ag.to_dict()).version == 2

"""Policy evaluation: entitlements, headroom, admission decisions.

The decision points consult a :class:`PolicyEngine` when making
USLA-aware site selections: given the current usage picture, may this
VO (group, user) take more of this provider's resource, and how much
headroom is left?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.usla.fairshare import FairShareRule, ResourceType, ShareKind

__all__ = ["PolicyDecision", "PolicyEngine"]


@dataclass(frozen=True)
class PolicyDecision:
    """Outcome of an admission check."""

    allowed: bool
    headroom_fraction: float  # provider-resource fraction still entitled
    binding_rule: Optional[FairShareRule]  # rule that bound, if any
    reason: str = ""


class PolicyEngine:
    """Indexes fair-share rules and answers admission/entitlement queries.

    Rules are indexed by (provider, consumer, resource).  Multiple rules
    for the same key compose conservatively: the effective cap is the
    minimum over targets and upper limits.
    """

    def __init__(self, rules: Iterable[FairShareRule] = ()):
        self._rules: dict[tuple[str, str, ResourceType], list[FairShareRule]] = {}
        for r in rules:
            self.add_rule(r)

    def add_rule(self, rule: FairShareRule) -> None:
        key = (rule.provider, rule.consumer, rule.resource)
        self._rules.setdefault(key, []).append(rule)

    def remove_rules(self, provider: str, consumer: str,
                     resource: ResourceType = ResourceType.CPU) -> int:
        """Drop all rules for a key; returns how many were removed."""
        return len(self._rules.pop((provider, consumer, resource), []))

    def rules_for(self, provider: str, consumer: Optional[str] = None,
                  resource: ResourceType = ResourceType.CPU
                  ) -> list[FairShareRule]:
        if consumer is not None:
            return list(self._rules.get((provider, consumer, resource), []))
        return [r for (p, _c, res), rs in self._rules.items()
                for r in rs if p == provider and res == resource]

    def __len__(self) -> int:
        return sum(len(rs) for rs in self._rules.values())

    def __iter__(self):
        for rs in self._rules.values():
            yield from rs

    # -- queries -----------------------------------------------------------
    def entitled_fraction(self, provider: str, consumer: str,
                          resource: ResourceType = ResourceType.CPU,
                          default: float = 1.0) -> float:
        """The effective cap for consumer at provider (min over rules).

        With no applicable target/upper rule, the consumer is entitled
        to ``default`` (opportunistic use of free resources — the
        paper's environment model: "free resources are acquired when
        available").
        """
        caps = [r.fraction for r in self.rules_for(provider, consumer, resource)
                if r.kind in (ShareKind.TARGET, ShareKind.UPPER_LIMIT)]
        return min(caps) if caps else default

    def check_admission(self, provider: str, consumer: str,
                        usage_fraction: float,
                        request_fraction: float = 0.0,
                        resource: ResourceType = ResourceType.CPU
                        ) -> PolicyDecision:
        """May ``consumer`` take ``request_fraction`` more at ``provider``?

        Targets and upper limits cap admission; the binding rule is the
        tightest one.  Consumers with no rules are admitted (grids are
        opportunistic by default).
        """
        if usage_fraction < 0 or request_fraction < 0:
            raise ValueError("usage and request fractions must be >= 0")
        rules = [r for r in self.rules_for(provider, consumer, resource)
                 if r.kind in (ShareKind.TARGET, ShareKind.UPPER_LIMIT)]
        if not rules:
            return PolicyDecision(True, 1.0 - usage_fraction, None,
                                  "no applicable rule; opportunistic admission")
        binding = min(rules, key=lambda r: r.fraction)
        headroom = binding.fraction - usage_fraction
        if usage_fraction + request_fraction <= binding.fraction:
            return PolicyDecision(True, headroom, binding, "within share")
        return PolicyDecision(False, headroom, binding,
                              f"over {binding.kind.name.lower()} "
                              f"{binding.percent:g}%")

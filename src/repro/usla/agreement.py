"""WS-Agreement-shaped USLA documents.

The paper bases its SLA specification "on a subset of WS-Agreement,
taking advantage of the refined specification and the high-level
structure", expressing allocations as goals "allowing the specification
of rules with a finer granularity", and uses "a simple schema that
allows for monitoring resources and goal specifications".

An :class:`Agreement` carries a context (the two parties), service
terms (fair-share rules), guarantee goals (monitorable predicates), and
optional nested sub-agreements — the recursive VO → group → user
delegation chain.  Documents serialize to/from plain dicts, the
"simple schema" the decision points exchange.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.usla.fairshare import FairShareRule
from repro.usla.parser import format_rule, parse_rule

__all__ = ["AgreementContext", "ServiceTerm", "Goal", "Agreement"]

_COMPARATORS: dict[str, Callable[[float, float], bool]] = {
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "<": operator.lt,
    "==": operator.eq,
}


@dataclass(frozen=True)
class AgreementContext:
    """The two parties of a WS-Agreement: initiator and responder."""

    provider: str
    consumer: str
    expiration_s: Optional[float] = None  # simulated time; None = unbounded

    def __post_init__(self):
        if not self.provider or not self.consumer:
            raise ValueError("provider and consumer must be non-empty")


@dataclass(frozen=True)
class ServiceTerm:
    """One service description term wrapping a fair-share rule."""

    name: str
    rule: FairShareRule

    def to_dict(self) -> dict:
        return {"name": self.name, "rule": format_rule(self.rule)}

    @staticmethod
    def from_dict(d: dict) -> "ServiceTerm":
        return ServiceTerm(name=d["name"], rule=parse_rule(d["rule"]))


@dataclass(frozen=True)
class Goal:
    """A monitorable guarantee: ``metric comparator value``.

    e.g. ``Goal("utilization", ">=", 0.5)`` — the paper expresses
    allocations "as WS-Agreement goals".
    """

    metric: str
    comparator: str
    value: float

    def __post_init__(self):
        if self.comparator not in _COMPARATORS:
            raise ValueError(
                f"unknown comparator {self.comparator!r}; "
                f"expected one of {sorted(_COMPARATORS)}")

    def satisfied_by(self, observed: float) -> bool:
        return _COMPARATORS[self.comparator](observed, self.value)

    def to_dict(self) -> dict:
        return {"metric": self.metric, "comparator": self.comparator,
                "value": self.value}

    @staticmethod
    def from_dict(d: dict) -> "Goal":
        return Goal(metric=d["metric"], comparator=d["comparator"],
                    value=float(d["value"]))


@dataclass
class Agreement:
    """A USLA document; may nest sub-agreements recursively."""

    name: str
    context: AgreementContext
    terms: list[ServiceTerm] = field(default_factory=list)
    goals: list[Goal] = field(default_factory=list)
    children: list["Agreement"] = field(default_factory=list)
    version: int = 1

    def all_rules(self) -> list[FairShareRule]:
        """Flatten this agreement tree into its fair-share rules."""
        rules = [t.rule for t in self.terms]
        for child in self.children:
            rules.extend(child.all_rules())
        return rules

    def is_expired(self, now: float) -> bool:
        exp = self.context.expiration_s
        return exp is not None and now >= exp

    # -- serialization ("simple schema") -------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "context": {
                "provider": self.context.provider,
                "consumer": self.context.consumer,
                "expiration_s": self.context.expiration_s,
            },
            "terms": [t.to_dict() for t in self.terms],
            "goals": [g.to_dict() for g in self.goals],
            "children": [c.to_dict() for c in self.children],
            "version": self.version,
        }

    @staticmethod
    def from_dict(d: dict) -> "Agreement":
        ctx = d["context"]
        return Agreement(
            name=d["name"],
            context=AgreementContext(provider=ctx["provider"],
                                     consumer=ctx["consumer"],
                                     expiration_s=ctx.get("expiration_s")),
            terms=[ServiceTerm.from_dict(t) for t in d.get("terms", [])],
            goals=[Goal.from_dict(g) for g in d.get("goals", [])],
            children=[Agreement.from_dict(c) for c in d.get("children", [])],
            version=int(d.get("version", 1)),
        )

    def bump_version(self) -> None:
        self.version += 1

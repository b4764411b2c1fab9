"""Maui-style fair-share rules with provider/consumer extension.

A rule reads: *provider grants consumer `percent`% of `resource` as a
target / upper limit / lower limit*.  The paper's examples — ``VO0.25``,
``VO0.25+``, ``VO0.25-`` — carry only the consumer; the DI-GRUBER
extension "associat[es] both a consumer and a provider with each entry;
extending the specification in a recursive way to VOs, groups, and
users".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["ShareKind", "ResourceType", "FairShareRule"]


class ShareKind(enum.Enum):
    """Maui fair-share entry types (sign suffix in the textual syntax)."""

    TARGET = ""        # steer usage toward the percentage
    UPPER_LIMIT = "+"  # usage must not exceed the percentage
    LOWER_LIMIT = "-"  # usage must not fall below the percentage


class ResourceType(enum.Enum):
    """Resources USLAs allocate (paper §3.3)."""

    CPU = "cpu"
    STORAGE = "storage"
    NETWORK = "network"


@dataclass(frozen=True)
class FairShareRule:
    """One fair-share entry.

    Attributes
    ----------
    provider:
        The granting entity: a site name, ``"grid"`` for grid-wide
        shares, or a VO name when a VO sub-allocates to its groups.
    consumer:
        The receiving entity: a VO, ``vo.group``, or ``vo.group.user``.
    percent:
        Share of the provider's resource, in (0, 100].
    kind:
        Target, upper limit, or lower limit.
    resource:
        Resource class the share applies to (CPU by default).
    """

    provider: str
    consumer: str
    percent: float
    kind: ShareKind = ShareKind.TARGET
    resource: ResourceType = ResourceType.CPU

    def __post_init__(self):
        if not self.provider or not self.consumer:
            raise ValueError("provider and consumer must be non-empty")
        if not (0.0 < self.percent <= 100.0):
            raise ValueError(f"percent must be in (0, 100], got {self.percent}")

    @property
    def fraction(self) -> float:
        return self.percent / 100.0

    # -- evaluation helpers -------------------------------------------------
    def headroom(self, usage_fraction: float) -> float:
        """Remaining entitlement before this rule binds.

        For targets and upper limits: how much more (as a fraction of
        the provider's resource) the consumer may use; negative when
        already over.  Lower limits never restrict the consumer, so
        headroom is infinite.
        """
        if self.kind is ShareKind.LOWER_LIMIT:
            return float("inf")
        return self.fraction - usage_fraction

    def __str__(self) -> str:
        from repro.usla.parser import format_rule
        return format_rule(self)

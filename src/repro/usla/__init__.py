"""Usage service level agreements (USLAs).

The paper's USLA representation is "based on Maui semantics and
WS-Agreement syntax": fair-share entries with a percentage and a type —
target (no sign), upper limit (``+``), or lower limit (``-``) — extended
with an explicit (provider, consumer) pair and applied recursively to
VOs, groups, and users.  The paper's allocations cover processor time,
permanent storage, or network bandwidth; only processor-time shares are
brokered here.

* :mod:`repro.usla.fairshare` — the rule model;
* :mod:`repro.usla.parser` — the textual rule syntax;
* :mod:`repro.usla.agreement` — WS-Agreement-style recursive documents
  with monitoring goals;
* :mod:`repro.usla.policy` — evaluation: entitlements, headroom, and
  violation checks against observed usage;
* :mod:`repro.usla.store` — a decision point's USLA repository
  (publish / discover / merge).
"""

from repro.usla.agreement import Agreement, AgreementContext, Goal, ServiceTerm
from repro.usla.fairshare import FairShareRule, ResourceType, ShareKind
from repro.usla.parser import UslaParseError, format_rule, parse_policy, parse_rule
from repro.usla.policy import PolicyDecision, PolicyEngine
from repro.usla.store import UslaStore

__all__ = [
    "Agreement",
    "AgreementContext",
    "FairShareRule",
    "Goal",
    "PolicyDecision",
    "PolicyEngine",
    "ResourceType",
    "ServiceTerm",
    "ShareKind",
    "UslaParseError",
    "UslaStore",
    "format_rule",
    "parse_policy",
    "parse_rule",
]

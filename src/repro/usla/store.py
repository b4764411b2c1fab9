"""Per-decision-point USLA repository.

Answers the paper's storage question — "how USLAs can be stored,
retrieved, and disseminated efficiently in a large distributed
environment" — with a versioned publish/discover store.  Merging two
stores keeps the highest version per agreement name, so dissemination
strategy 1 (exchange USLAs *and* usage) is a pairwise merge that is
commutative, associative, and idempotent; the sync tests assert those
properties.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.usla.agreement import Agreement
from repro.usla.policy import PolicyEngine

__all__ = ["UslaStore"]


class UslaStore:
    """Versioned agreement repository with discovery queries."""

    def __init__(self, owner: str = ""):
        self.owner = owner
        self._agreements: dict[str, Agreement] = {}
        #: Monotone mutation counter.  Consumers that cache derived
        #: views (the engine's flattened policy) compare against it
        #: instead of relying on every mutation site to remember a
        #: manual invalidation call — a caller that published
        #: straight into the store left a decision point answering
        #: availability queries from a stale entitlement cache.
        self.mutations = 0

    # -- publish / retrieve ------------------------------------------------
    def publish(self, agreement: Agreement) -> None:
        """Insert or replace; replacing requires a strictly newer version."""
        existing = self._agreements.get(agreement.name)
        if existing is not None and agreement.version <= existing.version:
            raise ValueError(
                f"agreement {agreement.name!r} v{agreement.version} does not "
                f"supersede stored v{existing.version}")
        self._agreements[agreement.name] = agreement
        self.mutations += 1

    def get(self, name: str) -> Agreement:
        try:
            return self._agreements[name]
        except KeyError:
            raise KeyError(f"no agreement named {name!r}") from None

    def remove(self, name: str) -> None:
        if self._agreements.pop(name, None) is not None:
            self.mutations += 1

    def __len__(self) -> int:
        return len(self._agreements)

    def __contains__(self, name: str) -> bool:
        return name in self._agreements

    def __iter__(self):
        return iter(self._agreements.values())

    def snapshot_state(self) -> dict:
        """Canonical store state for snapshot digests (JSON-able)."""
        return {
            "owner": self.owner,
            "mutations": self.mutations,
            "agreements": sorted(
                [name, ag.version] for name, ag in self._agreements.items()),
        }

    # -- discovery ------------------------------------------------------------
    def discover(self, provider: Optional[str] = None,
                 consumer: Optional[str] = None,
                 now: Optional[float] = None) -> list[Agreement]:
        """Find agreements by party, optionally excluding expired ones."""
        out = []
        for ag in self._agreements.values():
            if provider is not None and ag.context.provider != provider:
                continue
            if consumer is not None and ag.context.consumer != consumer:
                continue
            if now is not None and ag.is_expired(now):
                continue
            out.append(ag)
        return out

    def policy_engine(self) -> PolicyEngine:
        """Flatten every stored agreement into a fresh policy engine."""
        engine = PolicyEngine()
        for ag in self._agreements.values():
            for rule in ag.all_rules():
                engine.add_rule(rule)
        return engine

    # -- dissemination ------------------------------------------------------
    def merge_from(self, agreements: Iterable[Agreement]) -> int:
        """Last-writer-wins merge by version; returns agreements adopted."""
        adopted = 0
        for ag in agreements:
            existing = self._agreements.get(ag.name)
            if existing is None or ag.version > existing.version:
                self._agreements[ag.name] = ag
                adopted += 1
        if adopted:
            self.mutations += 1
        return adopted

    def export(self) -> list[dict]:
        """Wire form for the sync protocol (the 'simple schema')."""
        return [ag.to_dict() for ag in self._agreements.values()]

    @staticmethod
    def import_wire(payload: list[dict]) -> list[Agreement]:
        return [Agreement.from_dict(d) for d in payload]

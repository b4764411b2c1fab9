"""Dynamic client placement with bounded per-step migration.

Two strategies for mapping submission hosts onto the live decision-point
set while it grows and shrinks:

* :class:`ConsistentHashPlacement` — a CRC32 ring with virtual nodes
  (never Python's ``hash()``: that is salted per process and would
  break cross-run determinism).  A join only claims ring segments from
  its successors; a leave only orphans its own segments — the classic
  minimal-disruption property.
* :class:`LeastLoadedPlacement` — greedy fewest-clients-first with
  seed-pinned tie-breaking, the paper's "rebalancing load among
  existing decision points" reading.

Both enforce a **migration bound**: voluntary moves per rebalance step
are capped at ``ceil(K/N)`` clients (K clients, N live decision
points, scaled by a config factor).  Forced moves — clients bound to a
dead or retired broker — are exempt, since staying put is not an
option.  A step that hits the cap leaves the placement slightly stale;
the next control window moves the rest, so churn per window is bounded
no matter how violent the topology change.
"""

from __future__ import annotations

import bisect
import math
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = ["PlacementStep", "ConsistentHashPlacement",
           "LeastLoadedPlacement", "make_placement", "migration_bound"]


def migration_bound(n_clients: int, n_dps: int, factor: float = 1.0) -> int:
    """Voluntary moves allowed in one rebalance step: ceil(K/N) * factor."""
    if n_dps <= 0:
        return 0
    return max(1, math.ceil(factor * math.ceil(n_clients / n_dps)))


@dataclass
class PlacementStep:
    """Outcome of one rebalance: who moves where, and why."""

    moves: dict[str, str] = field(default_factory=dict)     # voluntary
    forced: dict[str, str] = field(default_factory=dict)    # evacuations
    deferred: int = 0    # voluntary moves withheld by the bound


def _crc(key: str) -> int:
    return zlib.crc32(key.encode("utf-8"))


class ConsistentHashPlacement:
    """CRC32 ring with virtual nodes; deterministic across processes."""

    def __init__(self, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._ring_cache: dict[tuple[str, ...], tuple[list[int], list[str]]] \
            = {}

    def _ring(self, dps: Sequence[str]) -> tuple[list[int], list[str]]:
        key = tuple(sorted(dps))
        cached = self._ring_cache.get(key)
        if cached is not None:
            return cached
        points = sorted((_crc(f"{dp}#{v}"), dp)
                        for dp in key for v in range(self.vnodes))
        ring = ([p for p, _ in points], [d for _, d in points])
        self._ring_cache[key] = ring
        return ring

    def assign_one(self, client: str, dps: Sequence[str]) -> str:
        hashes, owners = self._ring(dps)
        h = _crc(client)
        # First ring point clockwise from the client's hash (wraps).
        i = bisect.bisect_right(hashes, h)
        return owners[i % len(owners)]

    def assign(self, clients: Sequence[str], dps: Sequence[str]
               ) -> dict[str, str]:
        """Full ring assignment (initial placement)."""
        if not dps:
            raise ValueError("no decision points to assign to")
        return {c: self.assign_one(c, dps) for c in clients}

    def rebalance(self, assignment: dict[str, str], dps: Sequence[str],
                  max_moves: Optional[int] = None,
                  rng: Optional[np.random.Generator] = None
                  ) -> PlacementStep:
        """Moves to converge ``assignment`` toward the ring, bounded.

        ``rng`` is unused (the ring is fully deterministic); accepted so
        both placements share a call signature.
        """
        if not dps:
            return PlacementStep()
        live = set(dps)
        if max_moves is None:
            max_moves = migration_bound(len(assignment), len(dps))
        step = PlacementStep()
        voluntary: list[tuple[str, str]] = []
        for client in sorted(assignment):
            current = assignment[client]
            target = self.assign_one(client, dps)
            if current not in live:
                step.forced[client] = target
            elif target != current:
                voluntary.append((client, target))
        for client, target in voluntary[:max_moves]:
            step.moves[client] = target
        step.deferred = max(0, len(voluntary) - max_moves)
        return step


class LeastLoadedPlacement:
    """Fewest-clients-first with seed-pinned tie-breaking."""

    def assign(self, clients: Sequence[str], dps: Sequence[str],
               rng: Optional[np.random.Generator] = None) -> dict[str, str]:
        if not dps:
            raise ValueError("no decision points to assign to")
        counts = {dp: 0 for dp in sorted(dps)}
        out = {}
        for client in sorted(clients):
            out[client] = self._pick(counts, rng)
            counts[out[client]] += 1
        return out

    @staticmethod
    def _pick(counts: dict[str, int],
              rng: Optional[np.random.Generator]) -> str:
        low = min(counts.values())
        ties = [dp for dp in sorted(counts) if counts[dp] == low]
        if rng is not None and len(ties) > 1:
            return ties[int(rng.integers(0, len(ties)))]
        return ties[0]

    def rebalance(self, assignment: dict[str, str], dps: Sequence[str],
                  max_moves: Optional[int] = None,
                  rng: Optional[np.random.Generator] = None
                  ) -> PlacementStep:
        """Evacuate dead brokers, then level counts within the bound."""
        if not dps:
            return PlacementStep()
        live = set(dps)
        if max_moves is None:
            max_moves = migration_bound(len(assignment), len(dps))
        counts = {dp: 0 for dp in sorted(dps)}
        per_dp: dict[str, list[str]] = {dp: [] for dp in sorted(dps)}
        step = PlacementStep()
        for client in sorted(assignment):
            dp = assignment[client]
            if dp in live:
                counts[dp] += 1
                per_dp[dp].append(client)
        # Forced first: clients stranded on dead/retired brokers.
        for client in sorted(assignment):
            if assignment[client] not in live:
                target = self._pick(counts, rng)
                step.forced[client] = target
                counts[target] += 1
                per_dp[target].append(client)
        # Then voluntary leveling, one client at a time, bounded.
        while len(step.moves) < max_moves:
            hi = max(sorted(counts), key=lambda d: counts[d])
            lo = self._pick(counts, rng)
            if counts[hi] - counts[lo] <= 1:
                break
            mover = per_dp[hi][0]  # deterministic: sorted insertion order
            per_dp[hi] = per_dp[hi][1:]
            per_dp[lo].append(mover)
            counts[hi] -= 1
            counts[lo] += 1
            step.moves[mover] = lo
        # Residual imbalance beyond the bound is deferred work.
        hi = max(counts.values())
        lo = min(counts.values())
        step.deferred = max(0, hi - lo - 1)
        return step


def make_placement(kind: str, vnodes: int = 64):
    if kind == "consistent_hash":
        return ConsistentHashPlacement(vnodes=vnodes)
    if kind == "least_loaded":
        return LeastLoadedPlacement()
    raise ValueError(f"unknown placement {kind!r}")

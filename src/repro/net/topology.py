"""Decision-point overlay topologies and client assignment.

The paper connects decision points "in a mesh, a simple configuration
adopted to simplify analysis"; the ablation benches also exercise ring
and star overlays.  Clients (submission hosts) are assigned to exactly
one decision point, "selected randomly in the beginning", i.e. a static
random assignment.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

__all__ = ["BrokerTopology", "assign_clients", "cross_pairs"]

_KINDS = ("mesh", "ring", "star", "line")


class BrokerTopology:
    """Overlay graph among decision points, as an adjacency table.

    Parameters
    ----------
    nodes:
        Decision-point identifiers (order defines ring/star/line layout).
    kind:
        ``"mesh"`` (complete graph — the paper's configuration),
        ``"ring"``, ``"star"`` (first node is the hub), or ``"line"``.

    A node's neighbours are listed in the order its edges were laid
    down (by the edge lists below); that order is each decision point's
    sync send order, so it is part of the determinism contract.
    """

    def __init__(self, nodes: Sequence[Hashable], kind: str = "mesh"):
        if kind not in _KINDS:
            raise ValueError(f"unknown topology kind {kind!r}; expected one of {_KINDS}")
        nodes = list(nodes)
        if len(nodes) != len(set(nodes)):
            raise ValueError("duplicate node identifiers in topology")
        if not nodes:
            raise ValueError("topology requires at least one node")
        self.kind = kind
        self.nodes = nodes
        # Dicts as insertion-ordered sets: a repeated edge (two-node
        # ring) keeps its first position.
        adjacency: dict[Hashable, dict] = {n: {} for n in nodes}
        for a, b in self._edges(nodes, kind):
            adjacency[a][b] = None
            adjacency[b][a] = None
        self._adjacency = {n: tuple(peers) for n, peers in adjacency.items()}

    @staticmethod
    def _edges(nodes: Sequence[Hashable], kind: str
               ) -> list[tuple[Hashable, Hashable]]:
        n = len(nodes)
        if n == 1:
            return []
        if kind == "mesh":
            return [(nodes[i], nodes[j])
                    for i in range(n) for j in range(i + 1, n)]
        if kind == "ring":
            return [(nodes[i], nodes[(i + 1) % n]) for i in range(n)]
        if kind == "star":
            return [(nodes[0], other) for other in nodes[1:]]
        return [(nodes[i], nodes[i + 1]) for i in range(n - 1)]  # line

    def neighbors(self, node: Hashable) -> list[Hashable]:
        """Peers this decision point exchanges state with directly."""
        return list(self._adjacency[node])

    def __len__(self) -> int:
        return len(self.nodes)


def cross_pairs(islands: Sequence[Sequence[Hashable]]
                ) -> list[tuple[Hashable, Hashable]]:
    """Every ordered node pair that straddles an island boundary.

    The fault injector cuts exactly these pairs to realize a mesh
    partition: traffic within an island flows, traffic across never
    arrives.  Nodes may be decision points or submission hosts; a node
    appearing in two islands is rejected (ambiguous membership).
    """
    seen: set[Hashable] = set()
    groups = [list(island) for island in islands]
    for island in groups:
        for node in island:
            if node in seen:
                raise ValueError(f"node {node!r} appears in two islands")
            seen.add(node)
    pairs: list[tuple[Hashable, Hashable]] = []
    for i, a_island in enumerate(groups):
        for j, b_island in enumerate(groups):
            if i == j:
                continue
            pairs.extend((a, b) for a in a_island for b in b_island)
    return pairs


def assign_clients(clients: Sequence[Hashable], decision_points: Sequence[Hashable],
                   rng: np.random.Generator) -> dict[Hashable, Hashable]:
    """Static random client → decision-point assignment (paper §4.3).

    Each submission host picks one decision point uniformly at random at
    the start of the run and keeps it; the returned dict maps client id
    to decision-point id.
    """
    if not decision_points:
        raise ValueError("need at least one decision point")
    dps = list(decision_points)
    picks = rng.integers(0, len(dps), size=len(clients))
    return {c: dps[int(i)] for c, i in zip(clients, picks)}

"""Actuator: executes scale decisions against the running deployment.

Scale-up revives retired decision points first (the PR-2
crash→restart/resync machinery: a revived broker pulls recent dispatch
records from its new overlay neighbors) and only then deploys fresh
ones; scale-down evacuates the victim's clients through the placement
module and retires the service cleanly.  Every membership change it
makes is a ``topology.join``/``topology.leave`` event with
``source="autoscale"``.

A crash is not a membership change: the crashed decision point stays in
the overlay and its clients degrade through the paper's timeout →
random fallback.  Recovery is the placement step that ends every scale
action: its forced moves evacuate every client bound to a decision
point that is not live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.control.placement import make_placement, migration_bound
from repro.control.policy import AutoscaleConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.broker import DIGruberDeployment
    from repro.sim.kernel import Simulator

__all__ = ["ControlAction", "Actuator"]


@dataclass(frozen=True)
class ControlAction:
    """One actuation the planner took (journaled, benched, asserted on)."""

    time: float
    kind: str            # "scale_up" | "scale_down"
    n_before: int
    n_after: int
    dps: tuple[str, ...] = ()      # joined/retired decision points
    clients_moved: int = 0
    clients_deferred: int = 0


class Actuator:
    """Applies scale/placement decisions; keeps the assignment map."""

    def __init__(self, sim: "Simulator", deployment: "DIGruberDeployment",
                 config: AutoscaleConfig, rng: np.random.Generator):
        self.sim = sim
        self.deployment = deployment
        self.config = config
        self.rng = rng
        self.placement = make_placement(config.placement,
                                        vnodes=config.vnodes)
        self.actions: list[ControlAction] = []
        self.clients_moved = 0

    # -- helpers -------------------------------------------------------------
    def _assignment(self) -> dict[str, str]:
        return {str(c.node_id): str(c.decision_point)
                for c in self.deployment.clients}

    def _clients_by_host(self) -> dict[str, object]:
        return {str(c.node_id): c for c in self.deployment.clients}

    def _apply_step(self, step) -> int:
        by_host = self._clients_by_host()
        moved = 0
        for host in sorted(step.forced):
            by_host[host].rebind(step.forced[host])
            moved += 1
        for host in sorted(step.moves):
            by_host[host].rebind(step.moves[host])
            moved += 1
        self.clients_moved += moved
        if moved:
            self.sim.metrics.counter("control.migrations").inc(moved)
        return moved

    def _record(self, action: ControlAction) -> None:
        self.actions.append(action)
        self.sim.trace.emit(f"control.{action.kind}", "autoscale",
                            n_before=action.n_before, n_after=action.n_after,
                            dps=",".join(action.dps),
                            moved=action.clients_moved,
                            deferred=action.clients_deferred)

    # -- actuation -----------------------------------------------------------
    def scale_up(self, n: int) -> ControlAction:
        """Add ``n`` live decision points: revive retired, then create."""
        deployment = self.deployment
        before = len(deployment.live_dp_ids)
        joined = []
        for _ in range(n):
            revivable = sorted(deployment.retired)
            if revivable:
                dp = deployment.revive_decision_point(revivable[0],
                                                      source="autoscale")
            else:
                dp = deployment.add_decision_point(source="autoscale")
            joined.append(str(dp.node_id))
        moved, deferred = self._rebalance_onto(deployment.live_dp_ids)
        action = ControlAction(
            time=self.sim.now, kind="scale_up", n_before=before,
            n_after=len(deployment.live_dp_ids), dps=tuple(joined),
            clients_moved=moved, clients_deferred=deferred)
        self._record(action)
        return action

    def scale_down(self, n: int) -> ControlAction:
        """Retire the ``n`` least-loaded live decision points.

        Clients are evacuated *before* the broker retires — in-flight
        queries still finish against it (rebind is a client-side
        pointer swap) — and evacuations are forced moves, exempt from
        the voluntary-migration bound: staying is not an option.
        """
        deployment = self.deployment
        before = len(deployment.live_dp_ids)
        victims: list[str] = []
        evacuated = 0
        for _ in range(n):
            live = deployment.live_dp_ids
            if len(live) <= max(self.config.min_dps, 1):
                break
            # Fewest bound clients; ties break on dp id (deterministic).
            victim = min(sorted(live),
                         key=lambda d: len(deployment.clients_of(d)))
            victims.append(victim)
            survivors = [d for d in live if d != victim]
            for client in list(deployment.clients_of(victim)):
                client.rebind(self._evacuation_target(str(client.node_id),
                                                      survivors))
                evacuated += 1
            deployment.retire_decision_point(victim, source="autoscale")
        if evacuated:
            self.clients_moved += evacuated
            self.sim.metrics.counter("control.migrations").inc(evacuated)
        moved, deferred = self._rebalance_onto(deployment.live_dp_ids)
        action = ControlAction(
            time=self.sim.now, kind="scale_down", n_before=before,
            n_after=len(deployment.live_dp_ids), dps=tuple(victims),
            clients_moved=moved + evacuated,
            clients_deferred=deferred)
        self._record(action)
        return action

    def _evacuation_target(self, host: str, survivors: list[str]) -> str:
        if self.config.placement == "consistent_hash":
            return self.placement.assign_one(host, survivors)
        counts = {d: len(self.deployment.clients_of(d)) for d in survivors}
        low = min(counts.values())
        ties = [d for d in sorted(counts) if counts[d] == low]
        if len(ties) > 1:
            return ties[int(self.rng.integers(0, len(ties)))]
        return ties[0]

    def _rebalance_onto(self, live: list[str]) -> tuple[int, int]:
        if not live:
            return 0, 0
        assignment = self._assignment()
        bound = migration_bound(len(assignment), len(live),
                                factor=self.config.migration_bound_factor)
        step = self.placement.rebalance(assignment, live, max_moves=bound,
                                        rng=self.rng)
        return self._apply_step(step), step.deferred

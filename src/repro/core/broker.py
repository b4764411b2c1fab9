"""DI-GRUBER deployment facade.

Wires a set of decision points over an overlay topology against one
grid, manages client attachment, and supports growing the
decision-point set at runtime (the §5 dynamic-reconfiguration
enhancement).
"""

from __future__ import annotations

from typing import Optional

from repro.core.client import GruberClient
from repro.core.decision_point import DecisionPoint
from repro.core.sync import DisseminationStrategy
from repro.grid.builder import Grid
from repro.net.container import ContainerProfile
from repro.net.topology import BrokerTopology
from repro.net.transport import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.usla.agreement import Agreement

__all__ = ["DIGruberDeployment"]

class DIGruberDeployment:
    """All decision points of one DI-GRUBER installation."""

    def __init__(self, sim: Simulator, network: Network, grid: Grid,
                 profile: ContainerProfile, rng: RngRegistry,
                 n_decision_points: int = 1, topology_kind: str = "mesh",
                 sync_interval_s: float = 180.0,
                 monitor_interval_s: float = 600.0,
                 strategy: DisseminationStrategy = DisseminationStrategy.USAGE_ONLY,
                 usla_aware: bool = False,
                 site_state_kb: float = 0.06,
                 assumed_job_lifetime_s: float = 900.0,
                 dp_queue_bound: Optional[int] = None,
                 sync_delta: bool = False,
                 selector: str = "least_used"):
        if n_decision_points < 1:
            raise ValueError("need at least one decision point")
        self.sim = sim
        self.network = network
        self.grid = grid
        self.profile = profile
        self.rng = rng
        self.topology_kind = topology_kind
        self.sync_interval_s = sync_interval_s
        self.monitor_interval_s = monitor_interval_s
        self.strategy = strategy
        self.usla_aware = usla_aware
        self.site_state_kb = site_state_kb
        self.assumed_job_lifetime_s = assumed_job_lifetime_s
        #: Bounded-queue load shedding for every decision point's
        #: container (``None`` = unbounded, the paper's behaviour).
        self.dp_queue_bound = dp_queue_bound
        #: Per-peer delta sync (changes payload sizes, opt-in).
        self.sync_delta = sync_delta
        #: Server-side site-selection policy (one-phase protocol).
        self.selector = selector
        self.decision_points: dict[str, DecisionPoint] = {}
        self.clients: list[GruberClient] = []
        #: Administratively retired decision points (scale-down).  They
        #: stay in ``decision_points`` (ids are never reused) but are
        #: excluded from the overlay until revived.
        self.retired: set[str] = set()
        self._started = False
        for _ in range(n_decision_points):
            self._create_dp()
        self._rewire()

    # -- construction ------------------------------------------------------
    def _create_dp(self) -> DecisionPoint:
        dp_id = f"dp{len(self.decision_points)}"
        dp = DecisionPoint(
            sim=self.sim, network=self.network, node_id=dp_id,
            grid=self.grid, profile=self.profile,
            rng=self.rng.stream(f"dp:{dp_id}"),
            monitor_interval_s=self.monitor_interval_s,
            sync_interval_s=self.sync_interval_s,
            strategy=self.strategy, usla_aware=self.usla_aware,
            site_state_kb=self.site_state_kb,
            assumed_job_lifetime_s=self.assumed_job_lifetime_s,
            max_queue=self.dp_queue_bound,
            sync_delta=self.sync_delta, selector=self.selector)
        self.decision_points[dp_id] = dp
        return dp

    def _rewire(self) -> None:
        """Rebuild the overlay over non-retired decision points.

        Crashed (but not retired) decision points stay wired: peers
        keep addressing them and their messages go unanswered, exactly
        like a real outage.  Retired ones left the membership
        deliberately and are unwired until revived.
        """
        members = [d for d in self.decision_points if d not in self.retired]
        topo = BrokerTopology(members, kind=self.topology_kind)
        for dp_id, dp in self.decision_points.items():
            dp.set_neighbors(topo.neighbors(dp_id) if dp_id in members else [])

    def _emit_topology(self, action: str, dp_id: str, source: str,
                       revived: bool = False) -> None:
        """One membership change (``topology.join``/``topology.leave``):
        manual ``add``/``retire``/``revive`` or the autoscale actuator's
        (``source``), with the live count after it.  A crash is not a
        membership event: a crashed decision point stays a member and
        goes silent (§2.2)."""
        self.sim.trace.emit(f"topology.{action}", dp_id,
                            n_live=len(self.live_dp_ids), source=source,
                            revived=revived)

    @property
    def dp_ids(self) -> list[str]:
        return list(self.decision_points)

    @property
    def live_dp_ids(self) -> list[str]:
        """Decision points that are up and serving (online, not retired)."""
        return [d for d, dp in self.decision_points.items()
                if d not in self.retired and dp.online]

    def dp(self, dp_id: str) -> DecisionPoint:
        return self.decision_points[dp_id]

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError("deployment already started")
        for dp in self.decision_points.values():
            dp.start()
        self._started = True

    def stop(self) -> None:
        for dp in self.decision_points.values():
            dp.stop()
        self._started = False

    # -- USLA distribution ------------------------------------------------------
    def publish_usla(self, agreement: Agreement,
                     dp_id: Optional[str] = None) -> None:
        """Publish an agreement to one decision point (or all of them).

        With the ``USAGE_AND_USLA`` dissemination strategy a single-DP
        publish eventually floods everywhere; the default strategy does
        not carry USLAs, so publishing to all is the operational norm.
        """
        targets = [self.decision_points[dp_id]] if dp_id else \
            list(self.decision_points.values())
        for dp in targets:
            dp.engine.usla_store.publish(agreement)
            dp.engine.invalidate_policy_cache()

    # -- clients ---------------------------------------------------------------
    def attach_client(self, client: GruberClient) -> None:
        self.clients.append(client)

    def clients_of(self, dp_id: str) -> list[GruberClient]:
        return [c for c in self.clients if c.decision_point == dp_id]

    # -- dynamic reconfiguration (§5) --------------------------------------------
    def add_decision_point(self, source: str = "manual") -> DecisionPoint:
        """Deploy one more decision point into the running overlay."""
        dp = self._create_dp()
        self._rewire()
        if self._started:
            dp.start()
        self._emit_topology("join", str(dp.node_id), source)
        return dp

    def retire_decision_point(self, dp_id: str,
                              source: str = "manual") -> DecisionPoint:
        """Administratively remove a decision point from the overlay.

        Scale-down, not a crash: the service stops cleanly, keeps its
        learned state in memory, and can be revived later.  Callers
        evacuate clients *before* retiring (the actuator does); any
        still bound afterwards degrade as if the broker were down.
        """
        if dp_id not in self.decision_points:
            raise KeyError(f"unknown decision point {dp_id!r}")
        if dp_id in self.retired:
            raise ValueError(f"decision point {dp_id!r} already retired")
        if len(self.live_dp_ids) <= 1:
            raise ValueError("cannot retire the last live decision point")
        dp = self.decision_points[dp_id]
        self.retired.add(dp_id)
        dp.retire()
        self._rewire()
        self._emit_topology("leave", dp_id, source)
        return dp

    def revive_decision_point(self, dp_id: str, source: str = "manual",
                              resync: bool = True) -> DecisionPoint:
        """Bring a retired decision point back into the overlay.

        Rewires first so the restart's peer resync (the PR-2 machinery)
        sees its new neighbors, then restarts the service.
        """
        if dp_id not in self.retired:
            raise ValueError(f"decision point {dp_id!r} is not retired")
        dp = self.decision_points[dp_id]
        self.retired.discard(dp_id)
        self._rewire()
        dp.restart(resync=resync)
        self._emit_topology("join", dp_id, source, revived=True)
        return dp

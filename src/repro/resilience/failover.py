"""Health-probe-driven failover to a secondary decision point.

The paper's only rebinding path is the reconfiguration observer moving
clients to a *newly created* decision point (§5).  Here a deployment-
level prober pings every decision point on a fixed cadence; a DP that
misses ``probe_unhealthy_after`` consecutive probes is marked unhealthy
and resilient clients fail over to the best healthy alternative,
generalizing :meth:`GruberClient.rebind` from "operator action" to
"automatic recovery".

The prober supplies *global liveness* only; per-client circuit breakers
still gate candidates, because under an asymmetric partition a DP can
be reachable from the prober yet dead for a specific host.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.net.transport import RpcError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.broker import DIGruberDeployment
    from repro.net.transport import Network
    from repro.resilience.policy import ResilienceConfig
    from repro.sim.kernel import Simulator

__all__ = ["FailoverManager"]

#: Source id the prober stamps on its pings.  Deliberately *not* a
#: registered endpoint: probe responses are consumed by the RPC
#: completion path directly, and no decision point ever routes traffic
#: back to it outside that path.
PROBER_ID = "_prober"


class FailoverManager:
    """Periodic health prober + deterministic failover target chooser."""

    def __init__(self, sim: "Simulator", network: "Network",
                 deployment: "DIGruberDeployment",
                 policy: "ResilienceConfig"):
        self.sim = sim
        self.network = network
        self.deployment = deployment
        self.policy = policy
        #: dp_id -> consecutive missed probes.
        self._misses: dict[str, int] = {}
        self._ticker = None
        self.probes_sent = 0
        self.probes_failed = 0

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._ticker is not None:
            return
        self._ticker = self.sim.every(
            self.policy.probe_interval_s, self._probe_all,
            name="failover.prober", on_error="record")

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            self._ticker = None

    # -- probing -----------------------------------------------------------
    def _probe_all(self) -> None:
        for dp_id in list(self.deployment.decision_points):
            ev = self.network.rpc(src=PROBER_ID, dst=dp_id, op="ping",
                                  payload={}, timeout=self.policy.probe_timeout_s)
            self.probes_sent += 1
            self.sim.metrics.counter("failover.probes").inc()
            ev.add_callback(lambda e, d=dp_id: self._on_probe(d, e))

    def _on_probe(self, dp_id: str, ev) -> None:
        trace = self.sim.trace
        if ev.ok:
            if self._misses.get(dp_id, 0) >= self.policy.probe_unhealthy_after:
                trace.emit("failover.dp_recovered", PROBER_ID, dp=dp_id)
            self._misses[dp_id] = 0
            return
        self.probes_failed += 1
        misses = self._misses.get(dp_id, 0) + 1
        self._misses[dp_id] = misses
        trace.emit("failover.probe_failures", PROBER_ID, dp=dp_id,
                   misses=misses)
        if misses == self.policy.probe_unhealthy_after:
            trace.emit("failover.dp_unhealthy", PROBER_ID, dp=dp_id,
                       misses=misses)

    # -- queries -----------------------------------------------------------
    def healthy(self, dp_id: str) -> bool:
        """Is the DP currently passing probes (from the prober's vantage)?"""
        return self._misses.get(dp_id, 0) < self.policy.probe_unhealthy_after

    def choose(self, current: str, allow=None) -> Optional[str]:
        """Best failover target for a client bound to ``current``.

        Candidates are healthy decision points other than ``current``
        that pass the caller's ``allow(dp_id)`` predicate (the client's
        breaker board), ranked deterministically by
        ``(container queue length, dp id)`` so identical runs pick
        identical targets.  Returns ``None`` when no candidate exists.
        """
        best: Optional[tuple[int, str]] = None
        for dp_id, dp in self.deployment.decision_points.items():
            if dp_id == current or not self.healthy(dp_id):
                continue
            if allow is not None and not allow(dp_id):
                continue
            key = (dp.container.queue_len, dp_id)
            if best is None or key < best:
                best = key
        return best[1] if best else None

"""Saturation detection (paper §5.1).

"We use performance models created by DiPerF to establish an upper
bound on the number of transactions that a decision point can handle
per time interval.  When this upper bound is reached, a decision point
can trigger a saturation signal to a third party monitoring service
responsible for handling these events."

A decision point is flagged when its served-operation rate approaches
the container's calibrated capacity *and* requests are queueing, or
when the queue alone exceeds a hard bound (service rate is a lagging
indicator under overload because completed-ops/minute caps at capacity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.decision_point import DecisionPoint
from repro.sim.kernel import Simulator

__all__ = ["SaturationSignal", "SaturationDetector"]


@dataclass(frozen=True)
class SaturationSignal:
    """One event raised by the detector.

    ``reason`` is ``"saturated"`` (the DiPerF-calibrated capacity bound
    was hit) or ``"down"`` (liveness: the decision point stopped
    answering entirely — §2.2's reliability failure mode).
    """

    decision_point: str
    time: float
    ops_rate: float       # served ops/s in the sampling window
    capacity_qps: float   # calibrated upper bound
    queue_len: int
    reason: str = "saturated"


class SaturationDetector:
    """Periodic sampling of decision points with signal callbacks."""

    def __init__(self, sim: Simulator, decision_points: Iterable[DecisionPoint],
                 interval_s: float = 60.0, rate_threshold: float = 0.9,
                 queue_threshold: int = 10):
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if not (0.0 < rate_threshold <= 1.0):
            raise ValueError("rate_threshold must be in (0, 1]")
        self.sim = sim
        self.decision_points = list(decision_points)
        self.interval_s = interval_s
        self.rate_threshold = rate_threshold
        self.queue_threshold = queue_threshold
        self.signals: list[SaturationSignal] = []
        self.listeners: list[Callable[[SaturationSignal], None]] = []
        self._handle = None

    def watch(self, dp: DecisionPoint) -> None:
        """Add a decision point (dynamic reconfiguration grows the set).

        Idempotent: re-watching an already-watched decision point (a
        restart racing a manual re-add) must not double its samples.
        """
        if not any(d is dp for d in self.decision_points):
            self.decision_points.append(dp)

    def unwatch(self, dp) -> None:
        """Drop a decision point (by object or node id) from sampling.

        Failover calls this for a dead broker: keeping it watched would
        re-raise a "down" signal on every sampling pass forever, and a
        decision point later re-added under the same id would inherit
        the stale watch entry alongside its new one.
        """
        node_id = str(getattr(dp, "node_id", dp))
        self.decision_points = [d for d in self.decision_points
                                if str(d.node_id) != node_id]

    def start(self) -> None:
        if self._handle is not None:
            raise RuntimeError("detector already started")
        self._handle = self.sim.every(self.interval_s, self.sample)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def sample(self) -> list[SaturationSignal]:
        """One sampling pass; returns the signals raised this pass."""
        raised = []
        for dp in self.decision_points:
            snap = dp.load_snapshot()
            window = min(60.0, self.interval_s)
            rate = dp.container.ops_in_window(window) / window
            reason = None
            if not dp.online:
                reason = "down"
            else:
                saturated_by_rate = (
                    rate >= self.rate_threshold * snap["capacity_qps"]
                    and snap["queue_len"] > 0)
                saturated_by_queue = snap["queue_len"] >= self.queue_threshold
                if saturated_by_rate or saturated_by_queue:
                    reason = "saturated"
            if reason is not None:
                sig = SaturationSignal(
                    decision_point=str(dp.node_id), time=self.sim.now,
                    ops_rate=rate, capacity_qps=snap["capacity_qps"],
                    queue_len=snap["queue_len"], reason=reason)
                raised.append(sig)
                self.signals.append(sig)
                for listener in self.listeners:
                    listener(sig)
        return raised

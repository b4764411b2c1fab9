"""SignalBus: one read-only view of the live signals the planner needs.

The system already emits everything a controller could want — per-DP
decide latency histograms (``dp.decide_s.<dp>``), container queue
depths, ``sync.lag_s``, circuit-breaker state, client backlogs — but
scattered across decision points, clients, and the metrics registry.
The bus samples all of it on the DES clock into one immutable
:class:`ControlSample` per control window, and publishes the levels as
first-class :class:`~repro.obs.counters.Gauge` metrics so the planner
and ``digruber trace analyze`` share a single signal path.

Strictly read-only with respect to the simulation: no RNG draws, no
scheduled events, no state mutation — a sampled run executes the exact
same semantic event sequence as an unsampled one (the
``autoscale-frozen`` differential-replay pair enforces this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.broker import DIGruberDeployment
    from repro.sim.kernel import Simulator

__all__ = ["DPSignal", "ControlSample", "SignalBus"]


@dataclass(frozen=True)
class DPSignal:
    """One decision point's state at a sampling instant."""

    dp_id: str
    online: bool
    retired: bool
    queue_len: int
    in_service: int
    ops_rate: float          # served container ops/s over the window
    decide_count: int        # brokering decisions this window
    decide_mean_s: float     # mean decide latency this window (0 if none)
    clients: int             # clients currently bound here
    breakers_open: int       # client breakers not closed for this DP

    @property
    def live(self) -> bool:
        return self.online and not self.retired


@dataclass(frozen=True)
class ControlSample:
    """Everything the policy sees for one control window."""

    time: float
    dps: dict[str, DPSignal] = field(default_factory=dict)
    capacity_qps: float = 0.0    # calibrated per-DP query capacity
    n_live: int = 0
    total_clients: int = 0
    active_clients: int = 0      # clients with work this window
    backlog: int = 0             # jobs waiting in client backlogs
    sync_lag_mean_s: float = 0.0  # mean record age adopted this window

    @property
    def total_queue(self) -> int:
        return sum(d.queue_len for d in self.dps.values() if d.live)


class SignalBus:
    """Samples deployment + client + metrics state into ControlSamples."""

    def __init__(self, sim: "Simulator", deployment: "DIGruberDeployment",
                 window_s: float = 60.0):
        if window_s <= 0:
            raise ValueError("window_s must be > 0")
        self.sim = sim
        self.deployment = deployment
        self.window_s = window_s
        self.samples: list[ControlSample] = []
        # Previous cumulative histogram readings, for window deltas
        # (histograms only ever grow; a window's count/total is the
        # difference of two snapshots).
        self._prev_decide: dict[str, tuple[int, float]] = {}
        self._prev_sync_lag: tuple[int, float] = (0, 0.0)
        self._prev_jobs: dict[str, int] = {}

    def _hist_delta(self, name: str, prev: tuple[int, float]
                    ) -> tuple[tuple[int, float], int, float]:
        h = self.sim.metrics.histograms.get(name)
        if h is None:
            return prev, 0, 0.0
        d_count = h.count - prev[0]
        d_total = h.total - prev[1]
        return (h.count, h.total), d_count, d_total

    def sample(self) -> ControlSample:
        """One sampling pass; records the sample and updates the gauges."""
        sim, deployment = self.sim, self.deployment
        metrics = sim.metrics
        now = sim.now
        window = min(60.0, self.window_s)

        # Per-DP client binding counts in one pass over the fleet.
        bound: dict[str, int] = {}
        breakers_open: dict[str, int] = {}
        active = 0
        backlog = 0
        for client in deployment.clients:
            dp_key = str(client.decision_point)
            bound[dp_key] = bound.get(dp_key, 0) + 1
            hid = str(client.node_id)
            n_jobs = client._next  # jobs materialized so far
            grew = n_jobs > self._prev_jobs.get(hid, 0)
            self._prev_jobs[hid] = n_jobs
            blog = client.backlog_len
            backlog += blog
            if grew or blog > 0:
                active += 1
            # Client-private breaker map: the bus is the one sanctioned
            # reader (read-only; breaker state is a first-class signal).
            for dp_id, breaker in getattr(client, "_breakers", {}).items():
                if breaker.state != "closed":
                    key = str(dp_id)
                    breakers_open[key] = breakers_open.get(key, 0) + 1

        dps: dict[str, DPSignal] = {}
        for dp_id, dp in deployment.decision_points.items():
            key = str(dp_id)
            prev = self._prev_decide.get(key, (0, 0.0))
            self._prev_decide[key], d_count, d_total = \
                self._hist_delta(f"dp.decide_s.{dp_id}", prev)
            dps[key] = DPSignal(
                dp_id=key,
                online=dp.online,
                retired=key in deployment.retired,
                queue_len=dp.container.queue_len,
                in_service=dp.container.in_service,
                ops_rate=dp.container.ops_in_window(window) / window,
                decide_count=d_count,
                decide_mean_s=d_total / d_count if d_count else 0.0,
                clients=bound.get(dp_id, 0),
                breakers_open=breakers_open.get(dp_id, 0))

        self._prev_sync_lag, lag_count, lag_total = self._hist_delta(
            "sync.lag_s", self._prev_sync_lag)

        sample = ControlSample(
            time=now,
            dps=dps,
            capacity_qps=deployment.profile.query_capacity_qps,
            n_live=sum(1 for d in dps.values() if d.live),
            total_clients=len(deployment.clients),
            active_clients=active,
            backlog=backlog,
            sync_lag_mean_s=lag_total / lag_count if lag_count else 0.0)
        self.samples.append(sample)
        self.publish(sample)
        return sample

    def publish(self, sample: ControlSample) -> None:
        """Publish one sample's levels as first-class gauges.

        The single write path from control sampling into the metrics
        registry: the telemetry plane
        (:class:`~repro.obs.timeline.TimelineSampler`) never recomputes
        these — it reads them back through
        :meth:`~repro.obs.counters.MetricsRegistry.collect`, so every
        gauge is computed exactly once per control tick and the planner
        and the timeline are guaranteed to agree.
        """
        metrics = self.sim.metrics
        now = sample.time
        for key, d in sample.dps.items():
            metrics.gauge(f"dp.queue_depth.{key}").set(d.queue_len, at=now)
            metrics.gauge(f"dp.clients.{key}").set(d.clients, at=now)
            metrics.gauge(f"dp.in_service.{key}").set(d.in_service, at=now)
            metrics.gauge(f"dp.ops_rate.{key}").set(d.ops_rate, at=now)
            metrics.gauge(f"dp.decide_mean_s.{key}").set(d.decide_mean_s,
                                                         at=now)
            metrics.gauge(f"dp.breakers_open.{key}").set(d.breakers_open,
                                                         at=now)
            metrics.gauge(f"dp.online.{key}").set(1.0 if d.live else 0.0,
                                                  at=now)
        metrics.gauge("control.n_dps").set(sample.n_live, at=now)
        metrics.gauge("control.active_clients").set(sample.active_clients,
                                                    at=now)
        metrics.gauge("control.client_backlog").set(sample.backlog, at=now)
        metrics.gauge("control.total_queue").set(sample.total_queue, at=now)
        metrics.gauge("control.sync_lag_s").set(sample.sync_lag_mean_s,
                                                at=now)

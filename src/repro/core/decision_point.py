"""The DI-GRUBER decision point service.

One decision point = a GRUBER engine + USLA store hosted in a Globus
service container (GT3 or GT4 profile), attached to the WAN, serving
two operations:

* ``get_state`` — return the availability map (estimated free CPUs per
  site, USLA-filtered for the requesting VO).  This is the expensive
  call: it consumes the container's query service time and its response
  carries per-site state ("the transport of significant state").
* ``report_dispatch`` — the site selector "informs the decision point
  about its site selection"; cheap container work, updates the local
  view, and enters the record into the sync flood.

The decision point also runs its own site monitor (the engine's data
provider) and a :class:`~repro.core.sync.SyncProtocol` instance.
"""

from __future__ import annotations

from typing import Hashable, Optional

import numpy as np

from repro.core.engine import GruberEngine
from repro.core.monitor import SiteMonitor
from repro.core.selectors import RandomSelector, make_selector
from repro.core.sync import DisseminationStrategy, SyncProtocol
from repro.grid.builder import Grid
from repro.net.container import ContainerProfile, ServiceContainer
from repro.net.transport import Endpoint, Message, Network, Request, RpcError
from repro.sim.kernel import Simulator

__all__ = ["DecisionPoint"]

#: Nominal wire size of a ``pull_records`` resync response, in KB.  The
#: caller must size the response before knowing the record count; this
#: is a typical lifetime's worth of records at RECORD_KB each.
RESYNC_RESPONSE_KB = 4.0
#: Patience per peer during post-restart resync.
RESYNC_TIMEOUT_S = 60.0
#: Span attr shapes (key tuples) of the decide and record spans.
_DECIDE_ATTRS, _RECORD_ATTRS = ("op", "vo"), ("site", "vo")
_STALENESS, _SITE_STALENESS = ("staleness_s",), ("site_staleness_s",)
_CHOSEN_STALENESS = ("site", "staleness_s")


def _created(req: Request) -> dict:
    return {"created": True}


class DecisionPoint(Endpoint):
    """A container-hosted brokering service instance."""

    def __init__(self, sim: Simulator, network: Network, node_id: Hashable,
                 grid: Grid, profile: ContainerProfile,
                 rng: np.random.Generator,
                 monitor_interval_s: float = 600.0,
                 sync_interval_s: float = 180.0,
                 strategy: DisseminationStrategy = DisseminationStrategy.USAGE_ONLY,
                 usla_aware: bool = False,
                 site_state_kb: float = 0.06,
                 assumed_job_lifetime_s: float = 900.0,
                 private: bool = False,
                 max_queue: Optional[int] = None,
                 sync_delta: bool = False,
                 selector: str = "least_used"):
        super().__init__(network, node_id)
        self.sim = sim
        self.grid = grid
        self.rng = rng
        self.profile = profile
        self.site_state_kb = site_state_kb
        #: A *private broker* (§2.3: users "can require various privacy
        #: issues for the availability of information about their work
        #: ... the maintenance of a private broker could be a necessity")
        #: consumes the sync flood but never discloses its own
        #: dispatches or USLAs to peers.
        self.private = private
        self.container = ServiceContainer(sim, profile, rng,
                                          name=f"{node_id}.container",
                                          max_queue=max_queue)
        self.engine = GruberEngine(
            owner=str(node_id), site_capacities=grid.site_index,
            usla_aware=usla_aware,
            assumed_job_lifetime_s=assumed_job_lifetime_s,
            tracer=sim.trace)
        self.monitor = SiteMonitor(sim, grid, self.engine,
                                   interval_s=monitor_interval_s,
                                   jitter_s=monitor_interval_s * 0.05, rng=rng)
        self.sync = SyncProtocol(self, interval_s=sync_interval_s,
                                 strategy=strategy, delta=sync_delta)
        self.neighbors: list[Hashable] = []
        #: Per-decision-point decide latency (request arrival → answer
        #: ready, i.e. container queueing + service time).  Always-on,
        #: one histogram per node so saturation shows up per instance.
        self._decide_hist = sim.metrics.histogram(f"dp.decide_s.{node_id}")
        self.started = False
        self.crashes = 0
        self.retirements = 0
        self.restarts = 0
        self.resync_records = 0
        self.resync_failures = 0

        # One-phase protocol: the configured policy, server-side.
        self._server_selector = make_selector(selector, rng)
        self._fallback = RandomSelector(rng)

        for op, handler in (("get_state", self._handle_get_state),
                            ("report_dispatch", self._handle_report_dispatch),
                            ("broker_job", self._handle_broker_job),
                            ("create_instance", self._handle_create_instance),
                            ("pull_records", self._handle_pull_records)):
            self.register_handler(op, handler, deferred=True)
        self.register_handler("ping", self._handle_ping)

    # -- lifecycle -------------------------------------------------------
    def start(self, neighbors: Optional[list[Hashable]] = None) -> None:
        """Bring the service up: initial monitor sweep + sync timer."""
        if self.started:
            raise RuntimeError(f"decision point {self.node_id!r} already started")
        if neighbors is not None:
            self.neighbors = list(neighbors)
        self.monitor.start(initial=True)
        self.sync.start()
        self.started = True

    def stop(self) -> None:
        self.monitor.stop()
        self.sync.stop()
        self.started = False

    # -- failure injection (§2.2 reliability) -----------------------------
    def crash(self) -> None:
        """Take the service down: requests go unanswered, timers stop.

        Idempotent: crashing an already-crashed decision point is a
        no-op (no double-stopped timers, no double-counted crash).
        """
        if not self.online:
            return
        self.online = False
        if self.started:
            self.monitor.stop()
            self.sync.stop()
            self.started = False
        self.crashes += 1
        self.sim.trace.emit("dp.crash", self.node_id)

    def retire(self) -> None:
        """Administrative scale-down: stop serving, keep state, revivable.

        Unlike :meth:`crash` this is a *planned* leave — it counts under
        ``dp.retire`` (not ``dp.crash``) so chaos accounting and
        control-plane accounting stay separable.  Idempotent; a crashed
        decision point can also be retired (it only marks the counter).
        :meth:`restart` revives either way.
        """
        was_online = self.online
        self.online = False
        if self.started:
            self.monitor.stop()
            self.sync.stop()
            self.started = False
        if not was_online:
            return
        self.retirements += 1
        self.sim.trace.emit("dp.retire", self.node_id)

    def restart(self, resync: bool = True) -> None:
        """Bring the service back; optionally re-sync state from peers.

        A restarted decision point rejoins with whatever view survived
        in memory plus a fresh monitor sweep (ground truth); with
        ``resync`` it additionally pulls recent dispatch records from
        its overlay neighbors, closing the gap left by the sync floods
        it slept through.  Idempotent on a running service.
        """
        if self.online and self.started:
            return
        self.online = True
        self.monitor.start(initial=True)
        self.sync.start()
        self.started = True
        self.restarts += 1
        self.sim.trace.emit("dp.restart", self.node_id, resync=resync)
        if resync and self.neighbors:
            self.sim.process(self._resync_from_peers(),
                             name=f"resync:{self.node_id}")

    def recover(self) -> None:
        """Bring the service back without peer resync (legacy behaviour)."""
        self.restart(resync=False)

    def _resync_from_peers(self):
        """Pull live dispatch records from each neighbor after a restart.

        Failures are tolerated per peer (a neighbor may itself be down
        or partitioned away); whatever subset answers still narrows the
        staleness window.  Runs as a process so peers are queried
        sequentially over the WAN.
        """
        cutoff = self.sim.now - self.engine.view.assumed_job_lifetime_s
        adopted_total = 0
        peers_ok = 0
        for peer in list(self.neighbors):
            try:
                ev = self.network.rpc(self.node_id, peer, "pull_records",
                                      {"newer_than": cutoff},
                                      response_size_kb=RESYNC_RESPONSE_KB,
                                      timeout=RESYNC_TIMEOUT_S)
                yield ev
            except (RpcError, KeyError):
                self.resync_failures += 1
                self.sim.trace.emit("dp.resync_failures", self.node_id,
                                    peer=str(peer))
                continue
            records = (ev.value or {}).get("records", [])
            adopted_total += self.engine.merge_remote_records(
                records, now=self.sim.now)
            peers_ok += 1
        self.resync_records += adopted_total
        self.sim.metrics.counter("dp.resync_records").inc(adopted_total)
        self.sim.trace.emit("dp.resync", self.node_id, peers_ok=peers_ok,
                            peers=len(self.neighbors), adopted=adopted_total)

    def set_neighbors(self, neighbors: list[Hashable]) -> None:
        """Rewire the overlay (used by dynamic reconfiguration)."""
        self.neighbors = list(neighbors)

    # -- handlers ------------------------------------------------------------
    # The container-backed handlers are deferred: each is ``pre`` (parse,
    # open the span), the container's service station, then ``post``
    # (the answer), run at the instant the service completes.
    def _open_span(self, req: Request, name: str, keys: tuple,
                   values: tuple):
        spans = self.sim.spans
        if spans.enabled:
            req.span = spans.start_span(name, self.node_id, req.trace_ctx,
                                        None, keys, values)

    def _handle_get_state(self, req: Request) -> None:
        """Availability query; the decide span is annotated with the
        view's *staleness* — the sim-time age of the freshest
        information the answer rests on."""
        payload = req.payload or {}
        req.args = vo, group = payload.get("vo"), payload.get("group")
        if req.trace_ctx is not None:
            self._open_span(req, "decide", _DECIDE_ATTRS, ("get_state", vo))
        req.post = self._get_state_served
        self.container.serve_query(req.served)

    def _get_state_served(self, req: Request):
        vo, group = req.args
        now = self.sim.now
        out = self.engine.availabilities(vo=vo, group=group, now=now)
        self._decide_hist.observe(now - req.arrived_at)
        if req.span is not None:
            self.sim.spans.finish(req.span, None, _STALENESS,
                                  (self.engine.view.info_age_s(now),))
        return out

    def _handle_report_dispatch(self, req: Request) -> None:
        """Site-selection report; updates the view, feeds the sync flood."""
        payload = req.payload
        req.args = site, vo, cpus, group = (
            payload["site"], payload["vo"], int(payload["cpus"]),
            payload.get("group", ""))
        if req.trace_ctx is not None:
            self._open_span(req, "record", _RECORD_ATTRS, (site, vo))
        req.post = self._report_served
        self.container.serve_report(req.served)

    def _report_served(self, req: Request):
        site, vo, cpus, group = req.args
        now = self.sim.now
        # Staleness *before* recording: the record itself would reset
        # the site's learn time to now and hide what the client raced.
        if req.span is not None:
            self.sim.spans.finish(
                req.span, None, _SITE_STALENESS,
                (self.engine.view.info_age_s(now, site=site),))
        rec = self.engine.record_local_dispatch(site=site, vo=vo, cpus=cpus,
                                                now=now, group=group)
        return {"ack": True, "seq": rec.seq}

    def _handle_broker_job(self, req: Request) -> None:
        """One-phase brokering: select server-side, return only the site.

        The paper's suggested optimization — "a tighter coupling
        between the resource broker and the job manager ... would
        reduce the complexity of the communication from two layers to
        one layer": a single round trip, no per-site state on the wire,
        and one combined container service slot instead of two.
        """
        payload = req.payload
        req.args = vo, cpus, group = (payload["vo"], int(payload["cpus"]),
                                      payload.get("group", ""))
        if req.trace_ctx is not None:
            self._open_span(req, "decide", _DECIDE_ATTRS, ("broker_job", vo))
        req.post = self._broker_job_served
        self.container.serve_query(req.served)

    def _broker_job_served(self, req: Request):
        vo, cpus, group = req.args
        now = self.sim.now
        availabilities = self.engine.availabilities(vo=vo, group=group or None,
                                                    now=now)
        site = self._server_selector.select(availabilities, cpus)
        if site is None:
            site = self._fallback.least_bad(availabilities)
        self._decide_hist.observe(now - req.arrived_at)
        if req.span is not None:
            # Per-site staleness of the *chosen* site, pre-recording.
            self.sim.spans.finish(
                req.span, None, _CHOSEN_STALENESS,
                (site, self.engine.view.info_age_s(now, site=site)))
        self.engine.record_local_dispatch(site=site, vo=vo, cpus=cpus,
                                          now=now, group=group)
        return {"site": site}

    def _handle_create_instance(self, req: Request) -> None:
        """Bare service-instance creation (the Fig 1 micro-benchmark)."""
        req.post = _created
        self.container.serve_instance_creation(req.served)

    def _handle_ping(self, payload, src):
        """Liveness probe: answers instantly, bypassing the container.

        Deliberately free of service time and admission control — the
        health prober must distinguish *dead* from *busy*, and a probe
        that queues behind brokering traffic cannot.
        """
        return {"ok": True, "queue_len": self.container.queue_len}

    def _handle_pull_records(self, req: Request) -> None:
        """Resync pull: live records this node learned after the cutoff.

        Serves a restarting peer; costs one report-sized container slot
        (cheap, but not free — resync competes with live traffic).
        """
        req.args = float((req.payload or {}).get("newer_than",
                                                     -float("inf")))
        req.post = self._pull_records_served
        self.container.serve_report(req.served)

    def _pull_records_served(self, req: Request):
        return {"records": self.engine.view.pending_records(
            newer_than=req.args)}

    # -- sync plumbing -----------------------------------------------------------
    def on_oneway(self, msg: Message) -> None:
        if msg.op == "sync":
            self.sync.on_sync(msg.payload, ctx=msg.trace_ctx)
        else:
            raise ValueError(f"decision point {self.node_id!r} got unexpected "
                             f"one-way op {msg.op!r}")

    # -- introspection --------------------------------------------------------
    @property
    def state_response_kb(self) -> float:
        """Wire size of a ``get_state`` response (scales with grid size)."""
        return len(self.grid) * self.site_state_kb

    def snapshot_state(self) -> dict:
        """Canonical decision-point state for snapshot digests (JSON-able).

        Aggregates the engine view, USLA store, and sync horizons with
        the lifecycle counters; container timers live in the kernel
        heap, so only the container's queue depth is captured here.
        """
        return {
            "node": str(self.node_id),
            "online": self.online,
            "started": self.started,
            "crashes": self.crashes,
            "retirements": self.retirements,
            "restarts": self.restarts,
            "resync_records": self.resync_records,
            "resync_failures": self.resync_failures,
            "neighbors": sorted(str(n) for n in self.neighbors),
            "container_queue_len": self.container.queue_len,
            "container_in_service": self.container.in_service,
            "view": self.engine.view.snapshot_state(),
            "usla": self.engine.usla_store.snapshot_state(),
            "sync": self.sync.snapshot_state(),
        }

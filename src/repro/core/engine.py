"""The GRUBER engine.

"The GRUBER engine is the main component of the architecture.  It
implements various algorithms for detecting available resources and
maintains a generic view of resource utilization in the grid."

The engine owns a :class:`~repro.core.state.GridStateView` plus the
decision point's USLA store, and answers availability queries —
optionally filtered by USLA entitlements so that a VO already at its
share cap at a site sees no headroom there.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.core.state import AvailabilityView, DispatchRecord, GridStateView
from repro.usla.policy import PolicyEngine
from repro.usla.store import UslaStore

__all__ = ["GruberEngine"]


class GruberEngine:
    """Availability detection + utilization view for one decision point."""

    def __init__(self, owner: str, site_capacities: dict[str, int],
                 usla_store: Optional[UslaStore] = None,
                 usla_aware: bool = False,
                 assumed_job_lifetime_s: float = 900.0,
                 tracer=None):
        self.owner = owner
        self.view = GridStateView(
            site_capacities, assumed_job_lifetime_s=assumed_job_lifetime_s)
        self.usla_store = usla_store if usla_store is not None else UslaStore(owner)
        self.usla_aware = usla_aware
        self._policy_cache: Optional[PolicyEngine] = None
        self._policy_mutations = -1
        self._seq = itertools.count(1)
        self.queries_served = 0
        self.dispatches_recorded = 0
        #: Optional event stream (a :class:`~repro.obs.Tracer`, whose
        #: ``metrics`` registry holds the tallies); the decision point
        #: wires in its simulator's.
        self.tracer = tracer
        #: The ``engine.dispatch`` tally, looked up once on first use
        #: (the registry creates on lookup).
        self._dispatch_counter = None

    # -- policy ----------------------------------------------------------
    def _policy(self) -> PolicyEngine:
        # Self-invalidating: the store's mutation counter moves on any
        # publish/remove/merge, including paths that never knew about
        # this cache (a caller publishing straight into the store
        # left availability queries answering from stale entitlements).
        if (self._policy_cache is None
                or self._policy_mutations != self.usla_store.mutations):
            self._policy_cache = self.usla_store.policy_engine()
            self._policy_mutations = self.usla_store.mutations
        return self._policy_cache

    def invalidate_policy_cache(self) -> None:
        """Force a rebuild (kept for callers; the mutation counter
        already makes the cache self-invalidating)."""
        self._policy_cache = None

    # -- availability queries ------------------------------------------------
    def availabilities(self, vo: Optional[str] = None,
                       now: Optional[float] = None,
                       group: Optional[str] = None) -> AvailabilityView:
        """Estimated free CPUs per site, USLA-filtered when enabled.

        ``now`` lets the view age out records past the assumed job
        lifetime before answering; when omitted, the latest time the
        view has witnessed is used instead, so stale records can never
        silently overstate usage (they used to zero a VO's site
        headroom forever on this path).  With ``usla_aware`` and a VO
        given, each site's availability is capped by the VO's remaining
        entitlement there: ``min(free, entitled * capacity - vo_busy)``.
        With a ``group``, the recursive group-level USLA also applies:
        the group's headroom within the VO's site entitlement, per the
        paper's two-level allocation model (resource owner → VO → group).
        """
        self.queries_served += 1
        if now is None:
            now = self.view.latest_time
        free = self.view.free_map(now=now)
        if not (self.usla_aware and vo):
            return free
        policy = self._policy()
        consumer = f"{vo}.{group}" if group else None
        out = free.free.copy()  # same columns, capped in place below
        for i, (site, f) in enumerate(zip(free.names, out.tolist())):
            cap = self.view.capacities[site]
            entitled = policy.entitled_fraction(site, vo) * cap
            headroom = entitled - self.view.estimated_vo_busy(site, vo)
            if consumer is not None:
                # The group's share is of the VO's entitlement at the
                # site ("extending the specification in a recursive way
                # to VOs, groups, and users").
                group_entitled = policy.entitled_fraction(vo, consumer) * entitled
                group_headroom = (group_entitled
                                  - self.view.estimated_vo_busy(site, consumer))
                headroom = min(headroom, group_headroom)
            out[i] = max(min(f, headroom), 0.0)
        return AvailabilityView(free.names, out)

    def utilization_view(self) -> dict[str, float]:
        """Estimated per-site utilization (monitor-style introspection)."""
        return {s: self.view.estimated_busy(s) / self.view.capacities[s]
                for s in self.view.capacities}

    # -- dispatch bookkeeping ---------------------------------------------------
    def record_local_dispatch(self, site: str, vo: str, cpus: int,
                              now: float, group: str = "") -> DispatchRecord:
        """Record a dispatch this decision point recommended."""
        rec = DispatchRecord(origin=self.owner, seq=next(self._seq),
                             site=site, vo=vo, cpus=cpus, time=now,
                             group=group)
        self.view.apply_record(rec)
        self.dispatches_recorded += 1
        trace = self.tracer
        if trace is not None:
            # A per-job event: the tally stays inline (see repro.obs.trace).
            counter = self._dispatch_counter
            if counter is None:
                counter = self._dispatch_counter = trace.metrics.counter(
                    "engine.dispatch")
            counter.value += 1
            if trace.enabled:
                trace.publish("engine.dispatch", self.owner,
                              {"site": site, "vo": vo, "cpus": cpus,
                               "seq": rec.seq}, now)
        return rec

    #: Sync-propagation lag buckets (seconds): 0.25 s … 8192 s.  Lag is
    #: dominated by the epoch interval (paper: 120 s; "three minutes is
    #: sufficient"), far above RPC latencies, so the default latency
    #: buckets would pile everything into overflow.
    SYNC_LAG_BOUNDS_S = tuple(0.25 * 2 ** i for i in range(16))

    def merge_remote_records(self, records: list[DispatchRecord],
                             now: Optional[float] = None) -> int:
        """Adopt peer dispatch records delivered by the sync protocol.

        ``now`` is the receive time, which becomes the relay horizon
        timestamp for further flooding.  Each *adopted* record's
        propagation lag (receive time minus the dispatch time stamped
        at the origin — sim clocks are global, no skew) feeds the
        ``sync.lag_s`` histogram, the measured counterpart to the
        paper's epoch-interval sufficiency claim.
        """
        adopted_records = self.view.apply_records(records, now=now)
        adopted = len(adopted_records)
        trace = self.tracer
        if trace is None:
            return adopted
        metrics = trace.metrics
        if now is not None:
            observe_lag = metrics.histogram(
                "sync.lag_s", bounds=self.SYNC_LAG_BOUNDS_S).observe
            for rec in adopted_records:
                observe_lag(max(now - rec.time, 0.0))
        metrics.counter("engine.records_adopted").value += adopted
        metrics.counter("engine.records_offered").value += len(records)
        if adopted:
            # ``keys`` (sorted: *which* records were adopted, not the
            # payload's order) is built only for a subscriber to read.
            trace.emit("engine.adopt", self.owner, offered=len(records),
                       adopted=adopted,
                       keys=",".join(f"{o}:{s}" for o, s in sorted(
                           r.key for r in adopted_records))
                       if trace.enabled else "")
        return adopted

    def on_monitor_refresh(self, busy_by_site: dict[str, float],
                           now: float) -> None:
        self.view.refresh_all(busy_by_site, now)
        expired = self.view.expire(now)
        if self.tracer is not None:
            self.tracer.emit("engine.refresh", self.owner,
                             sites=len(busy_by_site), expired=expired)

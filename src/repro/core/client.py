"""The GRUBER client on a submission host.

Implements the paper's client behaviour (§3.2, §4.3):

* a "standard GT client that allows communication with ... the GRUBER
  engine" — here, the two-phase brokering protocol (``get_state`` then
  ``report_dispatch``) over the simulated WAN, paying the container
  profile's client-stack overhead and extra auth round trips;
* **one connection per host**: each submission host "maintained a
  connection with only one DI-GRUBER decision point"; the brokering
  channel is serialized, so jobs arriving while a query is in flight
  queue in the host's backlog — "when timeouts occur, job submissions
  are delayed and thus the total number of job submissions is reduced
  during the time period" (§4.4.2).  The backlog is *derived*, not
  stored: arrivals are sorted (a lattice at the steady cadence) and the
  client keeps one cursor into them, so an arrival costs a kernel event
  only when the channel is idle and waiting for it;
* **timeout fallback**: "each client was configured to apply a [15] s
  timeout ...  If this timeout expires, the client's site selector then
  selects a site at random, without considering USLAs" — the original
  query still runs to completion and is recorded for response-time
  metrics, but its answer is discarded.
"""

from __future__ import annotations

from typing import Hashable, Optional

import numpy as np

from repro.core.selectors import RandomSelector, SiteSelector
from repro.grid.builder import Grid
from repro.grid.job import Job
from repro.net.container import (ContainerProfile, lognormal_for_mean,
                                 lognormal_mu)
from repro.net.transport import Endpoint, Network, RpcError
from repro.resilience.policy import CircuitBreaker, ResilienceConfig
from repro.sim.kernel import ScheduledCall, Simulator
from repro.workloads.generator import HostWorkload
from repro.workloads.trace import TraceRecorder

__all__ = ["GruberClient"]

#: Wire size of a get_state request / report_dispatch message, in KB.
REQUEST_KB = 0.4
REPORT_KB = 0.3
#: Span attr shapes (key tuples) of the client's spans.
_ROOT_ATTRS = ("jid", "vo", "group", "cpus", "dp")
_DISPATCH_ATTRS = ("jid", "site", "handled")
_OUTCOME, _ATTEMPTS = ("outcome",), ("attempts",)


class GruberClient(Endpoint):
    """One submission host: consumes a workload, brokers via one DP."""

    def __init__(self, sim: Simulator, network: Network, host_id: Hashable,
                 decision_point: Hashable, grid: Grid,
                 workload: HostWorkload, selector: SiteSelector,
                 profile: ContainerProfile, rng: np.random.Generator,
                 trace: TraceRecorder, timeout_s: float = 15.0,
                 state_response_kb: float = 18.0,
                 one_phase: bool = False,
                 resilience: Optional[ResilienceConfig] = None,
                 failover=None):
        super().__init__(network, host_id)
        self.sim = sim
        self.decision_point = decision_point
        self.grid = grid
        self.workload = workload
        self.selector = selector
        self.fallback = RandomSelector(rng)
        self.profile = profile
        self._overhead_mu = lognormal_mu(profile.client_overhead_s,
                                         profile.sigma)
        self.rng = rng
        self.trace = trace
        self.timeout_s = timeout_s
        self.state_response_kb = state_response_kb
        #: One-phase protocol: the decision point selects the site
        #: server-side and a single RPC carries only the answer — the
        #: paper's "reduce the communication from two layers to one".
        self.one_phase = one_phase
        #: Resilience policy (``repro.resilience``): when set, brokering
        #: runs the retry/backoff/breaker path instead of the paper's
        #: single-attempt timeout → random fallback.
        self.resilience = resilience
        #: Optional :class:`~repro.resilience.failover.FailoverManager`
        #: supplying deployment-wide health info and failover targets.
        self.failover = failover
        self._breakers: dict[Hashable, CircuitBreaker] = {}

        self.busy = False
        #: Cursor into ``workload.arrivals``: jobs ``[0, _next)`` have
        #: been materialized, ``[_next, due)`` wait for the channel.
        self._next = 0
        self._peak = 0  # deepest backlog any pump has seen
        self._timer: Optional[ScheduledCall] = None  # the one arrival timer
        #: The brokering operation in flight (paper path): job, start,
        #: spans, queried DP, RPC handle and the one race timer.
        self._job, self._t0 = None, 0.0
        self._root = self._bspan = self._dp = self._rpc = self._race = None
        self._started = False
        self.n_handled = 0
        self.n_fallback_timeout = 0
        self.n_abandoned = 0  # responses given up on (dead decision point)
        self.n_retries = 0
        self.n_breaker_fastfail = 0
        self.n_failovers = 0
        self.rebinds = 0

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError(f"client {self.node_id!r} already started")
        self._started = True
        self._pump()

    def snapshot_state(self) -> dict:
        """Canonical client state for snapshot digests: ``next`` (jobs
        materialized) and ``due`` (arrivals at or before now) pin exactly
        where in the arrival stream this host is."""
        return {
            "host": str(self.node_id),
            "decision_point": str(self.decision_point),
            "busy": self.busy,
            "next": self._next,
            "due": self._due(),
            "armed": self._timer is not None,
            "n_handled": self.n_handled,
            "n_fallback_timeout": self.n_fallback_timeout,
            "n_abandoned": self.n_abandoned,
            "n_retries": self.n_retries,
            "n_breaker_fastfail": self.n_breaker_fastfail,
            "n_failovers": self.n_failovers,
            "rebinds": self.rebinds,
            "backlog_peak": self.backlog_peak,
        }

    def rebind(self, decision_point: Hashable) -> None:
        """Point this host at a different decision point.

        In-flight queries finish against the old decision point; the
        *next* pump uses the new binding.  Counted and traced so runs
        can audit every binding change (rebalancing §5, or automatic
        failover).
        """
        prior = self.decision_point
        self.decision_point = decision_point
        self.rebinds += 1
        self.sim.trace.emit("client.rebind", self.node_id, prior=str(prior),
                            new=str(decision_point))

    # -- arrivals (derived from the cursor) -------------------------------
    def _due(self) -> int:
        """Arrivals at or before now (one exactly at ``now`` counts)."""
        return int(self.workload.arrivals.searchsorted(self.sim.now, "right"))

    @property
    def backlog_len(self) -> int:
        """Jobs waiting at the host for the brokering channel."""
        return self._due() - self._next

    @property
    def backlog_peak(self) -> int:
        """Deepest the backlog has been (it only grows between pumps)."""
        return max(self._peak, self.backlog_len)

    @property
    def active_from(self) -> Optional[float]:
        """When the first job arrived; ``None`` before that."""
        arrivals = self.workload.arrivals
        if len(arrivals) and arrivals[0] <= self.sim.now:
            return float(arrivals[0])
        return None

    @property
    def active_until(self) -> Optional[float]:
        """When the last job arrived; ``None`` while arrivals remain
        (an empty stream was exhausted at the start, t=0)."""
        arrivals = self.workload.arrivals
        last = float(arrivals[-1]) if len(arrivals) else 0.0
        return last if last <= self.sim.now else None

    def _on_arrival(self) -> None:
        self._timer = None
        self._pump()

    def _pump(self) -> None:
        """The only arrival logic: broker the next due job, else wait for it.

        Jobs enter the host backlog (paper state 1: "submitted by a user
        to a submission host") and are brokered one at a time.  A busy
        channel needs no event — its operation's end pumps again; an idle
        one with nothing due arms the single timer for the next arrival.
        """
        if self.busy:
            return
        idx = self._next
        arrivals = self.workload.arrivals
        due = int(arrivals.searchsorted(self.sim.now, "right"))  # ``_due()``
        if due <= idx:  # nothing due: wait for the next arrival, if any
            if idx < len(arrivals):
                assert self._timer is None, "second live arrival timer"
                self._timer = self.sim.schedule_at(float(arrivals[idx]),
                                                   self._on_arrival)
            return
        self._peak = max(self._peak, due - idx)
        arrival = float(arrivals[idx])
        self._next = idx + 1
        job = self.workload.job_at(idx)
        job.mark_created(arrival)
        job.decision_point = str(self.decision_point)
        self.trace.open_job(job)
        self.busy = True
        if self.resilience is None:  # the paper-faithful callbacks
            self._broker_once(job)
        else:
            self.sim.process(self._broker_resilient(job),
                             name=f"broker:{self.node_id}:{job.jid}"
                             if self.sim.trace.enabled else "")

    def _open_spans(self, job: Job, t0: float):
        """``(root, brokering)`` spans of one job; ``(None, None)`` if off.

        The trace root covers the job's whole lifecycle, opened
        retroactively at arrival so host backlog wait is on it.
        """
        spans = self.sim.spans
        if not spans.enabled:
            return None, None
        if not spans.next_root_sampled:
            spans.start_trace("submit", self.node_id)  # counts a drop
            return None, None
        root = spans.start_trace("submit", self.node_id, job.created_at,
                                 _ROOT_ATTRS,
                                 (job.jid, job.vo, job.group, job.cpus,
                                  str(self.decision_point)))
        return root, spans.start_span("brokering", self.node_id, root, t0)

    def _query(self, job: Job, dp: Hashable, bspan,
               timeout: Optional[float] = None, then=None):
        """Issue the brokering RPC to ``dp`` (one- or two-phase protocol)."""
        op, reply_kb = (("broker_job", REQUEST_KB) if self.one_phase
                        else ("get_state", self.state_response_kb))
        return self.network.rpc(self.node_id, dp, op,
                                {"vo": job.vo, "group": job.group,
                                 "cpus": job.cpus},
                                size_kb=REQUEST_KB, response_size_kb=reply_kb,
                                timeout=timeout, trace_ctx=bspan, then=then)

    def _place(self, job: Job, dp: Hashable, answer, root,
               timeout: Optional[float] = None, then=None):
        """Dispatch ``job`` as the broker answered; returns the
        ``report_dispatch`` RPC to await (``None``: one-phase, no report)."""
        if self.one_phase:
            site = answer["site"]
        else:  # the site selector; nothing fits → a least-bad site
            site = self.selector.select(answer, job.cpus)
            if site is None:
                site = self.fallback.least_bad(answer)
        self._dispatch(job, site, handled=True, parent=root)
        self.n_handled += 1
        if self.one_phase:
            return None
        return self.network.rpc(self.node_id, dp, "report_dispatch",
                                {"site": site, "vo": job.vo,
                                 "group": job.group, "cpus": job.cpus},
                                size_kb=REPORT_KB, timeout=timeout,
                                trace_ctx=root, then=then)

    # -- the paper's brokering operation, as callbacks -----------------------
    def _broker_once(self, job: Job) -> None:
        """One two-phase brokering operation (paper §4.3): a state machine
        whose steps are the heap entries that advance time — overhead,
        RTTs, the query raced against the one timer, report, ack.  The
        channel is serialized, so what is in flight is client fields."""
        self._job, self._t0 = job, self.sim.now
        self._root, self._bspan = self._open_spans(job, self._t0)
        # Client-side stack work (auth, marshalling) ...
        mu = self._overhead_mu
        overhead = (0.0 if mu is None
                    else float(self.rng.lognormal(mu, self.profile.sigma)))
        if overhead > 0:
            self.sim.schedule(overhead, self._after_overhead)
        else:
            self._after_overhead()

    def _after_overhead(self) -> None:
        # ... plus the protocol's extra round trips beyond the
        # request/response pair carried by the RPC itself.
        extra_rtts = self.profile.query_rtts - 1
        if extra_rtts > 0:
            rtt, delay = self.network.latency.rtt, 0
            for _ in range(extra_rtts):  # ``sum(..)``'s additions
                delay += rtt(self.node_id, self.decision_point)
            self.sim.schedule(delay, self._send_query)
        else:
            self._send_query()

    def _send_query(self) -> None:
        self._dp = self.decision_point
        self._rpc = self._query(self._job, self._dp, self._bspan,
                                then=self._on_answer)
        remaining = self.timeout_s - (self.sim.now - self._t0)
        if remaining > 0:
            self._race = self.sim.schedule(remaining, self._on_timeout)
        else:
            self._on_timeout()

    def _on_answer(self, ok: bool, answer) -> None:
        self._race.cancel()
        if not ok:  # remote error: the paper's USLA-blind fallback
            self._record_query(self._t0, None, False, self._dp)
            self._dispatch_random(self._job, parent=self._root)
            self.n_fallback_timeout += 1
            self._finish("error")
            return
        self._rpc = self._place(self._job, self.decision_point, answer,
                                self._root, then=self._on_ack)
        if self._rpc is None:  # one-phase: no report
            self._answered()
        else:  # a lost report must not wedge the channel: one timeout
            self._race = self.sim.schedule(self.timeout_s,
                                           self._on_ack_timeout)

    def _on_timeout(self) -> None:
        """Place the job USLA-blind; wait on for the answer (DiPerF still
        measures it) up to an abandon deadline, so a decision point that
        never answers (crashed, §2.2) cannot wedge the channel."""
        self.n_fallback_timeout += 1
        self._dispatch_random(self._job, parent=self._root)
        self._rpc.then = self._on_late_answer
        self._race = self.sim.schedule(max(4.0 * self.timeout_s, 60.0),
                                       self._on_abandon)

    def _on_late_answer(self, ok: bool, answer) -> None:
        self._race.cancel()
        self._record_query(self._t0, self.sim.now if ok else None, True,
                           self._dp)
        self._finish("timeout")

    def _on_abandon(self) -> None:
        self._rpc.then = None  # a response, if any, is counted, then dropped
        self.n_abandoned += 1
        self._record_query(self._t0, None, True, self._dp)
        self._finish("timeout")

    def _on_ack(self, ok: bool, ack) -> None:
        self._race.cancel()  # a failed report is fine: sync catches up
        self._answered()

    def _on_ack_timeout(self) -> None:
        self._rpc.then = None
        self.sim.metrics.counter("client.report_timeouts").inc()
        self._answered()

    def _answered(self) -> None:
        self._job.query_response_s = self.sim.now - self._t0
        self._record_query(self._t0, self.sim.now, False, self._dp)
        self._finish("ok")

    def _finish(self, outcome: str) -> None:
        """Close the spans (a run ending mid-operation leaves them open:
        exported as orphans, by design), free the channel, pump."""
        if self._root is not None:
            spans = self.sim.spans
            spans.finish(self._bspan)
            spans.finish(self._root, None, _OUTCOME, (outcome,))
        self._job = self._root = self._bspan = self._rpc = self._race = None
        self.busy = False
        self._pump()

    # -- resilient path (repro.resilience) --------------------------------
    def _breaker(self, dp) -> CircuitBreaker:
        """This client's breaker for one decision point (lazily built)."""
        breaker = self._breakers.get(dp)
        if breaker is None:
            policy = self.resilience
            breaker = CircuitBreaker(self.sim, str(self.node_id), str(dp),
                                     threshold=policy.breaker_threshold,
                                     open_s=policy.breaker_open_s)
            self._breakers[dp] = breaker
        return breaker

    def _maybe_failover(self) -> bool:
        """Rebind to a secondary decision point if the current one is bad.

        Triggers only when this client's breaker for the current
        decision point is open *or* the deployment prober marks it
        unhealthy — a single transient timeout never moves the binding.
        Candidates must pass both global health and this client's own
        breakers (an asymmetric partition can make a globally-healthy
        decision point dead for this host specifically).
        """
        if self.failover is None:
            return False
        current = self.decision_point
        if (self._breaker(current).state != "open"
                and self.failover.healthy(current)):
            return False
        target = self.failover.choose(
            current, allow=lambda d: self._breaker(d).allow())
        if target is None:
            return False
        self.n_failovers += 1
        self.sim.trace.emit("client.failover", self.node_id,
                            prior=str(current), new=str(target))
        self.rebind(target)
        return True

    def _broker_resilient(self, job: Job):
        """Retry + backoff + circuit breaker + failover brokering.

        Each attempt is a bounded-patience RPC (the breaker skips it
        entirely when open — no burned timeout); failures feed the
        per-decision-point breaker and may trigger failover; exhausted
        attempts fall back to the paper's random placement so the job
        stream never stalls.
        """
        policy = self.resilience
        t0 = self.sim.now
        attempt_timeout = policy.attempt_timeout_s or self.timeout_s
        spans = self.sim.spans
        root, bspan = self._open_spans(job, t0)
        outcome = "incomplete"
        attempts = 0
        try:
            overhead = lognormal_for_mean(self.rng,
                                          self.profile.client_overhead_s,
                                          self.profile.sigma)
            if overhead > 0:
                yield overhead
            for attempt in range(1, policy.max_attempts + 1):
                attempts = attempt
                dp = self.decision_point
                breaker = self._breaker(dp)
                if not breaker.allow():
                    # Fail fast: no RPC, no timeout burned.
                    self.n_breaker_fastfail += 1
                    self.sim.trace.emit("client.breaker_fastfail",
                                        self.node_id, dp=str(dp))
                    moved = self._maybe_failover()
                    if not moved and attempt < policy.max_attempts:
                        yield policy.backoff_delay(attempt, self.rng)
                    continue
                # Extra protocol round trips to *this* target (auth
                # handshakes restart when the binding changes).
                extra_rtts = max(self.profile.query_rtts - 1, 0)
                if extra_rtts:
                    yield sum(self.network.latency.rtt(self.node_id, dp)
                              for _ in range(extra_rtts))
                ev = self._query(job, dp, bspan, timeout=attempt_timeout)
                try:
                    yield ev
                except RpcError:
                    breaker.on_failure()
                    self.sim.trace.emit("client.attempt_failures",
                                        self.node_id, dp=str(dp),
                                        attempt=attempt)
                    self._maybe_failover()
                    if attempt < policy.max_attempts:
                        self.n_retries += 1
                        self.sim.trace.emit("client.retries", self.node_id)
                        yield policy.backoff_delay(attempt, self.rng)
                    continue
                breaker.on_success()
                report = self._place(job, dp, ev.value, root,
                                     timeout=attempt_timeout)
                if report is not None:
                    try:
                        yield report
                    except RpcError:
                        pass  # lost report: the sync/monitor path catches up
                job.query_response_s = self.sim.now - t0
                self._record_query(t0, self.sim.now, False, dp)
                outcome = "ok"
                return
            # Every attempt failed or was breaker-skipped: the paper's
            # USLA-blind fallback keeps the job stream moving.
            self.n_fallback_timeout += 1
            self.sim.trace.emit("client.resilient_fallbacks", self.node_id)
            self._dispatch_random(job, parent=root)
            self._record_query(t0, None, True, self.decision_point)
            outcome = "timeout"
        finally:
            spans.finish(bspan, None, _ATTEMPTS, (attempts,))
            spans.finish(root, None, _OUTCOME, (outcome,))
            self.busy = False
            self._pump()

    # -- dispatch ------------------------------------------------------------
    def _dispatch(self, job: Job, site: str, handled: bool,
                  parent=None) -> None:
        """Send the job to a site; record SA_i against ground truth.

        ``parent`` (a span, when tracing) parents a ``dispatch`` span
        covering the host→site delivery; its context rides on the job
        so the site's queue span joins the same trace.

        SA_i grades how much of the job's request the selected site can
        host *right now*: 1.0 when the job starts immediately, scaled
        down by the free fraction of the requested CPUs, and 0.0 when
        the site's queue would make it wait regardless.  (The paper's
        verbatim formula — selected-site free over grid-wide free —
        normalizes to unusable magnitudes at 300 sites; this is the
        operational reading, see EXPERIMENTS.md.)
        """
        site_obj = self.grid.site(site)
        if site_obj.queue_length > 0:
            sa = 0.0
        else:
            free = self.grid.free_at(site)
            sa = min(max(free, 0) / job.cpus, 1.0)
        job.scheduling_accuracy = sa
        job.handled_by_gruber = handled
        latency = self.network.latency.sample(self.node_id, site)
        spans = self.sim.spans
        dspan = None
        if spans.enabled and parent is not None:
            dspan = spans.start_span("dispatch", self.node_id, parent, None,
                                     _DISPATCH_ATTRS,
                                     (job.jid, site, handled))
        if dspan is None:
            self.sim.schedule(latency, lambda: site_obj.submit(job))
        else:
            job.trace_ctx = dspan

            def deliver():
                spans.finish(dspan)
                site_obj.submit(job)

            self.sim.schedule(latency, deliver)

    def _dispatch_random(self, job: Job, parent=None) -> None:
        self._dispatch(job, self.fallback.select_any(self.grid.site_names),
                       handled=False, parent=parent)

    def _record_query(self, sent_at: float, responded_at: Optional[float],
                      timed_out: bool, dp: Hashable) -> None:
        """One query row, naming the decision point queried (``dp``)."""
        self.trace.record_query(sent_at, responded_at, timed_out,
                                client=str(self.node_id),
                                decision_point=str(dp))

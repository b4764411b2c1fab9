"""Online invariant checking for running simulations.

The :class:`InvariantChecker` rides the simulator as a periodic
checkpoint pass over everything it was told to watch — sites, clients,
decision points, the kernel itself — asserting the conservation and
accounting invariants the rest of the codebase merely claims:

* **job conservation** — per client, every workload arrival is in the
  backlog, materialized, or terminal; materialized jobs are brokered
  exactly once (at most one in flight per host channel);
* **site CPU accounting** — ``0 <= busy <= capacity``, busy equals the
  sum over running jobs, dispatch counters balance against terminal
  counters plus work in the pipeline, and the busy-CPU integral
  decomposes exactly into delivered per-VO CPU-seconds plus the
  still-running remainder;
* **view accounting** — each decision point's
  :meth:`~repro.core.state.GridStateView.audit` (incremental sums vs
  ground truth, live-table agreement, free-column coherence);
* **USLA share bounds** — published fair-share fractions stay in
  ``[0, 1]`` and per-consumer usage never exceeds the site estimate;
* **sync monotonicity** — learn-sequence watermarks only advance and
  per-peer delta marks never pass the view's learn counter;
* **kernel sanity** — monotone clock, monotone executed-event count,
  no pending event behind the clock.

The checker is strictly **read-only**: it never calls any query that
triggers record expiry (that would perturb subsequent sync payloads,
making a checked run diverge from an unchecked one), never draws from
any RNG, and schedules only its own checkpoint callbacks — so a run
with the checker is the same run, plus checkpoints.

Violations *raise* in tests (``strict=True``) and are one
``check.violation`` event each in runs, matching how the rest of the
observability plane reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from repro.grid.job import JobState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import GruberClient
    from repro.core.decision_point import DecisionPoint
    from repro.grid.site import Site
    from repro.sim.kernel import Simulator

__all__ = ["InvariantChecker", "InvariantViolation", "Violation",
           "check_snapshot_invariants"]

#: Relative tolerance for float integrals (CPU-second decompositions).
_REL_TOL = 1e-9
_ABS_TOL = 1e-6
_CLIENT_COUNTER_NAMES = ("n_handled", "n_fallback_timeout", "n_abandoned",
                         "n_retries", "backlog_peak")
_CLIENT_COUNTERS = attrgetter(*_CLIENT_COUNTER_NAMES)


class InvariantViolation(AssertionError):
    """Raised in strict mode the moment an invariant fails."""


@dataclass(frozen=True)
class Violation:
    """One failed invariant at one checkpoint."""

    time: float
    rule: str       # e.g. "site.busy_bounds"
    subject: str    # the watched object (site/client/dp name)
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"[t={self.time:.3f}] {self.rule}({self.subject}): {self.detail}"


class InvariantChecker:
    """Periodic checkpoint pass over watched simulation objects."""

    def __init__(self, sim: "Simulator", interval_s: float = 30.0,
                 strict: bool = False):
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.sim = sim
        self.interval_s = interval_s
        self.strict = strict
        self.violations: list[Violation] = []
        self.checks_run = 0
        self._handle = None
        self._sites: list["Site"] = []
        self._clients: list["GruberClient"] = []
        self._dps: list["DecisionPoint"] = []
        self._deployments: list = []
        self._controllers: list = []
        # Monotonicity baselines, keyed per watched object.
        self._last_now = -float("inf")
        self._last_events = -1
        self._last_integral: dict[str, float] = {}
        self._last_learn_count: dict[str, int] = {}
        self._last_marks: dict[tuple[str, str], int] = {}
        #: Jobs ``client.job_duration`` has verified (one per completion).
        self.jobs_inspected = 0

    # -- wiring ------------------------------------------------------------
    def watch_site(self, site: "Site") -> None:
        self._sites.append(site)
        site.on_job_completed.append(self._on_job_completed)

    def watch_client(self, client: "GruberClient") -> None:
        self._clients.append(client)

    def watch_dp(self, dp: "DecisionPoint") -> None:
        self._dps.append(dp)

    def watch_deployment(self, deployment) -> None:
        """Track the deployment's decision-point set *live*.

        Dynamic reconfiguration adds decision points mid-run; re-reading
        ``deployment.decision_points`` at every checkpoint picks those
        up, where a one-shot snapshot would silently leave them
        unchecked.
        """
        self._deployments.append(deployment)

    def watch_controller(self, planner) -> None:
        """Gate the autoscale planner like any other simulation object."""
        self._controllers.append(planner)

    def install(self) -> None:
        """Schedule the checkpoint chain on the simulator.

        No jitter and no RNG: checker events interleave at fixed times
        and never perturb any stream another component draws from.
        """
        if self._handle is not None:
            raise RuntimeError("checker already installed")
        self._handle = self.sim.every(self.interval_s, self.check,
                                      name="invariant-check")

    def uninstall(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # -- reporting ---------------------------------------------------------
    def _flag(self, rule: str, subject: str, detail: str) -> None:
        v = Violation(time=self.sim.now, rule=rule, subject=str(subject),
                      detail=detail)
        self.violations.append(v)
        self.sim.trace.emit("check.violation", subject, rule=rule,
                            detail=detail)
        if self.strict:
            raise InvariantViolation(str(v))

    # -- checkpoint --------------------------------------------------------
    def check(self) -> list[Violation]:
        """Run every invariant once; returns violations found this pass."""
        before = len(self.violations)
        self.checks_run += 1
        self.sim.metrics.counter("check.passes").inc()
        self._check_kernel()
        for site in self._sites:
            self._check_site(site)
        for client in self._clients:
            self._check_client(client)
        self._check_job_tables()
        for dp in self._dps:
            self._check_dp(dp)
        for deployment in self._deployments:
            for dp in deployment.decision_points.values():
                self._check_dp(dp)
        for planner in self._controllers:
            self._check_controller(planner)
        return self.violations[before:]

    # -- kernel ------------------------------------------------------------
    def _check_kernel(self) -> None:
        sim = self.sim
        if sim.now < self._last_now:
            self._flag("kernel.clock_monotone", "sim",
                       f"now={sim.now} moved backward from {self._last_now}")
        self._last_now = sim.now
        if sim._event_count < self._last_events:
            self._flag("kernel.events_monotone", "sim",
                       f"executed={sim._event_count} < {self._last_events}")
        self._last_events = sim._event_count
        heap = sim._heap
        if heap and heap[0][0] < sim.now:
            self._flag("kernel.heap_order", "sim",
                       f"pending event at t={heap[0][0]} behind "
                       f"now={sim.now}")
        if sim._dead > len(heap):
            self._flag("kernel.heap_dead", "sim",
                       f"dead count {sim._dead} exceeds heap size "
                       f"{len(heap)}")
        if sim.heap_peak < len(heap):
            self._flag("kernel.heap_peak", "sim",
                       f"peak {sim.heap_peak} below current size "
                       f"{len(heap)}")

    # -- controller --------------------------------------------------------
    def _check_controller(self, planner) -> None:
        cfg = planner.config
        deployment = planner.deployment
        n_live = len(deployment.live_dp_ids)
        if not (cfg.min_dps <= n_live <= cfg.max_dps):
            self._flag("control.fleet_bounds", "autoscale",
                       f"live decision points {n_live} outside "
                       f"[{cfg.min_dps}, {cfg.max_dps}]")
        known = set(deployment.decision_points)
        for client in deployment.clients:
            if str(client.decision_point) not in known:
                self._flag("control.client_binding", str(client.node_id),
                           f"bound to unknown decision point "
                           f"{client.decision_point!r}")
        for dp_id in deployment.retired:
            dp = deployment.decision_points.get(dp_id)
            if dp is not None and dp.online:
                self._flag("control.retired_online", dp_id,
                           "retired decision point is still online")
        recorded = sum(a.clients_moved for a in planner.actuator.actions)
        if planner.actuator.clients_moved != recorded:
            self._flag("control.migration_accounting", "autoscale",
                       f"actuator moved {planner.actuator.clients_moved} "
                       f"clients but actions record {recorded}")

    # -- sites -------------------------------------------------------------
    def _check_site(self, site: "Site") -> None:
        name, busy = site.name, site.busy_cpus
        if not (0 <= busy <= site.total_cpus):
            self._flag("site.busy_bounds", name,
                       f"busy={busy} outside [0, {site.total_cpus}]")
        now = self.sim.now
        running = accruing = 0  # one walk, in the order sum() added
        for j in site._running.values():
            cpus, started = j.cpus, j.started_at
            running += cpus
            if started is not None:
                accruing += (now - started) * cpus
        if running != busy:
            self._flag("site.busy_sum", name,
                       f"busy={busy} but running jobs hold "
                       f"{running} CPUs")
        if site.jobs_dispatched != (site.jobs_completed + site.jobs_failed
                                    + len(site._running) + len(site._queue)):
            self._flag("site.job_conservation", name,
                       f"dispatched={site.jobs_dispatched} != completed="
                       f"{site.jobs_completed} + failed={site.jobs_failed}"
                       f" + running={site.running_jobs} + queued="
                       f"{site.queue_length}")
        # Busy integral must only grow, and must decompose exactly into
        # CPU-seconds already credited per VO plus the still-accruing
        # share of running jobs.  A preempted job whose partial run is
        # never credited breaks the equality (that bug is how this rule
        # earned its place).
        integral = site._busy_integral + busy * (now - site._last_change)
        last = self._last_integral.get(name, 0.0)
        if integral < last - _ABS_TOL:
            self._flag("site.integral_monotone", name,
                       f"busy integral {integral} fell below {last}")
        self._last_integral[name] = integral
        credited, negative = 0, False  # one walk: sum() and the sign
        for secs in site.vo_cpu_seconds.values():
            credited += secs
            if secs < 0.0:
                negative = True
        expected = credited + accruing
        if abs(integral - expected) > max(_ABS_TOL, _REL_TOL * integral):
            self._flag("site.cpu_seconds", name,
                       f"busy integral {integral:.6f} != credited "
                       f"{credited:.6f} + running {accruing:.6f}")
        if negative:
            for vo, secs in site.vo_cpu_seconds.items():
                if secs < 0.0:
                    self._flag("site.vo_cpu_seconds", name,
                               f"negative CPU-seconds for {vo}: {secs}")

    # -- clients -----------------------------------------------------------
    def _check_client(self, client: "GruberClient") -> None:
        name = str(client.node_id)
        cursor = client._next  # jobs materialized
        terminal = client.n_handled + client.n_fallback_timeout
        in_flight = cursor - terminal
        if in_flight not in (0, 1):
            self._flag("client.job_conservation", name,
                       f"{cursor} materialized jobs vs "
                       f"{terminal} terminal (in-flight={in_flight})")
        elif in_flight == 1 and not client.busy:
            self._flag("client.channel_state", name,
                       "one job in flight but channel not busy")
        # Arrival cursor: the backlog is derived from the cursor, so the
        # checkable facts are about the cursor itself — it never runs
        # ahead of the clock, the job in flight is the last arrival it
        # took, and its one timer is armed only while the channel idles
        # with nothing due.
        now = self.sim.now
        arrivals = client.workload.arrivals
        due = int(arrivals.searchsorted(now, "right"))
        job = client._job
        if not (0 <= cursor <= due):
            self._flag("client.arrival_cursor", name,
                       f"cursor {cursor}, {due} arrivals due at t={now}")
        elif job is not None and cursor == 0:
            self._flag("client.arrival_cursor", name,
                       f"job {job.jid} in flight with cursor 0")
        elif job is not None and job.created_at != arrivals[cursor - 1]:
            self._flag("client.arrival_cursor", name,
                       f"job {job.jid} in flight created at "
                       f"{job.created_at}, arrival {cursor - 1} is at "
                       f"{arrivals[cursor - 1]} (now={now})")
        if client._timer is not None and (client.busy or due > cursor):
            self._flag("client.arrival_cursor", name,
                       f"arrival timer armed with busy={client.busy}, "
                       f"backlog={due - cursor}")
        values = _CLIENT_COUNTERS(client)
        if min(values) < 0:
            for counter, value in zip(_CLIENT_COUNTER_NAMES, values):
                if value < 0:
                    self._flag("client.counter_bounds", name,
                               f"{counter}={value} < 0")

    def _on_job_completed(self, job) -> None:
        """``client.job_duration``, once per job at COMPLETED (FAILED is
        not final: a re-plan can still complete it).  A stale completion
        timer that survived a preempt-and-replan cycle truncated the
        second run to the first run's deadline: this detects that class."""
        if job.state is not JobState.COMPLETED:
            return
        self.jobs_inspected += 1
        et = job.execution_time_s
        if abs(et - job.duration_s) > _ABS_TOL:
            self._flag("client.job_duration", str(job.submission_host),
                       f"job {job.jid} ran {et:.6f}s, duration "
                       f"{job.duration_s:.6f}s")

    def _check_job_tables(self) -> None:
        """``trace.job_table``: every job a client materialized is in its
        recorder exactly once, as a row or live."""
        opened: dict[int, list] = {}
        for client in self._clients:
            opened.setdefault(id(client.trace), [client.trace, 0])[1] += \
                client._next
        for trace, n in opened.values():
            if trace.n_jobs + len(trace.live) != n:
                self._flag("trace.job_table", "trace", f"{trace.n_jobs} rows "
                           f"+ {len(trace.live)} live != {n} jobs materialized")

    # -- decision points -----------------------------------------------------
    def _check_dp(self, dp: "DecisionPoint") -> None:
        name = str(dp.node_id)
        view = dp.engine.view
        # One walk of the per-consumer sums serves the audit and the
        # consumer bound below.
        problems, over = view._audit(bound_tol=_ABS_TOL)
        for problem in problems:
            self._flag("view.audit", name, problem)
        # Learn-sequence monotonicity, and per-peer delta watermarks
        # bounded by (and never outrunning) the learn counter.
        count = view._learn_count
        last = self._last_learn_count.get(name, 0)
        if count < last:
            self._flag("sync.learn_seq_monotone", name,
                       f"learn count {count} fell below {last}")
        self._last_learn_count[name] = count
        for peer, mark in dp.sync._peer_marks.items():
            if mark > count:
                self._flag("sync.watermark_bound", name,
                           f"mark for {peer} is {mark} > learn count "
                           f"{count}")
            key = (name, str(peer))
            if mark < self._last_marks.get(key, 0):
                self._flag("sync.watermark_monotone", name,
                           f"mark for {peer} fell from "
                           f"{self._last_marks.get(key)} to {mark}")
            self._last_marks[key] = mark
        if dp.sync.records_adopted > dp.sync.records_received:
            self._flag("sync.adoption_bound", name,
                       f"adopted {dp.sync.records_adopted} > received "
                       f"{dp.sync.records_received}")
        # USLA share bounds: every published fair-share fraction is a
        # fraction, and no consumer's estimated usage exceeds the
        # site-wide estimate it is part of.
        fresh = dp.engine.usla_store.policy_engine()
        for rule in fresh:
            if not (0.0 <= rule.fraction <= 1.0):
                self._flag("usla.share_bounds", name,
                           f"rule {rule.provider}->{rule.consumer} "
                           f"fraction {rule.fraction} outside [0, 1]")
        # Policy-cache coherence: any cache the engine would *serve*
        # (mutation counters agree, so ``_policy()`` would return it
        # as-is) must agree with a fresh flatten of the store.  A
        # caller publishing straight into the store used to leave
        # the engine answering availability queries from stale
        # entitlements.
        cache = dp.engine._policy_cache
        if (cache is not None
                and dp.engine._policy_mutations
                == dp.engine.usla_store.mutations):
            def rule_set(engine):
                return sorted((r.provider, r.consumer, str(r.resource),
                               r.percent, str(r.kind)) for r in engine)
            if rule_set(cache) != rule_set(fresh):
                self._flag("usla.policy_coherence", name,
                           "cached policy engine disagrees with the "
                           "USLA store contents")
        for site, consumer, busy in over:
            self._flag("usla.consumer_bound", name,
                       f"vo_busy[{site},{consumer}]={busy} exceeds "
                       f"site estimate {view._extra_busy[view._col[site]]}")

    # -- summary -----------------------------------------------------------
    def summary(self) -> str:
        status = "OK" if not self.violations else \
            f"{len(self.violations)} violation(s)"
        lines = [f"invariant checker: {self.checks_run} checkpoint(s), "
                 f"{status}"]
        lines += [f"  {v}" for v in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


def check_snapshot_invariants(built) -> None:
    """Snapshot-plane invariants over a built (possibly mid-run) run.

    * **read-only capture** — two back-to-back captures digest alike,
      section by section, so capturing mutates nothing and draws no
      randomness (the precondition for checkpoint ticks not perturbing
      the simulation they snapshot);
    * **digest recomputability** — every per-section digest the
      checkpoint writes equals the digest of that section captured
      here (no hidden iteration-order dependence);
    * **clock agreement** — the snapshot's time/event stamps match the
      kernel's.

    Raises :class:`InvariantViolation` on any failure.
    """
    from repro.sim.snapshot import (capture_state, snapshot_experiment,
                                    state_digest)

    def digests():
        return {section: state_digest(value)
                for section, value in capture_state(built).items()}

    state = digests()
    if state != digests():
        raise InvariantViolation(
            "state capture is not read-only/stable: two back-to-back "
            "captures of the same run differ")
    snap = snapshot_experiment(built)
    for section, digest in state.items():
        if digest != snap["digests"][section]:
            raise InvariantViolation(
                f"snapshot digest for section {section!r} does not "
                f"recompute from the captured state")
    if (snap["event_count"] != built.sim.events_executed
            or snap["time"] != built.sim.now):
        raise InvariantViolation(
            "snapshot time/event stamps disagree with the kernel clock")

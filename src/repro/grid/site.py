"""Sites: clusters of CPUs with a FIFO local scheduler.

Per the paper's experimental setup, site policy enforcement points
(S-PEPs) are out of scope — "the decision points have total control
over scheduling decisions" — so a site simply runs whatever it is sent,
FIFO, as CPUs free up.  Sites track per-VO usage and busy-CPU
integrals, which feed the Util metric and the decision points' monitor
views.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Deque, Iterable, Optional

import numpy as np

from repro.grid.job import Job, JobState
from repro.sim.kernel import Simulator
from repro.sim.snapshot import utf8_array

#: Below this queue depth the vectorized drain falls back to the scalar
#: loop: numpy call overhead beats the per-job bookkeeping it saves on
#: short queues.  Both paths compute the same FIFO prefix, so the
#: threshold is a pure performance knob (results are bit-identical).
_VECTORIZE_MIN_QUEUE = 16
#: Span attr shape (key tuple) of a queue span.
_QUEUE_ATTRS = ("jid", "vo")

__all__ = ["Cluster", "Site", "snapshot_sites"]


@dataclass(frozen=True)
class Cluster:
    """A homogeneous pool of CPUs within a site."""

    name: str
    cpus: int

    def __post_init__(self):
        if self.cpus < 1:
            raise ValueError(f"cluster {self.name!r} needs >= 1 CPU")


class Site:
    """One resource-provider site.

    The default scheduler is strict FIFO with head-of-line blocking: a
    queued job that does not fit keeps later jobs waiting (matching
    simple space-shared cluster schedulers of the Grid3 era, where this
    is the conservative default).  ``backfill=True`` switches to an
    aggressive backfill discipline: any queued job that fits may start,
    in queue order (EASY-style without reservations — small jobs slip
    past a stuck wide job).

    ``vectorized=True`` (default) computes the FIFO drain prefix in one
    numpy cumsum/searchsorted pass when the queue is deep, and batches
    completion timers per (site, completion-time) bucket so a wave of
    equal-duration jobs started at the same instant shares one heap
    entry.  Both are result-preserving — the prefix is exactly the set
    the scalar while-loop would start, and bucketed completions run
    each job through the same per-job path in the same order — checked
    against ``vectorized=False`` in ``tests/test_grid_site.py``.  Backfill is
    sequential-dependent (each start changes what fits next for the
    jobs it skipped), so it always uses the scalar pass.
    """

    def __init__(self, sim: Simulator, name: str, clusters: list[Cluster],
                 backfill: bool = False, vectorized: bool = True):
        if not clusters:
            raise ValueError(f"site {name!r} needs at least one cluster")
        self.sim = sim
        self.name = name
        self.backfill = backfill
        self.vectorized = vectorized
        self.clusters = list(clusters)
        self.total_cpus = sum(c.cpus for c in clusters)
        self.busy_cpus = 0
        self._queue: Deque[Job] = deque()
        self._running: dict[int, Job] = {}
        # Observers: called with the job on each transition.
        self.on_job_dispatched: list[Callable[[Job], None]] = []
        self.on_job_started: list[Callable[[Job], None]] = []
        self.on_job_completed: list[Callable[[Job], None]] = []
        # CPU-seconds integral for Util computations.
        self._busy_integral = 0.0
        self._last_change = 0.0
        # Cumulative per-VO CPU-seconds delivered (USLA verification input).
        self.vo_cpu_seconds: dict[str, float] = {}
        # Conservation ledger: every job counted in ``jobs_dispatched``
        # is, at any instant, exactly one of completed / failed /
        # running / queued.  Oversized submissions never enter the
        # ledger — they are rejected at the door (``jobs_rejected``).
        self.jobs_dispatched = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_rejected = 0
        #: Drains served by the numpy prefix pass (tests/benches use
        #: this to prove the vectorized path actually engaged).
        self.vector_drains = 0

    # -- public API --------------------------------------------------------
    @property
    def free_cpus(self) -> int:
        return self.total_cpus - self.busy_cpus

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def running_jobs(self) -> int:
        return len(self._running)

    def submit(self, job: Job) -> None:
        """Receive a dispatched job; start it now or queue it FIFO."""
        if job.cpus > self.total_cpus:
            job.mark_dispatched(self.sim.now, self.name)
            self._fail(job)
            return
        job.mark_dispatched(self.sim.now, self.name)
        self.jobs_dispatched += 1
        for cb in self.on_job_dispatched:
            cb(job)
        self._queue.append(job)
        self._drain()

    def utilization(self, until: Optional[float] = None) -> float:
        """Time-averaged CPU utilization over ``[0, until]`` (default: now).

        The live tail segment (busy CPUs since the last state change)
        is clamped to ``until``: asking for utilization over a window
        that ends before ``now`` must not credit busy time accrued
        after the window.  The query never mutates the integral, so
        repeated queries at one timestamp agree exactly.  Exact for any
        ``until >= _last_change``; an ``until`` inside committed
        history is answered with the full committed integral (the
        per-segment history needed to subdivide it is not kept), capped
        at 1.0 — a site can never have delivered more than its
        capacity, where the unclamped tail used to report exactly that.
        """
        until = self.sim.now if until is None else until
        if until <= 0.0:
            return 0.0
        integral = self._busy_integral
        tail = min(self.sim.now, until) - self._last_change
        if tail > 0.0:
            integral += self.busy_cpus * tail
        util = integral / (self.total_cpus * until)
        return util if util < 1.0 else 1.0

    def snapshot(self) -> dict:
        """Monitoring view of this site (what a site monitor reports)."""
        return {
            "name": self.name,
            "total_cpus": self.total_cpus,
            "free_cpus": self.free_cpus,
            "queue_length": self.queue_length,
            "running_jobs": self.running_jobs,
        }

    # -- internals ------------------------------------------------------------
    def _advance_integral(self) -> None:
        now = self.sim.now
        self._busy_integral += self.busy_cpus * (now - self._last_change)
        self._last_change = now

    def _drain(self) -> None:
        if not self.backfill:
            if self.vectorized and len(self._queue) >= _VECTORIZE_MIN_QUEUE:
                self._drain_vectorized()
                return
            while self._queue and self._queue[0].cpus <= self.free_cpus:
                job = self._queue.popleft()
                self._start(job)
            return
        # Backfill: one pass in queue order, starting whatever fits.
        # (One pass suffices: starting jobs only reduces free CPUs.)
        kept = deque()
        while self._queue:
            if self.free_cpus <= 0:
                kept.extend(self._queue)
                self._queue.clear()
                break
            job = self._queue.popleft()
            if job.cpus <= self.free_cpus:
                self._start(job)
            else:
                kept.append(job)
        self._queue.extend(kept)

    def _drain_vectorized(self) -> None:
        """Start the FIFO drain prefix in one cumsum/searchsorted pass.

        Head-of-line FIFO starts the longest queue prefix whose total
        CPU demand fits the free CPUs — exactly what the scalar
        while-loop computes one job at a time.  Each job needs at least
        one CPU, so only the first ``free_cpus`` queue entries can ever
        be part of the prefix; the scan is bounded by that, not by the
        queue depth.
        """
        q = self._queue
        free = self.free_cpus
        if not q or q[0].cpus > free:
            return
        n = len(q) if len(q) < free else free
        cpus = np.fromiter((job.cpus for job in islice(q, n)),
                           dtype=np.int64, count=n)
        take = int(np.searchsorted(np.cumsum(cpus), free, side="right"))
        if take == 0:  # pragma: no cover - head-fits guard above
            return
        self.vector_drains += 1
        batch = [q.popleft() for _ in range(take)]
        self._start_batch(batch)

    def _start(self, job: Job) -> None:
        self._advance_integral()
        now = self.sim.now
        self._start_body(job, now)
        self.sim.schedule(job.duration_s,
                          lambda: self._complete(job, started=now))

    def _start_batch(self, jobs: list[Job]) -> None:
        """Start a drain prefix with completion timers bucketed by time.

        Jobs from one drain wave that complete at the same instant
        share a single heap entry; the bucket's timer is scheduled when
        its first member starts, so it holds the seq slot that member's
        scalar timer would have held, and members complete in start
        (= queue) order — the scalar pop order for equal-time timers.
        Completion itself stays per-job (:meth:`_complete`), including
        the re-drain after each job, so downstream effects interleave
        exactly as in the scalar path.
        """
        self._advance_integral()
        now = self.sim.now
        schedule = self.sim.schedule
        buckets: dict[float, list[Job]] = {}
        for job in jobs:
            self._start_body(job, now)
            group = buckets.get(job.duration_s)
            if group is None:
                group = buckets[job.duration_s] = [job]
                schedule(job.duration_s,
                         lambda g=group: self._complete_batch(g, started=now))
            else:
                group.append(job)

    def _start_body(self, job: Job, now: float) -> None:
        self.busy_cpus += job.cpus
        job.mark_running(now)
        if job.dispatched_at is not None:
            # Per-VO queue-wait attribution (QTime, sliced by VO) —
            # always-on, like the other registry histograms (read from
            # the registry's own table; created on a VO's first start).
            name = "site.qwait_s." + job.vo
            hist = (self.sim.metrics.histograms.get(name)
                    or self.sim.metrics.histogram(name))
            hist.observe(now - job.dispatched_at)
            spans = self.sim.spans
            if spans.enabled and job.trace_ctx is not None:
                # Recorded retroactively: the wait is only known once
                # the job starts, so the span covers [dispatch, start].
                spans.record("queue", self.name, job.trace_ctx,
                             job.dispatched_at, now, _QUEUE_ATTRS,
                             (job.jid, job.vo))
        self._running[job.jid] = job
        for cb in self.on_job_started:
            cb(job)

    def _complete_batch(self, jobs: list[Job], started: float) -> None:
        for job in jobs:
            self._complete(job, started=started)

    def _complete(self, job: Job, started: Optional[float] = None) -> None:
        if job.jid not in self._running:
            return
        if started is not None and job.started_at != started:
            # Stale timer from a preempted incarnation: the job was
            # failed and re-planned back onto this site, and the new
            # start scheduled its own completion.  Without this guard
            # the dead timer completed the new run early, truncating
            # its execution to the old deadline.
            return
        del self._running[job.jid]
        self._advance_integral()
        self.busy_cpus -= job.cpus
        job.mark_completed(self.sim.now)
        self.jobs_completed += 1
        self.vo_cpu_seconds[job.vo] = (self.vo_cpu_seconds.get(job.vo, 0.0)
                                       + job.cpu_seconds)
        for cb in self.on_job_completed:
            cb(job)
        self._drain()

    def _fail(self, job: Job) -> None:
        job.mark_failed(self.sim.now)
        self.jobs_rejected += 1
        for cb in self.on_job_completed:
            cb(job)

    def fail_running_job(self, jid: int) -> Job:
        """Fault injection: kill a running job (preemption tests)."""
        job = self._running.pop(jid, None)
        if job is None:
            raise KeyError(f"job {jid} is not running at site {self.name!r}")
        self._advance_integral()
        self.busy_cpus -= job.cpus
        job.mark_failed(self.sim.now)
        self.jobs_failed += 1
        # The job held CPUs from start to preemption; credit the partial
        # run to its VO or the busy integral no longer decomposes into
        # delivered CPU-seconds (the invariant checker's site.cpu_seconds
        # rule caught exactly this omission).
        self.vo_cpu_seconds[job.vo] = (self.vo_cpu_seconds.get(job.vo, 0.0)
                                       + job.cpu_seconds)
        for cb in self.on_job_completed:
            cb(job)
        self._drain()
        return job

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Site {self.name} cpus={self.busy_cpus}/{self.total_cpus} "
                f"queue={self.queue_length}>")


_COUNTERS = ("jobs_dispatched", "jobs_completed", "jobs_failed",
             "jobs_rejected")


def snapshot_sites(sites: Iterable[Site]) -> dict:
    """Canonical state of ``sites`` (in the given order) for snapshot
    digests: per-site scalars as arrays, and the FIFO queues (in order),
    the in-flight job sets (by jid) and the per-VO CPU-seconds (by VO)
    grouped by site.  Completion timers live in the kernel heap, which
    the kernel's own capture covers.
    """
    sites = list(sites)
    queued = list(chain.from_iterable(s._queue for s in sites))
    vo_secs = [sorted(s.vo_cpu_seconds.items()) for s in sites]
    vo_items = list(chain.from_iterable(vo_secs))
    return {
        "sites": {
            "name": utf8_array(s.name for s in sites),
            "busy_cpus": np.array([s.busy_cpus for s in sites], "<f8"),
            "busy_integral": np.array([s._busy_integral for s in sites],
                                      "<f8"),
            "last_change": np.array([s._last_change for s in sites], "<f8"),
            **{name: np.array([getattr(s, name) for s in sites], "<i8")
               for name in _COUNTERS},
            "n_queue": np.array([len(s._queue) for s in sites], "<i4"),
            "n_running": np.array([len(s._running) for s in sites], "<i4"),
            "n_vo": np.array([len(d) for d in vo_secs], "<i4"),
        },
        "queue": {"jid": np.array([j.jid for j in queued], "<i8"),
                  "cpus": np.array([j.cpus for j in queued], "<i8")},
        "running": {"jid": np.array(list(chain.from_iterable(
            sorted(s._running) for s in sites)), "<i8")},
        "vo_cpu_seconds": {"vo": utf8_array(vo for vo, _ in vo_items),
                           "secs": np.array([sec for _, sec in vo_items],
                                            "<f8")},
    }

"""The Euryale late-binding planner.

For each job the planner runs, in order:

1. **prescript** — call the external site selector (GRUBER: fetch the
   availability map from a decision point, apply the task-assignment
   policy, report the selection), rewrite the submit file to the chosen
   site, transfer input files that lack a replica there, and register
   the transfers with the replica catalog;
2. **submit** via Condor-G and wait;
3. **postscript** — transfer outputs to the collection area, register
   produced files, check success, update popularity;
4. on failure, **replan**: reset the job and go back to 1 (late
   binding means the new attempt sees fresh availability), up to
   ``max_retries`` times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional

import numpy as np

from repro.core.selectors import RandomSelector, SiteSelector
from repro.euryale.condor_g import CondorGSubmitter
from repro.euryale.replica import ReplicaCatalog
from repro.grid.builder import Grid
from repro.grid.job import Job
from repro.net.transport import Network, RpcError
from repro.sim.kernel import Simulator

__all__ = ["FileSpec", "PlannerJob", "EuryalePlanner"]

#: Effective WAN file-transfer rate used for staging, MB/s.
TRANSFER_MB_S = 4.0


@dataclass(frozen=True)
class FileSpec:
    """A logical file a job consumes or produces."""

    lfn: str
    size_mb: float = 10.0

    def __post_init__(self):
        if self.size_mb < 0:
            raise ValueError("size_mb must be >= 0")


@dataclass
class PlannerJob:
    """A job plus its data dependencies, as Euryale sees it."""

    job: Job
    inputs: list[FileSpec] = field(default_factory=list)
    outputs: list[FileSpec] = field(default_factory=list)


class EuryalePlanner:
    """Late-binding planning with GRUBER site selection and replanning."""

    def __init__(self, sim: Simulator, network: Network, grid: Grid,
                 submitter: CondorGSubmitter, catalog: ReplicaCatalog,
                 selector: SiteSelector, rng: np.random.Generator,
                 decision_point: Optional[Hashable] = None,
                 origin: Hashable = "euryale",
                 collection_site: str = "",
                 max_retries: int = 3,
                 selector_timeout_s: float = 15.0,
                 storage: Optional[dict] = None,
                 bandwidth: Optional[dict] = None,
                 data_aware: bool = False):
        self.sim = sim
        self.network = network
        self.grid = grid
        self.submitter = submitter
        self.catalog = catalog
        self.selector = selector
        self.fallback = RandomSelector(rng)
        self.decision_point = decision_point
        self.origin = origin
        self.collection_site = collection_site or "collection-area"
        self.max_retries = max_retries
        self.selector_timeout_s = selector_timeout_s
        #: Optional per-site StorageManager map; when present, staged
        #: inputs reserve space and storage USLAs can veto a placement.
        self.storage = storage or {}
        #: Optional per-site BandwidthPool map; when present, transfers
        #: contend for the site's uplink (processor sharing + network
        #: USLAs) instead of the flat TRANSFER_MB_S rate.
        self.bandwidth = bandwidth or {}
        #: Data-aware placement (the Ranganathan-Foster line the paper
        #: builds on): prefer sites already holding the job's input
        #: replicas, falling back to the plain selector when no replica
        #: site has capacity.
        self.data_aware = data_aware
        self.data_aware_hits = 0
        self.completed: list[Job] = []
        self.abandoned: list[Job] = []
        self.replans = 0
        self.storage_rejections = 0

    # -- public API ----------------------------------------------------------
    def run_job(self, planner_job: PlannerJob):
        """Process generator: plan, run, and re-plan one job to the end.

        Returns the job on success; raises RuntimeError after
        exhausting retries.
        """
        job = planner_job.job
        attempt = 0
        while True:
            site = yield from self._prescript(planner_job)
            done = self.submitter.submit(job, site)
            try:
                yield done
            except RuntimeError:
                attempt += 1
                if attempt > self.max_retries:
                    self.abandoned.append(job)
                    raise RuntimeError(
                        f"job {job.jid} abandoned after {attempt - 1} replans")
                job.reset_for_replan()
                self.replans += 1
                continue
            yield from self._postscript(planner_job)
            self.completed.append(job)
            return job

    # -- prescript ------------------------------------------------------------
    def _prescript(self, planner_job: PlannerJob):
        job = planner_job.job
        site = yield from self._select_site(planner_job)
        # Storage USLA check: the execution site must grant the VO
        # space for the inputs it lacks; on refusal try other sites.
        for _ in range(8):
            if self._storage_admits(planner_job, site):
                break
            self.storage_rejections += 1
            site = self.fallback.select_any(self.grid.site_names)
        else:
            raise RuntimeError(
                f"job {job.jid}: no site grants {job.vo!r} storage for "
                f"its inputs")
        # "Rewrites the job submit file to specify that site."
        job.decision_point = (str(self.decision_point)
                              if self.decision_point else None)
        # "Transfers necessary input files to that site" — only files
        # without a replica there; "registers transferred files".
        for spec in planner_job.inputs:
            if not self.catalog.has_replica(spec.lfn, site):
                yield from self._transfer(site, job.vo, spec.size_mb)
                manager = self.storage.get(site)
                if manager is not None:
                    manager.allocate(job.vo, spec.lfn, spec.size_mb / 1024.0)
                self.catalog.register(spec.lfn, site)
            self.catalog.touch(spec.lfn)
        return site

    def _transfer(self, site: str, vo: str, size_mb: float):
        """Move one file: via the site's bandwidth pool when modeled."""
        if size_mb <= 0:
            return
        pool = self.bandwidth.get(site)
        if pool is None:
            yield size_mb / TRANSFER_MB_S
            return
        while True:
            done = pool.transfer(vo, size_mb)
            try:
                yield done
                return
            except PermissionError:
                # Network USLA: wait for link share to free, then retry.
                yield 30.0

    def _storage_admits(self, planner_job: PlannerJob, site: str) -> bool:
        manager = self.storage.get(site)
        if manager is None:
            return True
        job = planner_job.job
        needed_gb = sum(spec.size_mb for spec in planner_job.inputs
                        if not self.catalog.has_replica(spec.lfn, site)) / 1024.0
        return manager.can_allocate(job.vo, needed_gb)

    def _replica_bytes(self, planner_job: PlannerJob) -> dict[str, float]:
        """Input megabytes already resident per site."""
        bytes_at: dict[str, float] = {}
        for spec in planner_job.inputs:
            for site in self.catalog.locations(spec.lfn):
                if site in self.grid.sites:
                    bytes_at[site] = bytes_at.get(site, 0.0) + spec.size_mb
        return bytes_at

    def _select_site(self, planner_job: PlannerJob):
        """Call out to the external site selector (GRUBER)."""
        job = planner_job.job
        replica_bytes = (self._replica_bytes(planner_job)
                         if self.data_aware else {})
        if self.decision_point is None:
            # No broker configured: Euryale's own fallback (replica-
            # richest site when data-aware, random otherwise).
            if replica_bytes:
                self.data_aware_hits += 1
                return max(replica_bytes, key=replica_bytes.get)
            return self.fallback.select_any(self.grid.site_names)
        ev = self.network.rpc(self.origin, self.decision_point, "get_state",
                              {"vo": job.vo, "cpus": job.cpus})
        race = self.sim.any_of([ev, self.sim.timeout(self.selector_timeout_s)])
        try:
            yield race
        except RpcError:
            return self.fallback.select_any(self.grid.site_names)
        if not ev.triggered:
            # Selector timeout: Euryale proceeds with a random site.
            return self.fallback.select_any(self.grid.site_names)
        availabilities = ev.value
        site = None
        if replica_bytes:
            # Prefer a replica-holding site with capacity: most resident
            # bytes first, estimated free CPUs as the tie-breaker.
            fitting = [s for s in replica_bytes
                       if availabilities.get(s, 0.0) >= job.cpus]
            if fitting:
                site = max(fitting, key=lambda s: (replica_bytes[s],
                                                   availabilities[s]))
                self.data_aware_hits += 1
        if site is None:
            site = self.selector.select(availabilities, job.cpus)
        if site is None:  # nothing fits: the most-free site, first on ties
            site = availabilities.names[int(availabilities.free.argmax())]
        report = self.network.rpc(self.origin, self.decision_point,
                                  "report_dispatch",
                                  {"site": site, "vo": job.vo,
                                   "cpus": job.cpus})
        try:
            yield report
        except RpcError:
            pass
        return site

    # -- postscript ----------------------------------------------------------
    def _postscript(self, planner_job: PlannerJob):
        job = planner_job.job
        # "Transfers output files to the collection area, registers
        # produced files ... and updates file popularity."
        for spec in planner_job.outputs:
            yield from self._transfer(job.site, job.vo, spec.size_mb)
            self.catalog.register(spec.lfn, self.collection_site)
            self.catalog.touch(spec.lfn)
        # "Checks on successful job execution."
        if job.completed_at is None:
            raise RuntimeError(f"postscript: job {job.jid} has no completion")

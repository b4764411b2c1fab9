"""Grid construction: Grid3-scale presets and the paper's 10x emulation.

Grid3/OSG at the time of the paper comprised on the order of 30 sites
and ~4500 CPUs; the paper's emulated environment is "approximately ten
times larger" — hundreds of sites representing tens of thousands of
nodes, "based on Grid3 configuration settings in terms of CPU counts,
network connectivity, etc."  Site sizes here follow a heavy-tailed
(lognormal) distribution normalized to the requested CPU total, which
matches the few-big-many-small shape of Grid3's published site list.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional

import numpy as np

from repro.grid.site import Cluster, Site, snapshot_sites
from repro.grid.vo import VORegistry
from repro.sim.kernel import Simulator

__all__ = ["Grid", "GridBuilder", "SiteIndex"]


class SiteIndex:
    """Static site knowledge: column order, name -> column, capacities.

    The paper's dissemination model (§2.5) gives every decision point
    "complete static knowledge about available resources", so a grid
    builds this once and every decision point's view shares it; only
    usage is per view.  Never mutated: a view that learns more sites
    builds a new index.
    """

    __slots__ = ("names", "col", "caps", "capacities")

    def __init__(self, capacities: Mapping[str, int]):
        self.names: tuple[str, ...] = tuple(capacities)
        self.col: dict[str, int] = {s: i for i, s in enumerate(self.names)}
        self.caps: tuple[int, ...] = tuple(capacities.values())
        #: Read-only ``{site: CPUs}``.
        self.capacities = MappingProxyType(dict(capacities))


@dataclass
class Grid:
    """A built grid: sites plus the participating VO hierarchy.

    Maintains an incrementally-updated free-CPU vector (hooked into
    every site's start/complete callbacks) so the per-dispatch
    ground-truth lookup — the Accuracy metric needs one per job — is
    one array read (:meth:`free_at`).
    """

    sites: dict[str, Site]
    vos: VORegistry
    name: str = "grid"
    #: The static knowledge every decision point's view shares.
    site_index: SiteIndex = field(init=False, repr=False)
    _site_list: list[Site] = field(default_factory=list, repr=False)
    _free: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        self._site_list = list(self.sites.values())
        self.site_index = SiteIndex(
            {s.name: s.total_cpus for s in self._site_list})
        self._free = np.array([s.total_cpus for s in self._site_list],
                              dtype=np.int64)
        for site in self._site_list:
            site.on_job_started.append(self._on_job_started)
            site.on_job_completed.append(self._on_job_ended)

    def _on_job_started(self, job) -> None:
        self._free[self.site_index.col[job.site]] -= job.cpus

    def _on_job_ended(self, job) -> None:
        # Fires for completions and failures; only jobs that actually
        # started had consumed CPUs (dispatch-time rejections did not).
        if job.started_at is not None:
            self._free[self.site_index.col[job.site]] += job.cpus

    @property
    def site_names(self) -> tuple[str, ...]:
        """Site names in build order — one tuple every holder shares (a
        k=10 fleet is 1,200 clients over 3,000 sites)."""
        return self.site_index.names

    @property
    def total_cpus(self) -> int:
        return sum(s.total_cpus for s in self._site_list)

    def site(self, name: str) -> Site:
        try:
            return self.sites[name]
        except KeyError:
            raise KeyError(f"unknown site {name!r}") from None

    def free_at(self, site: str) -> int:
        """Ground-truth free CPUs at one site (cached, O(1))."""
        return int(self._free[self.site_index.col[site]])

    def snapshot(self) -> dict[str, dict]:
        """Full monitoring snapshot (what a site monitor sweep returns)."""
        return {s.name: s.snapshot() for s in self._site_list}

    def snapshot_state(self) -> dict:
        """Canonical site state for snapshot digests, sites in name
        order (:func:`~repro.grid.site.snapshot_sites`)."""
        return snapshot_sites(self.sites[name] for name in sorted(self.sites))

    def __len__(self) -> int:
        return len(self.sites)


class GridBuilder:
    """Deterministic factory for emulated grids."""

    def __init__(self, sim: Simulator, rng: np.random.Generator):
        self.sim = sim
        self.rng = rng

    def build(self, n_sites: int, total_cpus: int, n_vos: int = 10,
              groups_per_vo: int = 10, users_per_group: int = 5,
              min_site_cpus: int = 8, name: str = "grid",
              size_sigma: float = 0.9, backfill: bool = False) -> Grid:
        """Construct a grid with heavy-tailed site sizes summing to target.

        The paper's emulated environment (ten times Grid3: 300 sites,
        40,000 CPUs) is ``ExperimentConfig``'s default.
        """
        if n_sites < 1:
            raise ValueError("need at least one site")
        if total_cpus < n_sites * min_site_cpus:
            raise ValueError(
                f"total_cpus={total_cpus} cannot give {n_sites} sites at "
                f">= {min_site_cpus} CPUs each")
        weights = self.rng.lognormal(0.0, size_sigma, size=n_sites)
        raw = weights / weights.sum() * (total_cpus - n_sites * min_site_cpus)
        cpu_counts = np.floor(raw).astype(np.int64) + min_site_cpus
        # Distribute the rounding remainder to the largest sites.
        shortfall = total_cpus - int(cpu_counts.sum())
        order = np.argsort(-cpu_counts)
        for i in range(shortfall):
            cpu_counts[order[i % n_sites]] += 1

        sites: dict[str, Site] = {}
        for i in range(n_sites):
            site_name = f"{name}-site{i:03d}"
            cpus = int(cpu_counts[i])
            # Split big sites into a few clusters (cosmetic fidelity to
            # the paper: "each site is composed of one or more clusters").
            n_clusters = 1 if cpus < 128 else int(self.rng.integers(1, 4))
            per = cpus // n_clusters
            clusters = [Cluster(f"{site_name}-c{j}", per) for j in range(n_clusters)]
            leftover = cpus - per * n_clusters
            if leftover:
                clusters[0] = Cluster(clusters[0].name, clusters[0].cpus + leftover)
            sites[site_name] = Site(self.sim, site_name, clusters,
                                    backfill=backfill)

        vos = VORegistry()
        for v in range(n_vos):
            vos.create(f"vo{v}", n_groups=groups_per_vo,
                       users_per_group=users_per_group)
        return Grid(sites=sites, vos=vos, name=name)

    def uniform(self, n_sites: int, cpus_per_site: int,
                name: str = "uniform", **overrides) -> Grid:
        """Equal-size sites — handy for analytically-checkable tests."""
        grid = self.build(n_sites=n_sites, total_cpus=n_sites * cpus_per_site,
                          min_site_cpus=cpus_per_site, size_sigma=0.0,
                          name=name, **overrides)
        return grid

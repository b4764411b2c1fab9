"""Composite workload generation.

One :class:`HostWorkload` is the deterministic job stream of one
submission host: arrival times (the paper's fixed one-job-per-second
cadence, optionally Poisson), and per-job VO/group/user assignments and
attributes, all pre-drawn as numpy arrays (vectorized per the HPC
guides) with :class:`~repro.grid.job.Job` objects materialized lazily
as the simulation consumes them.  A job's VO/group/user is one small
integer into an ``(vo, group, user)`` table the whole fleet shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from repro.grid.job import Job
from repro.grid.vo import VORegistry
from repro.workloads.models import JobModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.profiles import ArrivalProfile

__all__ = ["HostWorkload", "WorkloadGenerator"]

#: One job's ``(vo, group, user)``.
Identity = tuple[str, str, str]


def _narrow(values: np.ndarray, largest: int) -> np.ndarray:
    """``values`` (all in ``[0, largest]``) in the smallest unsigned dtype."""
    return np.asarray(values).astype(np.min_scalar_type(max(largest, 0)))


@dataclass
class HostWorkload:
    """Pre-generated job stream for one submission host.

    Job ``i`` is ``identities[identity[i]]``, ``cpus[i]``,
    ``durations[i]``, submitted at ``arrivals[i]``.  ``identities`` is
    shared by every workload of a fleet, so a host costs its columns
    (``identity`` and ``cpus`` in their smallest unsigned dtype) and
    nothing per job beyond them.
    """

    host: str
    arrivals: np.ndarray       # absolute submission times, seconds
    identity: np.ndarray       # per job: index into ``identities``
    identities: tuple[Identity, ...]
    cpus: np.ndarray
    durations: np.ndarray
    #: When set, job ``index`` gets ``jid_base + index`` instead of the
    #: process-global counter — run-deterministic ids, so artifacts
    #: that embed jids (span exports) are byte-identical across runs.
    jid_base: Optional[int] = None

    def __post_init__(self) -> None:
        # The client derives its backlog with ``searchsorted`` over this
        # array, so an out-of-order arrival must fail here, by name.
        if len(self.arrivals) > 1 and np.any(np.diff(self.arrivals) < 0):
            raise ValueError(
                f"HostWorkload {self.host!r}: arrivals must be "
                f"non-decreasing (first drop at index "
                f"{int(np.argmax(np.diff(self.arrivals) < 0)) + 1})")
        n = len(self.arrivals)
        for name in ("identity", "cpus", "durations"):
            if len(getattr(self, name)) != n:
                raise ValueError(
                    f"HostWorkload {self.host!r}: {name} has "
                    f"{len(getattr(self, name))} entries for {n} arrivals")
        if n and (int(self.identity.min()) < 0
                  or int(self.identity.max()) >= len(self.identities)):
            raise ValueError(
                f"HostWorkload {self.host!r}: identity index out of range "
                f"for a table of {len(self.identities)}")
        # A bad job attribute fails here, by host — not mid-run in
        # ``Job.__post_init__``, and not wrapped by the narrowing.
        for name, low, ok in (("cpus", ">= 1", lambda v: v >= 1),
                              ("durations", "> 0", lambda v: v > 0)):
            if n and not ok(np.min(getattr(self, name))):
                raise ValueError(f"HostWorkload {self.host!r}: {name} entries "
                                 f"must be {low}")
        self.cpus = _narrow(self.cpus, int(np.max(self.cpus)) if n else 0)

    def __len__(self) -> int:
        return len(self.arrivals)

    def job_at(self, index: int) -> Job:
        """Materialize the index-th job (lazily, at its arrival)."""
        vo, group, user = self.identities[self.identity[index]]
        job = Job(
            vo=vo,
            group=group,
            user=user,
            cpus=int(self.cpus[index]),
            duration_s=float(self.durations[index]),
            submission_host=self.host,
        )
        if self.jid_base is not None:
            job.jid = self.jid_base + index
        return job

    def __iter__(self) -> Iterator[tuple[float, int]]:
        """Yield (arrival_time, index) pairs in time order."""
        for i, t in enumerate(self.arrivals):
            yield float(t), i


class WorkloadGenerator:
    """Builds composite workloads over the VO hierarchy.

    Parameters
    ----------
    vos:
        The VO registry of the target grid (jobs are spread across all
        VOs and groups — the paper's "composite workloads that overlay
        work for [10] VOs and [10] groups per VO").
    model:
        Job attribute distributions.
    rng:
        Named stream from the experiment's :class:`RngRegistry`.
    """

    def __init__(self, vos: VORegistry, model: JobModel,
                 rng: np.random.Generator):
        if len(vos) == 0:
            raise ValueError("VO registry is empty")
        self.vos = vos
        self.model = model
        self.rng = rng
        # Flatten the hierarchy once: the identity table every workload
        # this generator makes indexes into.
        triples: list[Identity] = []
        for vo in vos:
            for group in vo.groups.values():
                if group.users:
                    for user in group.users:
                        triples.append((vo.name, group.name, user.name))
                else:
                    triples.append((vo.name, group.name,
                                    f"{group.name}-anon"))
        if not triples:
            raise ValueError("VO registry has no groups")
        self.identities: tuple[Identity, ...] = tuple(triples)

    def host_workload(self, host: str, duration_s: float,
                      interarrival_s: float = 1.0,
                      start_s: float = 0.0,
                      poisson: bool = False,
                      diurnal_amplitude: float = 0.0,
                      diurnal_period_s: float = 86400.0,
                      profile: Optional["ArrivalProfile"] = None
                      ) -> HostWorkload:
        """The job stream one submission host issues during the run.

        Fixed cadence by default ("jobs were submitted every second
        from a submission host"); ``poisson=True`` draws exponential
        gaps with the same mean instead.  ``diurnal_amplitude`` in
        ``[0, 1)`` thins arrivals sinusoidally over ``diurnal_period_s``
        (production grids see strong day/night submission cycles) —
        mean rate is preserved at the peak, and off-peak arrivals are
        dropped with probability ``amplitude * (1 - cos) / 2``.

        ``profile`` (an :class:`~repro.workloads.profiles.ArrivalProfile`)
        overrides the shape knobs wholesale and adds periodic burst
        windows: arrivals are drawn dense at ``interarrival /
        burst_factor`` and thinned to the base rate outside bursts.
        """
        burst_factor, burst_period_s, burst_duty = 1.0, 0.0, 0.25
        if profile is not None:
            resolved = profile.resolve(duration_s)
            poisson = resolved.poisson
            interarrival_s = interarrival_s * resolved.interarrival_scale
            diurnal_amplitude = resolved.diurnal_amplitude
            if resolved.diurnal_period_s > 0:
                diurnal_period_s = resolved.diurnal_period_s
            burst_factor = resolved.burst_factor
            burst_period_s = resolved.burst_period_s
            burst_duty = resolved.burst_duty
        if duration_s <= 0 or interarrival_s <= 0:
            raise ValueError("duration_s and interarrival_s must be > 0")
        if not (0.0 <= diurnal_amplitude < 1.0):
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if burst_factor > 1.0 and burst_period_s > 0:
            # Dense draw at the in-burst rate; off-burst arrivals are
            # thinned back down to the base rate below.
            interarrival_s = interarrival_s / burst_factor
        if poisson:
            # Draw enough exponential gaps to cover the window.
            est = int(duration_s / interarrival_s * 1.5) + 10
            gaps = self.rng.exponential(interarrival_s, size=est)
            arrivals = start_s + np.cumsum(gaps)
            arrivals = arrivals[arrivals < start_s + duration_s]
        else:
            arrivals = start_s + np.arange(0.0, duration_s, interarrival_s)
        if diurnal_amplitude > 0.0 and len(arrivals):
            phase = 2.0 * np.pi * arrivals / diurnal_period_s
            drop_p = diurnal_amplitude * (1.0 - np.cos(phase)) / 2.0
            keep = self.rng.random(len(arrivals)) >= drop_p
            arrivals = arrivals[keep]
        if burst_factor > 1.0 and burst_period_s > 0 and len(arrivals):
            in_burst = (arrivals % burst_period_s) < \
                burst_duty * burst_period_s
            keep = in_burst | \
                (self.rng.random(len(arrivals)) < 1.0 / burst_factor)
            arrivals = arrivals[keep]
        n = len(arrivals)
        picks = self.rng.integers(0, len(self.identities), size=n)
        return HostWorkload(
            host=host,
            arrivals=arrivals,
            identity=_narrow(picks, len(self.identities) - 1),
            identities=self.identities,
            cpus=self.model.draw_cpus(self.rng, n),
            durations=self.model.draw_durations(self.rng, n),
        )

    def fleet(self, hosts: Sequence[str], duration_s: float,
              interarrival_s: float = 1.0,
              start_offsets: Optional[dict[str, float]] = None,
              poisson: bool = False,
              profile: Optional["ArrivalProfile"] = None
              ) -> dict[str, HostWorkload]:
        """Workloads for a whole client fleet (DiPerF ramps set offsets)."""
        offsets = start_offsets or {}
        return {
            h: self.host_workload(h, duration_s=duration_s,
                                  interarrival_s=interarrival_s,
                                  start_s=offsets.get(h, 0.0),
                                  poisson=poisson, profile=profile)
            for h in hosts
        }

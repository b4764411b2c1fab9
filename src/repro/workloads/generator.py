"""Composite workload generation.

One :class:`HostWorkload` is one submission host's deterministic job
stream: arrival times (a :class:`Lattice` at the paper's fixed cadence,
else a sorted array) and per-job attributes, as a cursor, not columns:
the build makes every draw on the shared ``workload`` stream in its
historical order but keeps only the position before each attribute
block; ``job_at`` redraws a window from there (a host brokers a few per
cent of what it submits) and resolves ``(vo, group, user)`` in a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

import numpy as np

from repro.grid.job import Job
from repro.grid.vo import VORegistry
from repro.workloads.models import JobModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.profiles import ArrivalProfile

__all__ = ["HostWorkload", "Lattice", "WorkloadGenerator"]

#: One job's ``(vo, group, user)``.
Identity = tuple[str, str, str]

#: A generated workload's attribute blocks, in stream order.
_COLUMNS = ("identity", "cpus", "durations")
#: Jobs redrawn on the first miss; each forward miss doubles it, to a cap.
_WINDOW_FIRST, _WINDOW_CAP = 16, 64
#: Arrivals one host may draw: the build draws each attribute block
#: whole (8 bytes a job), so 10M arrivals is 80 MB a block — 115 days
#: of the paper's 1 job/s.
MAX_ARRIVALS_PER_HOST = 10_000_000


def _check_column(host: str, name: str, values, n: int, n_ids: int):
    """A bad job attribute fails at construction, by host and column — not
    mid-run in ``job_at`` or ``Job``, and not hidden by the narrowing."""
    values = np.asarray(values)
    if len(values) != n:
        problem = f"has {len(values)} entries for {n} arrivals"
    elif name != "durations" and values.dtype.kind not in "iu":
        problem = f"entries must be integers, got {values.dtype}"
    elif name == "identity" and not np.all((0 <= values) & (values < n_ids)):
        problem = f"index out of range for a table of {n_ids}"
    elif name == "cpus" and np.any(values < 1):
        problem = "entries must be >= 1"
    elif name == "durations" and not np.all((0 < values) & (values < np.inf)):
        problem = "entries must be finite and > 0"
    else:
        return
    raise ValueError(f"HostWorkload {host!r}: {name} {problem}")


class Lattice:
    """Steady arrivals, ``start + i * step`` for ``i < n``: bit-identical
    to ``start + np.arange(0.0, span, step)``, without the array."""

    __slots__ = ("start", "step", "n")

    def __init__(self, start: float, step: float, n: int):
        self.start, self.step, self.n = float(start), float(step), int(n)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            lo, hi, stride = i.indices(self.n)
            if lo or stride != 1:
                raise IndexError("a Lattice slices only as a prefix")
            return Lattice(self.start, self.step, max(hi, 0))
        if not -self.n <= i < self.n:
            raise IndexError(f"arrival {i} of {self.n}")
        return self.start + (i % self.n) * self.step

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.start + np.arange(self.n) * self.step, dtype)

    def searchsorted(self, t: float, side: str = "left") -> int:
        """Exactly ``np.searchsorted``: an inverse estimate, then a fix-up."""
        start, step, n = self.start, self.step, self.n
        x = (t - start) / step
        i = n if not x < n else int(x) if x > 0.0 else 0  # NaN: n
        if side == "right":  # arrivals at or before t
            while i < n and start + i * step <= t:
                i += 1
            while i > 0 and start + (i - 1) * step > t:
                i -= 1
        else:
            while i < n and start + i * step < t:
                i += 1
            while i > 0 and start + (i - 1) * step >= t:
                i -= 1
        return i


@dataclass(eq=False)
class HostWorkload:
    """One host's job stream: job ``i`` is ``identities[identity[i -
    lo]]``, ``cpus[i - lo]``, ``durations[i - lo]``, arriving at
    ``arrivals[i]``.  Explicit columns (tests, trace hosts) are one window
    over the whole stream; a generated workload redraws its window from
    ``source`` on a miss — from where it ended, or from ``marks``."""

    host: str
    arrivals: Union[Lattice, np.ndarray]  # absolute submission times, s
    identity: np.ndarray        # per job: index into ``identities``
    identities: tuple[Identity, ...]  # shared by every host of a fleet
    cpus: np.ndarray
    durations: np.ndarray
    #: When set, job ``index`` gets ``jid_base + index`` instead of the
    #: process-global counter — run-deterministic ids, so artifacts
    #: that embed jids (span exports) are byte-identical across runs.
    jid_base: Optional[int] = None
    source: Optional["WorkloadGenerator"] = None
    marks: tuple = ()

    def __post_init__(self) -> None:
        # The client's ``searchsorted`` needs sorted, finite arrivals.
        a = () if isinstance(self.arrivals, Lattice) else self.arrivals
        for what, bad in (("finite", ~np.isfinite(a)),
                          ("non-decreasing", np.diff(a, prepend=a[:1]) < 0)):
            if np.any(bad):
                raise ValueError(f"HostWorkload {self.host!r}: arrivals must "
                                 f"be {what} (first bad at index "
                                 f"{int(np.argmax(bad))})")
        self._lo, self._k, self._at = 0, _WINDOW_FIRST, self.marks
        if self.source is not None:
            return  # its drawn blocks were checked at build
        for name in _COLUMNS:
            _check_column(self.host, name, getattr(self, name),
                          len(self.arrivals), len(self.identities))
        # Stored in the smallest unsigned dtype, read back as ``int``.
        self.cpus = np.asarray(self.cpus).astype(
            np.min_scalar_type(int(np.max(self.cpus, initial=0))))

    def __len__(self) -> int:
        return len(self.arrivals)

    def job_at(self, index: int) -> Job:
        """Materialize the index-th job (lazily, at its arrival)."""
        j = index - self._lo
        if not 0 <= j < len(self.durations):
            j = self._refill(index)
        vo, group, user = self.identities[self.identity[j]]
        job = Job(
            vo=vo,
            group=group,
            user=user,
            cpus=int(self.cpus[j]),
            duration_s=float(self.durations[j]),
            submission_host=self.host,
        )
        if self.jid_base is not None:
            job.jid = self.jid_base + index
        return job

    def _refill(self, index: int) -> int:
        """Redraw the window onto job ``index``; its offset in it."""
        if self.source is None or not 0 <= index < len(self):
            raise IndexError(f"HostWorkload {self.host!r}: no job {index}")
        if index < self._lo:  # backward: restart from the build marks
            self._lo, self._k, self._at = 0, _WINDOW_FIRST, self.marks
            self.durations = ()
        while index >= self._lo + len(self.durations):
            self._lo += len(self.durations)
            k = min(self._k, len(self) - self._lo)
            (self.identity, self.cpus, self.durations), self._at = \
                self.source.redraw(self._at, k)
            self._k = min(2 * self._k, _WINDOW_CAP)
        return index - self._lo

    def __iter__(self) -> Iterator[tuple[float, int]]:
        """Yield (arrival_time, index) pairs in time order."""
        for i, t in enumerate(self.arrivals):
            yield float(t), i


def _tell(bit_generator) -> tuple[int, int]:
    """A PCG64 position: its 128-bit state and 32-bit buffer (-1: none)."""
    s = bit_generator.state
    return s["state"]["state"], s["uinteger"] if s["has_uint32"] else -1


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
        Named PCG64 stream from the experiment's :class:`RngRegistry`.
    """

    def __init__(self, vos: VORegistry, model: JobModel,
                 rng: np.random.Generator):
        if len(vos) == 0:
            raise ValueError("VO registry is empty")
        self.vos = vos
        self.model = model
        self.rng = rng
        state = rng.bit_generator.state
        if state["bit_generator"] != "PCG64":
            raise TypeError(f"WorkloadGenerator needs a PCG64 stream, got "
                            f"{state['bit_generator']}")
        # The stream's increment, and the one generator redraws run on.
        self._inc = state["state"]["inc"]
        self._scratch = np.random.Generator(np.random.PCG64(0))
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
        if duration_s / interarrival_s > MAX_ARRIVALS_PER_HOST:
            raise ValueError(
                f"duration_s={duration_s:g} asks host {host} for "
                f"{duration_s / interarrival_s:.3g} arrivals; the bound is "
                f"{MAX_ARRIVALS_PER_HOST:,} arrivals per host")
        if poisson:
            # Draw enough exponential gaps to cover the window.
            est = int(duration_s / interarrival_s * 1.5) + 10
            gaps = self.rng.exponential(interarrival_s, size=est)
            arrivals = start_s + np.cumsum(gaps)
            arrivals = arrivals[arrivals < start_s + duration_s]
        else:
            arrivals = Lattice(start_s, interarrival_s,
                               np.ceil(duration_s / interarrival_s))
        if diurnal_amplitude > 0.0 and len(arrivals):
            arrivals = np.asarray(arrivals)
            phase = 2.0 * np.pi * arrivals / diurnal_period_s
            drop_p = diurnal_amplitude * (1.0 - np.cos(phase)) / 2.0
            keep = self.rng.random(len(arrivals)) >= drop_p
            arrivals = arrivals[keep]
        if burst_factor > 1.0 and burst_period_s > 0 and len(arrivals):
            arrivals = np.asarray(arrivals)
            in_burst = (arrivals % burst_period_s) < \
                burst_duty * burst_period_s
            keep = in_burst | \
                (self.rng.random(len(arrivals)) < 1.0 / burst_factor)
            arrivals = arrivals[keep]
        # Each block is drawn whole, so the shared stream ends where later
        # hosts and the ``rng`` snapshot expect; it is checked, then dropped.
        marks, n = [], len(arrivals)
        for name in _COLUMNS:
            marks.append(_tell(self.rng.bit_generator))
            block = self._block(name, self.rng, n)
            _check_column(host, name, block, n, len(self.identities))
        return HostWorkload(host, arrivals, (), self.identities, (), (),
                            source=self, marks=tuple(marks))

    def _block(self, name: str, rng, n: int) -> np.ndarray:
        """``n`` draws of one attribute column, at build and on redraw."""
        if name == "identity":
            return rng.integers(0, len(self.identities), size=n)
        return (self.model.draw_cpus if name == "cpus"
                else self.model.draw_durations)(rng, n)

    def redraw(self, marks, k: int) -> tuple[list[np.ndarray], tuple]:
        """The ``k`` jobs' columns from ``marks`` on, and the marks after
        them: bit for bit that stretch of the one-shot build draw."""
        bit_generator, columns, after = self._scratch.bit_generator, [], []
        for name, (state, buffered) in zip(_COLUMNS, marks):
            bit_generator.state = {
                "bit_generator": "PCG64", "has_uint32": int(buffered >= 0),
                "state": {"state": state, "inc": self._inc},
                "uinteger": max(buffered, 0)}
            columns.append(self._block(name, self._scratch, k))
            after.append(_tell(bit_generator))
        return columns, tuple(after)

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

"""Site selectors: task-assignment policies.

"Site selectors are tools that communicate with the GRUBER engine and
provide answers to the question: which is the best site at which I can
run this job?  Site selectors can implement various task assignment
policies, such as round robin, least used, or least recently used."

Selectors run *client-side* in DI-GRUBER: the client fetches the
availability view from its decision point and applies its policy
locally (paper §3.7: the tester "executes site selector logic to
determine the site to which the job should be dispatched").  Policies
run on the view's float64 ``free`` column and materialise one name,
bit-identically to a dict scan (determinism rules: DESIGN.md §9.3).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.core.state import as_view

_max = np.maximum.reduce

__all__ = [
    "SiteSelector",
    "RandomSelector",
    "RoundRobinSelector",
    "LeastUsedSelector",
    "LeastRecentlyUsedSelector",
    "make_selector",
]


class SiteSelector(ABC):
    """Maps an availability view to a site choice for one job."""

    def select(self, availabilities, cpus: int) -> Optional[str]:
        """Pick a site with >= ``cpus`` estimated free CPUs (a plain
        mapping is coerced to a view).  None when no site fits — callers
        fall back to :meth:`RandomSelector.least_bad` or random placement.
        """
        view = as_view(availabilities)
        i = self._pick(view, cpus)
        return None if i is None else view.names[i]

    @abstractmethod
    def _pick(self, view, cpus: int) -> Optional[int]:
        """The policy: column index of the chosen site, None if none fits."""


class RandomSelector(SiteSelector):
    """Uniform random among fitting sites (also the timeout fallback)."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def _pick(self, view, cpus: int) -> Optional[int]:
        fitting = np.flatnonzero(view.free >= cpus)
        if not len(fitting):
            return None
        return fitting[int(self.rng.integers(0, len(fitting)))]

    def select_any(self, sites):
        """Uniform pick from any sequence (names or indexes); always draws."""
        if not len(sites):
            raise ValueError("no sites to select from")
        return sites[int(self.rng.integers(0, len(sites)))]

    def least_bad(self, availabilities) -> str:
        """Nothing fits: a most-free site, ties (e.g. a fully USLA-
        filtered view) broken randomly so the fallback stream spreads."""
        view = as_view(availabilities)
        top = np.flatnonzero(view.free >= view.free.max() - 1e-9)
        return view.names[self.select_any(top)]


class RoundRobinSelector(SiteSelector):
    """Cycle through fitting sites in stable name order."""

    def __init__(self) -> None:
        self._cursor = 0
        self._names: Optional[tuple] = None  # whose sorted order _perm caches

    def _pick(self, view, cpus: int) -> Optional[int]:
        if view.names is not self._names:
            self._names = names = view.names
            self._perm = np.array(
                sorted(range(len(names)), key=names.__getitem__), np.intp)
        fitting = self._perm[(view.free >= cpus)[self._perm]]
        if not len(fitting):
            return None
        self._cursor += 1
        return fitting[(self._cursor - 1) % len(fitting)]


class LeastUsedSelector(SiteSelector):
    """Most estimated free CPUs wins, randomized within ``spread``.

    ``spread`` picks uniformly among fitting sites whose estimated free
    capacity is at least ``spread * best`` — at 1.0 this is strict
    argmax with random tie-breaking; below 1.0 it decorrelates the many
    independent selectors of a distributed deployment, which would
    otherwise herd onto the same top-ranked site between sync rounds.
    This is the selector the scalability experiments use.
    """

    def __init__(self, rng: np.random.Generator, spread: float = 1.0):
        if not (0.0 < spread <= 1.0):
            raise ValueError(f"spread must be in (0, 1], got {spread}")
        self.rng = rng
        self.spread = spread

    def _pick(self, view, cpus: int) -> Optional[int]:
        free = view.free
        # The ufuncs themselves (``free.max`` and ``np.flatnonzero`` are
        # Python wrappers around them): the same values, fewer frames.
        best = _max(free, initial=-np.inf)  # best *fitting* value iff any fits
        if best < cpus:
            return None
        # One mask: ``free >= cpus and free >= spread * best`` is one bound.
        top = (free >= max(cpus, self.spread * best)).nonzero()[0]
        if len(top) == 1:  # no draw: the rng sequence is part of the contract
            return top[0]
        return top[int(self.rng.integers(0, len(top)))]


class LeastRecentlyUsedSelector(SiteSelector):
    """Prefer the fitting site this selector has not chosen for longest."""

    def __init__(self) -> None:
        self._last_used: dict[str, int] = {}
        self._tick = 0

    def _pick(self, view, cpus: int) -> Optional[int]:
        fitting = np.flatnonzero(view.free >= cpus).tolist()
        if not fitting:
            return None
        names = view.names
        i = min(fitting,
                key=lambda i: (self._last_used.get(names[i], -1), names[i]))
        self._tick += 1
        self._last_used[names[i]] = self._tick
        return i


_SELECTORS = {
    "random": RandomSelector,
    "round_robin": RoundRobinSelector,
    "least_used": LeastUsedSelector,
    "lru": LeastRecentlyUsedSelector,
}


def make_selector(name: str, rng: Optional[np.random.Generator] = None
                  ) -> SiteSelector:
    """Factory by policy name; rng required for stochastic policies."""
    try:
        cls = _SELECTORS[name]
    except KeyError:
        raise ValueError(f"unknown selector {name!r}; "
                         f"expected one of {sorted(_SELECTORS)}") from None
    if cls in (RoundRobinSelector, LeastRecentlyUsedSelector):
        return cls()
    if rng is None:
        raise ValueError(f"selector {name!r} needs an rng")
    if cls is RandomSelector:
        return cls(rng)
    return cls(rng, spread=0.85)  # the herd-avoidance window every run uses

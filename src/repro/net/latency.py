"""One-way message latency models.

The paper deployed DI-GRUBER on PlanetLab, where node-to-node message
latencies are "in the 100s of milliseconds" once SOAP payloads are
involved.  :class:`PairwiseWanLatency` models that regime: each ordered
node pair gets a stable base latency drawn once from a lognormal
distribution (geography does not change during a run), and every
message adds lognormal jitter (cross traffic).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable

import numpy as np

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "LanLatency",
    "PairwiseWanLatency",
    "WAN_MEDIAN_MS",
]

#: Median base one-way WAN latency every experiment runs with.
WAN_MEDIAN_MS = 60.0
#: Standard normals :class:`PairwiseWanLatency` draws at a time.
_BLOCK = 1024


class LatencyModel(ABC):
    """Maps an ordered endpoint pair to a one-way delay in seconds."""

    @abstractmethod
    def sample(self, src: Hashable, dst: Hashable) -> float:
        """One-way latency for one message from ``src`` to ``dst``."""

    def rtt(self, a: Hashable, b: Hashable) -> float:
        """One sampled round trip (two independent one-way draws)."""
        return self.sample(a, b) + self.sample(b, a)

    def snapshot_state(self) -> dict:
        """Draw state outside the RNG streams, for snapshot digests."""
        return {}


class ConstantLatency(LatencyModel):
    """Fixed one-way delay; useful for tests and analytic validation."""

    def __init__(self, value: float):
        if value < 0:
            raise ValueError(f"latency must be >= 0, got {value}")
        self.value = value

    def sample(self, src: Hashable, dst: Hashable) -> float:
        return self.value


class LanLatency(ConstantLatency):
    """Sub-millisecond LAN delay (the paper's suggested tighter coupling)."""

    def __init__(self, value: float = 0.0002):
        super().__init__(value)


class PairwiseWanLatency(LatencyModel):
    """PlanetLab-like WAN latency.

    Parameters
    ----------
    rng:
        Source of randomness (a named stream from ``RngRegistry``).
    median_ms:
        Median *base* one-way latency between two nodes.  PlanetLab
        pings cluster around 40-80 ms; every experiment runs with
        :data:`WAN_MEDIAN_MS` (SOAP payload transfer is modelled
        separately, by ``Network.kb_transfer_s``).
    sigma:
        Lognormal shape for the base latency draw (pair diversity).
    jitter_frac:
        Per-message multiplicative jitter: each message's latency is
        ``base * (1 + Lognormal(0, jitter_sigma) * jitter_frac)``-like;
        implemented as base times a lognormal with unit median.
    """

    def __init__(self, rng: np.random.Generator,
                 median_ms: float = WAN_MEDIAN_MS,
                 sigma: float = 0.6, jitter_sigma: float = 0.15):
        # ``not x > 0`` / ``not x >= 0`` refuse NaN too.
        if not median_ms > 0:
            raise ValueError(f"median_ms must be > 0, got {median_ms}")
        for name, value in (("sigma", sigma), ("jitter_sigma", jitter_sigma)):
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        self.rng = rng
        self.median_s = median_ms / 1000.0
        self.sigma = sigma
        self.jitter_sigma = jitter_sigma
        self._base: dict[tuple[Hashable, Hashable], float] = {}
        # The stream's standard normals, ``_BLOCK`` at a time, with each
        # one's jitter factor beside it; ``_pos`` is the next unread one.
        # A scalar ``rng.normal(0, s)`` is ``s * z`` on the same ``z``,
        # so every draw equals the one-at-a-time model's.
        self._z: list[float] = []
        self._jit: list[float] = []
        self._pos = 0

    def _refill(self) -> None:
        z = self.rng.standard_normal(_BLOCK)
        self._z, self._jit = z.tolist(), np.exp(self.jitter_sigma * z).tolist()
        self._pos = 0

    def _next(self) -> int:
        """Index of the next unread normal, drawing a block when spent."""
        if self._pos == len(self._z):
            self._refill()
        self._pos += 1
        return self._pos - 1

    def snapshot_state(self) -> dict:
        """Where in its block of normals the model is (the stream's own
        state is in the registry's capture, already past the block)."""
        return {"block_pos": self._pos}

    def base_latency(self, src: Hashable, dst: Hashable) -> float:
        """The stable component for this pair, either direction: drawn
        once, kept under the direction of the pair's first message."""
        base = self._base.get((src, dst))
        if base is None:
            if src == dst:
                return 0.0
            base = self._base.get((dst, src))
            if base is None:
                i = self._next()
                base = self._base[src, dst] = self.median_s * float(
                    np.exp(self.sigma * self._z[i]))
        return base

    def sample(self, src: Hashable, dst: Hashable) -> float:
        # Inline the common case (a pair known under either direction)
        # and :meth:`_next`: this runs once per message.
        base = (self._base.get((src, dst)) or self._base.get((dst, src))
                or self.base_latency(src, dst))
        if base == 0.0:
            return 0.0
        i = self._pos
        if i == len(self._jit):
            self._refill()
            i = 0
        self._pos = i + 1  # before the read: a refill replaces the list
        return base * self._jit[i]

    def rtt(self, a: Hashable, b: Hashable) -> float:
        """``sample(a, b) + sample(b, a)`` in one frame: the pair's one
        base, then the same two jitter draws in the same order."""
        known = self._base
        base = (known.get((a, b)) or known.get((b, a))
                or self.base_latency(a, b))
        if base == 0.0:
            return 0.0
        i = self._pos
        if i == len(self._jit):
            self._refill()
            i = 0
        there = base * self._jit[i]  # before a refill replaces the list
        i += 1
        if i == len(self._jit):
            self._refill()
            i = 0
        self._pos = i + 1
        return there + base * self._jit[i]

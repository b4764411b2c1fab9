"""Job attribute distributions.

Grid3-era physics workloads (the paper's motivating load: LHC
experiment production) are dominated by single-CPU jobs with
heavy-tailed runtimes from minutes to hours.  The default model is
calibrated so the canonical experiment keeps the emulated 40k-CPU grid
in the tens-of-percent utilization band the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["JobModel"]


@dataclass(frozen=True)
class JobModel:
    """Distributions for per-job CPU count and runtime.

    Attributes
    ----------
    duration_mean_s:
        Mean job runtime (lognormal with shape ``duration_sigma``).
    duration_sigma:
        Lognormal shape; ~1.0 gives the minutes-to-hours spread of
        production physics workloads.
    cpu_choices / cpu_weights:
        Discrete CPU-count distribution; Grid3 jobs were predominantly
        single-CPU with a small multi-CPU tail.
    min_duration_s:
        Floor on runtimes (sub-second "jobs" are monitoring artifacts,
        not work).
    """

    duration_mean_s: float = 800.0
    duration_sigma: float = 1.0
    cpu_choices: tuple[int, ...] = (1, 2, 4, 8, 16)
    cpu_weights: tuple[float, ...] = (0.40, 0.25, 0.15, 0.12, 0.08)
    min_duration_s: float = 30.0

    def __post_init__(self):
        if self.duration_mean_s <= 0:
            raise ValueError("duration_mean_s must be > 0")
        if len(self.cpu_choices) != len(self.cpu_weights):
            raise ValueError("cpu_choices and cpu_weights length mismatch")
        if abs(sum(self.cpu_weights) - 1.0) > 1e-9:
            raise ValueError(f"cpu_weights must sum to 1, got {sum(self.cpu_weights)}")
        if any(c < 1 for c in self.cpu_choices):
            raise ValueError("cpu counts must be >= 1")

    def draw_durations(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Runtime draws with the requested *mean*, value by value like every
        draw here, so a redraw from a saved stream position is exact."""
        mu = np.log(self.duration_mean_s) - 0.5 * self.duration_sigma ** 2
        d = rng.lognormal(mu, self.duration_sigma, size=n)
        return np.maximum(d, self.min_duration_s)

    def draw_cpus(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(np.array(self.cpu_choices, dtype=np.int64), size=n,
                          p=np.array(self.cpu_weights))

    def scaled(self, duration_factor: float) -> "JobModel":
        """A copy with runtimes scaled (for scaled-down test configs)."""
        return JobModel(duration_mean_s=self.duration_mean_s * duration_factor,
                        duration_sigma=self.duration_sigma,
                        cpu_choices=self.cpu_choices,
                        cpu_weights=self.cpu_weights,
                        min_duration_s=min(self.min_duration_s,
                                           self.duration_mean_s * duration_factor / 4))

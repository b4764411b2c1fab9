"""Client resilience policies: retry with backoff and circuit breaking.

The paper's only client-side failure handling is the §4.3 timeout →
random-placement fallback: one shot at the bound decision point, then
forfeit the brokered placement.  This module supplies the machinery a
production client carries instead:

* **retry with exponential backoff + jitter** — a failed brokering
  attempt (timeout, remote error, shed) is retried up to
  ``max_attempts`` times, with deterministically-jittered delays drawn
  from the client's own RNG stream (the reproduction's determinism
  contract extends through the chaos path);
* **per-decision-point circuit breaker** — consecutive failures open
  the breaker, after which attempts fail *fast* (no burned timeout)
  until a cool-down expires and a half-open probe is allowed through.

Breakers are **per client, per decision point**: under an asymmetric
partition the same broker is dead for one host and healthy for
another, so shared state would be wrong by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

__all__ = ["ResilienceConfig", "CircuitBreaker"]


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the client-side resilience policies.

    ``attempt_timeout_s = 0`` means "use the client's configured
    brokering timeout" (the paper's 15 s), so enabling resilience does
    not silently change the per-attempt patience.
    """

    # Retry.
    max_attempts: int = 3
    attempt_timeout_s: float = 0.0
    backoff_base_s: float = 2.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0
    backoff_jitter: float = 0.5   # uniform extra, as a fraction of the delay

    # Circuit breaker.
    breaker_threshold: int = 3    # consecutive failures that open it
    breaker_open_s: float = 60.0  # cool-down before a half-open probe

    # Health-probe failover (see repro.resilience.failover).
    probe_interval_s: float = 20.0
    probe_timeout_s: float = 5.0
    probe_unhealthy_after: int = 2

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.attempt_timeout_s < 0:
            raise ValueError("attempt_timeout_s must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not (0.0 <= self.backoff_jitter <= 1.0):
            raise ValueError("backoff_jitter must be in [0, 1]")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_open_s < 0:
            raise ValueError("breaker_open_s must be >= 0")
        if self.probe_interval_s <= 0 or self.probe_timeout_s <= 0:
            raise ValueError("probe intervals must be > 0")
        if self.probe_unhealthy_after < 1:
            raise ValueError("probe_unhealthy_after must be >= 1")

    def backoff_delay(self, attempt: int, rng) -> float:
        """Delay before retry number ``attempt`` (1-based), jittered.

        Exponential growth capped at ``backoff_max_s``; jitter is a
        uniform draw in ``[0, backoff_jitter * delay]`` from the
        caller's RNG stream (per-client, hence deterministic).
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(self.backoff_base_s * self.backoff_factor ** (attempt - 1),
                    self.backoff_max_s)
        if self.backoff_jitter > 0.0 and delay > 0.0:
            delay += float(rng.uniform(0.0, self.backoff_jitter * delay))
        return delay


class CircuitBreaker:
    """Consecutive-failure breaker for one (client, decision point) pair.

    States: ``closed`` (normal), ``open`` (fail fast until the
    cool-down expires), ``half_open`` (one trial request in flight —
    the client channel is serialized, so one is all there can be).
    Success anywhere closes it; failure in half-open re-opens it.
    """

    __slots__ = ("sim", "owner", "dp_id", "threshold", "open_s", "state",
                 "failures", "opened_at", "open_until", "opened_count")

    def __init__(self, sim: "Simulator", owner: str, dp_id: str,
                 threshold: int = 3, open_s: float = 60.0):
        self.sim = sim
        self.owner = owner
        self.dp_id = dp_id
        self.threshold = threshold
        self.open_s = open_s
        self.state = "closed"
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.open_until = -float("inf")
        self.opened_count = 0

    def allow(self) -> bool:
        """May the next attempt go to this decision point right now?"""
        if self.state == "closed":
            return True
        if self.state == "open" and self.sim.now >= self.open_until:
            self._transition("half_open")
            return True
        return self.state == "half_open"

    def on_success(self) -> None:
        self.failures = 0
        if self.state != "closed":
            self._transition("closed")

    def on_failure(self) -> None:
        self.failures += 1
        if self.state == "half_open":
            self._open()
        elif self.state == "closed" and self.failures >= self.threshold:
            self._open()

    def _open(self) -> None:
        self.opened_at = self.sim.now
        self.open_until = self.sim.now + self.open_s
        self.opened_count += 1
        self._transition("open")

    def _transition(self, state: str) -> None:
        prior, self.state = self.state, state
        self.sim.trace.emit(f"breaker.{state}", self.owner, dp=self.dp_id,
                            prior=prior, failures=self.failures)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CircuitBreaker {self.owner}->{self.dp_id} {self.state} "
                f"failures={self.failures}>")

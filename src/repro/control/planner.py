"""AutoscalePlanner: the closed control loop over the brokering plane.

Paper §5.1 sketches a "third party observer [that] can decide
dynamically what steps should be taken to reconfigure the scheduling
infrastructure" but evaluates sizing only offline (GRUB-SIM, Table 3).
The planner closes that loop at runtime on the DES clock:

    SignalBus.sample() → scale rule → hysteresis/cooldown → Actuator

Every control action is one ``control.<kind>`` event, which a
journaled run records as a ``ctl.scale`` entry of its
:class:`~repro.check.digest.EventJournal`, so ``digruber diff`` and the
online invariant checker gate the controller exactly like the
brokering plane itself.  The tick itself draws no randomness — the
actuator owns a dedicated seeded stream for placement tie-breaking —
so a run with a ``frozen`` policy is event-identical to a run with no
controller at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.control.actuator import Actuator, ControlAction
from repro.control.policy import SCALE_RULES, AutoscaleConfig
from repro.control.signals import SignalBus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.broker import DIGruberDeployment
    from repro.sim.kernel import Simulator

__all__ = ["AutoscalePlanner"]


class AutoscalePlanner:
    """Periodic controller: sample, decide, (maybe) act."""

    def __init__(self, sim: "Simulator", deployment: "DIGruberDeployment",
                 config: AutoscaleConfig, rng: np.random.Generator):
        self.sim = sim
        self.deployment = deployment
        self.config = config
        self.bus = SignalBus(sim, deployment, window_s=config.interval_s)
        self.actuator = Actuator(sim, deployment, config, rng)
        self.rule = SCALE_RULES[config.policy]
        #: (time, n_live) after every control window — the convergence
        #: trace the autoscale bench asserts on.
        self.timeline: list[tuple[float, int]] = []
        self.ticks = 0
        self._up_streak = 0
        self._down_streak = 0
        self._last_action_at = -float("inf")
        self._handle = None

    def start(self) -> None:
        if self._handle is not None:
            raise RuntimeError("planner already started")
        self._handle = self.sim.every(self.config.interval_s, self.tick,
                                      name="autoscale", on_error="record")

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # -- the control loop --------------------------------------------------
    def tick(self) -> Optional[ControlAction]:
        """One control window: sample, decide, act on a scale decision.

        Nothing else triggers an action.  A crash is not a membership
        change the planner hears about; its orphaned clients move at the
        next scale action's placement step (see :mod:`.actuator`).
        """
        cfg = self.config
        sample = self.bus.sample()
        current = len(self.deployment.live_dp_ids)
        desired = self.rule(sample, cfg, current)
        self.ticks += 1

        if desired > current:
            self._up_streak += 1
            self._down_streak = 0
        elif desired < current:
            self._down_streak += 1
            self._up_streak = 0
        else:
            self._up_streak = 0
            self._down_streak = 0

        action = None
        in_cooldown = self.sim.now - self._last_action_at < cfg.cooldown_s
        if not in_cooldown:
            if self._up_streak >= cfg.up_consecutive:
                step = min(desired - current, cfg.max_step_up)
                action = self.actuator.scale_up(step)
            elif self._down_streak >= cfg.down_consecutive:
                step = min(current - desired, cfg.max_step_down)
                action = self.actuator.scale_down(step)
            if action is not None:
                self._up_streak = 0
                self._down_streak = 0
                self._last_action_at = self.sim.now

        self.timeline.append((self.sim.now, len(self.deployment.live_dp_ids)))
        self.sim.metrics.gauge("control.desired_dps").set(
            desired, at=self.sim.now)
        return action

    def snapshot_state(self) -> dict:
        """Canonical control-plane state for snapshot digests (JSON-able)."""
        return {
            "ticks": self.ticks,
            "up_streak": self._up_streak,
            "down_streak": self._down_streak,
            "last_action_at": (None if self._last_action_at == -float("inf")
                               else self._last_action_at),
            "timeline_len": len(self.timeline),
            "live_dps": len(self.deployment.live_dp_ids),
            "actions": len(self.actuator.actions),
            "clients_moved": self.actuator.clients_moved,
        }

    # -- reporting ---------------------------------------------------------
    def converged_dps(self, tail_fraction: float = 0.25) -> int:
        """Modal live-DP count over the trailing fraction of the run."""
        if not self.timeline:
            return len(self.deployment.live_dp_ids)
        n_tail = max(1, int(len(self.timeline) * tail_fraction))
        tail = [n for _, n in self.timeline[-n_tail:]]
        counts: dict[int, int] = {}
        for n in tail:
            counts[n] = counts.get(n, 0) + 1
        # Modal count; ties break toward the most recent value.
        best = max(counts.values())
        for n in reversed(tail):
            if counts[n] == best:
                return n
        return tail[-1]

    def stats(self) -> dict:
        a = self.actuator
        ups = sum(1 for x in a.actions if x.kind == "scale_up")
        downs = sum(1 for x in a.actions if x.kind == "scale_down")
        deferred = sum(x.clients_deferred for x in a.actions)
        return {
            "policy": self.config.policy,
            "placement": self.config.placement,
            "ticks": self.ticks,
            "actions": len(a.actions),
            "scale_ups": ups,
            "scale_downs": downs,
            "clients_moved": a.clients_moved,
            "moves_deferred": deferred,
            "final_dps": len(self.deployment.live_dp_ids),
            "converged_dps": self.converged_dps(),
        }

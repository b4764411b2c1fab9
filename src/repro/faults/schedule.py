"""Deterministic fault schedules and the injector that drives them.

A fault scenario is *data*: an ordered list of typed
:class:`FaultEvent` entries, each saying what goes wrong (or heals)
at which simulated instant.  The :class:`FaultInjector` arms every
event on the DES clock before the run starts, so two runs with the
same seed and the same schedule are bit-for-bit identical — failure
scenarios are first-class, reproducible inputs (the GridSim lesson),
not ad-hoc test hooks.

Event kinds
-----------
``link.fault`` / ``link.restore``
    Install / remove a :class:`~repro.faults.netem.LinkFault` on an
    (optionally asymmetric) endpoint pair: loss, latency spikes,
    duplication, or a full cut.
``node.fault`` / ``node.restore``
    Same, for every message touching one node (isolation = ``cut``).
``partition`` / ``heal``
    Split the listed islands at the transport: every cross-island
    ordered pair is cut (sync-layer islands follow automatically,
    since the flooding protocol rides the same wire).  ``heal``
    removes exactly the cuts the partition installed.
``dp.crash`` / ``dp.restart``
    Take a decision point down (requests unanswered, timers stopped) /
    bring it back with a fresh monitor sweep plus a state re-sync pull
    from its overlay peers.
``node.degrade``
    Scale a decision point's container service times by ``factor``
    (a slow node); ``factor=1.0`` restores full speed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional, TYPE_CHECKING

from repro.faults.netem import LinkFault, TransportFaultModel
from repro.net.topology import cross_pairs

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.broker import DIGruberDeployment
    from repro.net.transport import Network
    from repro.sim.kernel import Simulator

__all__ = ["FaultEvent", "FaultSchedule", "FaultInjector", "FAULT_KINDS"]

FAULT_KINDS = (
    "link.fault", "link.restore",
    "node.fault", "node.restore",
    "partition", "heal",
    "dp.crash", "dp.restart",
    "node.degrade",
)

_LINK_FAULT_PARAMS = ("cut", "loss", "extra_delay_s", "jitter_s", "dup_rate")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault (or repair) action."""

    at: float            # simulated seconds from run start
    kind: str            # one of FAULT_KINDS
    args: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.at < 0:
            raise ValueError(f"fault event time must be >= 0, got {self.at}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")

    def link_fault(self) -> LinkFault:
        """The :class:`LinkFault` described by this event's params."""
        return LinkFault(**{k: self.args[k] for k in _LINK_FAULT_PARAMS
                            if k in self.args})

    def to_dict(self) -> dict:
        return {"at": self.at, "kind": self.kind, **self.args}


class FaultSchedule:
    """An ordered, validated list of fault events.

    Events are stably sorted by time (ties keep insertion order), so a
    schedule is a deterministic input regardless of how it was built.
    """

    def __init__(self, events: Iterable[FaultEvent] = (), name: str = ""):
        self.name = name
        self.events: list[FaultEvent] = sorted(events, key=lambda e: e.at)

    def add(self, at: float, kind: str, **args) -> "FaultSchedule":
        """Append one event (chainable); keeps the schedule sorted."""
        self.events.append(FaultEvent(at=at, kind=kind, args=args))
        self.events.sort(key=lambda e: e.at)
        return self

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon_s(self) -> float:
        """Time of the last scheduled event."""
        return self.events[-1].at if self.events else 0.0

    # -- (de)serialization -------------------------------------------------
    @classmethod
    def from_dicts(cls, specs: Iterable[dict],
                   name: str = "") -> "FaultSchedule":
        events = []
        for spec in specs:
            spec = dict(spec)
            at = float(spec.pop("at"))
            kind = spec.pop("kind")
            events.append(FaultEvent(at=at, kind=kind, args=spec))
        return cls(events, name=name)

    def to_dicts(self) -> list[dict]:
        return [e.to_dict() for e in self.events]

    @classmethod
    def from_json(cls, text: str, name: str = "") -> "FaultSchedule":
        return cls.from_dicts(json.loads(text), name=name)

    def to_json(self) -> str:
        return json.dumps(self.to_dicts(), indent=2)


class FaultInjector:
    """Arms a :class:`FaultSchedule` against one running deployment.

    The injector owns the transport fault model (installing it on
    ``network.faults`` if absent), resolves decision-point targets via
    the deployment, and emits one ``faults.apply.<kind>`` event for
    every applied event.
    """

    def __init__(self, sim: "Simulator", network: "Network",
                 schedule: FaultSchedule, rng,
                 deployment: Optional["DIGruberDeployment"] = None):
        self.sim = sim
        self.network = network
        self.schedule = schedule
        self.deployment = deployment
        if network.faults is None:
            network.faults = TransportFaultModel(sim, rng)
        self.model: TransportFaultModel = network.faults
        self.applied: list[FaultEvent] = []
        self._partition_cuts: list[tuple[Hashable, Hashable]] = []
        self._armed = False

    # -- lifecycle -------------------------------------------------------
    def arm(self) -> int:
        """Schedule every event on the DES clock; returns the count."""
        if self._armed:
            raise RuntimeError("fault schedule already armed")
        for event in self.schedule:
            self.sim.schedule_at(event.at,
                                 lambda e=event: self._apply(e))
        self._armed = True
        return len(self.schedule)

    # -- application -----------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        handler = getattr(self, "_apply_" + event.kind.replace(".", "_"))
        handler(event)
        self.applied.append(event)
        # Detail keys are namespaced ("arg_node", ...) so they can never
        # collide with emit()'s own kind/node parameters.
        self.sim.trace.emit(f"faults.apply.{event.kind}", "injector",
                            **{f"arg_{k}": _traceable(v)
                               for k, v in event.args.items()})

    def _dp(self, dp_id: str):
        if self.deployment is None:
            raise RuntimeError(
                f"fault event targets decision point {dp_id!r} but the "
                "injector was built without a deployment")
        return self.deployment.dp(dp_id)

    def _apply_link_fault(self, event: FaultEvent) -> None:
        self.model.set_link(event.args["a"], event.args["b"],
                            event.link_fault(),
                            symmetric=event.args.get("symmetric", True))

    def _apply_link_restore(self, event: FaultEvent) -> None:
        self.model.clear_link(event.args["a"], event.args["b"],
                              symmetric=event.args.get("symmetric", True))

    def _apply_node_fault(self, event: FaultEvent) -> None:
        self.model.set_node(event.args["node"], event.link_fault())

    def _apply_node_restore(self, event: FaultEvent) -> None:
        self.model.restore_node(event.args["node"])

    def _apply_partition(self, event: FaultEvent) -> None:
        pairs = cross_pairs(event.args["islands"])
        for a, b in pairs:
            self.model.set_link(a, b, LinkFault(cut=True), symmetric=False)
        self._partition_cuts.extend(pairs)

    def _apply_heal(self, event: FaultEvent) -> None:
        for a, b in self._partition_cuts:
            self.model.clear_link(a, b, symmetric=False)
        self._partition_cuts.clear()

    def _apply_dp_crash(self, event: FaultEvent) -> None:
        self._dp(event.args["dp"]).crash()

    def _apply_dp_restart(self, event: FaultEvent) -> None:
        self._dp(event.args["dp"]).restart()

    def _apply_node_degrade(self, event: FaultEvent) -> None:
        self._dp(event.args["dp"]).container.set_degradation(
            float(event.args.get("factor", 1.0)))


def _traceable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)

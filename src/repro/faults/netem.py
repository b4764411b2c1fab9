"""Per-link and per-node transport fault emulation.

Real outages are *structured* — one flapping PlanetLab path, one
overloaded node, one asymmetric cut.  :class:`TransportFaultModel` is
the transport's one way to lose a message: the transport consults it
once per message (when installed at all — ``Network.faults is None``
costs one attribute check) and gets back a :class:`Fate` saying whether
the message is dropped and, per delivered copy, how much extra delay it
suffers.

Rules compose:

* **link rules** key on the ordered ``(src, dst)`` pair, so a cut can
  be asymmetric (A hears B, B never hears A);
* **node rules** apply to every message touching the node — an
  isolated node (``cut=True``) is a network-level island, a flaky node
  (``loss``/``jitter_s``) models a degraded container host.

Duplication and reordering fall out of the same mechanism: a
``dup_rate`` delivers extra copies, and ``jitter_s`` adds a uniform
extra delay per copy, which lets later messages overtake earlier ones
on the simulated wire.

Determinism: all draws come from one dedicated RNG stream, and rules
are installed/removed by :class:`~repro.faults.schedule.FaultInjector`
at schedule-fixed instants, so identical seed + identical fault
schedule reproduces identical message fates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, NamedTuple, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.transport import Message
    from repro.sim.kernel import Simulator

__all__ = ["LinkFault", "Fate", "TransportFaultModel", "CLEAN_FATE"]


class Fate(NamedTuple):
    """What happens to one message: dropped, or delivered in copies.

    ``extra_delays`` has one entry per delivered copy (normally one);
    each entry is added to the copy's sampled transport delay.
    """

    drop: bool
    extra_delays: tuple[float, ...]


CLEAN_FATE = Fate(False, (0.0,))
_DROPPED_FATE = Fate(True, ())


@dataclass(frozen=True)
class LinkFault:
    """One rule: how a link (or node) misbehaves while installed.

    ``cut`` drops everything; ``loss`` drops independently per message;
    ``extra_delay_s`` is a fixed latency penalty; ``jitter_s`` adds a
    uniform ``[0, jitter_s]`` draw per delivered copy (reordering);
    ``dup_rate`` is the per-message probability of one extra copy.
    """

    cut: bool = False
    loss: float = 0.0
    extra_delay_s: float = 0.0
    jitter_s: float = 0.0
    dup_rate: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.loss <= 1.0):
            raise ValueError(f"loss must be in [0, 1], got {self.loss}")
        if not (0.0 <= self.dup_rate <= 1.0):
            raise ValueError(f"dup_rate must be in [0, 1], got {self.dup_rate}")
        if self.extra_delay_s < 0 or self.jitter_s < 0:
            raise ValueError("delays must be >= 0")

    @property
    def is_noop(self) -> bool:
        return (not self.cut and self.loss == 0.0 and self.extra_delay_s == 0.0
                and self.jitter_s == 0.0 and self.dup_rate == 0.0)


class TransportFaultModel:
    """Rule table the transport consults per message.

    Installed on :attr:`repro.net.transport.Network.faults`; the
    :class:`~repro.faults.schedule.FaultInjector` mutates the rule
    table at scheduled instants.  Every drop/duplicate is counted in
    ``sim.metrics`` and traced (``fault.drop`` / ``fault.dup``).
    """

    def __init__(self, sim: "Simulator", rng):
        self.sim = sim
        self.rng = rng
        self._links: dict[tuple[Hashable, Hashable], LinkFault] = {}
        self._nodes: dict[Hashable, LinkFault] = {}
        # Tallies (also mirrored into sim.metrics counters).
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0

    # -- rule management -------------------------------------------------
    def set_link(self, a: Hashable, b: Hashable, fault: LinkFault,
                 symmetric: bool = True) -> None:
        """Install (or replace) the rule for ``a -> b`` (and ``b -> a``)."""
        if fault.is_noop:
            self.clear_link(a, b, symmetric=symmetric)
            return
        self._links[(a, b)] = fault
        if symmetric:
            self._links[(b, a)] = fault

    def clear_link(self, a: Hashable, b: Hashable,
                   symmetric: bool = True) -> None:
        self._links.pop((a, b), None)
        if symmetric:
            self._links.pop((b, a), None)

    def cut_link(self, a: Hashable, b: Hashable,
                 symmetric: bool = True) -> None:
        self.set_link(a, b, LinkFault(cut=True), symmetric=symmetric)

    def set_node(self, node: Hashable, fault: LinkFault) -> None:
        """Install (or replace) the rule for all traffic touching ``node``."""
        if fault.is_noop:
            self._nodes.pop(node, None)
            return
        self._nodes[node] = fault

    def isolate_node(self, node: Hashable) -> None:
        self.set_node(node, LinkFault(cut=True))

    def restore_node(self, node: Hashable) -> None:
        self._nodes.pop(node, None)

    def clear(self) -> None:
        self._links.clear()
        self._nodes.clear()

    @property
    def n_rules(self) -> int:
        return len(self._links) + len(self._nodes)

    def link_fault(self, a: Hashable, b: Hashable) -> Optional[LinkFault]:
        return self._links.get((a, b))

    # -- the per-message consultation -------------------------------------
    def on_message(self, msg: "Message") -> Fate:
        """Decide one message's fate; counts and traces what it does."""
        rules = []
        rule = self._nodes.get(msg.src)
        if rule is not None:
            rules.append(rule)
        rule = self._nodes.get(msg.dst)
        if rule is not None:
            rules.append(rule)
        rule = self._links.get((msg.src, msg.dst))
        if rule is not None:
            rules.append(rule)
        if not rules:
            return CLEAN_FATE

        rng = self.rng
        for rule in rules:
            if rule.cut or (rule.loss > 0.0 and rng.random() < rule.loss):
                self.dropped += 1
                self.sim.trace.emit("fault.drop", msg.src, dst=str(msg.dst),
                                    op=msg.op, msg_kind=msg.kind,
                                    cut=rule.cut)
                return _DROPPED_FATE

        extra = 0.0
        copies = 1
        for rule in rules:
            extra += rule.extra_delay_s
            if rule.jitter_s > 0.0:
                extra += float(rng.uniform(0.0, rule.jitter_s))
            if rule.dup_rate > 0.0 and rng.random() < rule.dup_rate:
                copies += 1
        if copies == 1 and extra == 0.0:
            return CLEAN_FATE

        delays = [extra]
        for _ in range(copies - 1):
            # Each duplicate gets its own jitter draw so copies spread
            # out (and can arrive before the "original").
            dup_extra = extra
            for rule in rules:
                if rule.jitter_s > 0.0:
                    dup_extra += float(rng.uniform(0.0, rule.jitter_s))
            delays.append(dup_extra)
        if copies > 1:
            self.duplicated += copies - 1
            self.sim.metrics.counter("faults.msgs_duplicated").inc(copies - 1)
            self.sim.trace.emit("fault.dup", msg.src, dst=str(msg.dst),
                                op=msg.op, copies=copies)
        if extra > 0.0:
            self.delayed += 1
            self.sim.trace.emit("fault.delay", msg.src, dst=str(msg.dst),
                                op=msg.op, extra_s=extra)
        return Fate(False, tuple(delays))


def degraded(fault: LinkFault, **overrides) -> LinkFault:
    """A modified copy of a rule (schedule builders compose with this)."""
    return replace(fault, **overrides)

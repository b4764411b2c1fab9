"""The model's one event stream.

Every model event — a dispatch, a sync round, a crash, an RPC's outcome,
a checker violation — is **one call** on the simulator's
:class:`Tracer`: :meth:`Tracer.emit` bumps the event's always-on tally
(a :class:`~repro.obs.counters.Counter` named by the event's kind, in
the simulator's :class:`~repro.obs.counters.MetricsRegistry`, which is
what ``--obs`` and timeline rows print) and, when anything subscribes,
hands one :class:`TraceEvent` to each subscriber.  The subscribers are
registered at build: the bounded ring (:meth:`Tracer.ring`, read by the
flight recorder), a :class:`~repro.obs.jsonl.JsonlSink` for
``--trace FILE``, and the differential-replay journal
(:func:`repro.check.digest.install_probes`).

With nothing subscribed an event costs its tally.  The two per-job
kinds — ``engine.dispatch`` and ``rpc.<outcome>`` — keep their tally
inline at the call site and call :meth:`Tracer.publish` only behind
``if trace.enabled``, so with nothing subscribed they pay one attribute
check.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, NamedTuple, Optional

from repro.obs.counters import MetricsRegistry
from repro.obs.jsonl import jsonable

__all__ = ["RPC_FIELDS", "TraceEvent", "Tracer"]

#: Field names of an RPC's tuple detail; its kind is ``rpc.<outcome>``.
RPC_FIELDS: tuple[str, ...] = ("op", "dst", "rpc_id", "outcome",
                               "latency_s", "size_kb")


class TraceEvent(NamedTuple):
    """One event: when, where, what, and arbitrary detail.

    ``detail`` is a dict, except for the transport's ``rpc.<outcome>``
    events, which carry a plain tuple in :data:`RPC_FIELDS` order — use
    :meth:`detail_dict` for uniform access.
    """

    time: float
    node: Any
    kind: str
    detail: Any

    def detail_dict(self) -> dict:
        if isinstance(self.detail, dict):
            return self.detail
        if self.kind.startswith("rpc."):
            return dict(zip(RPC_FIELDS, self.detail))
        return {"detail": self.detail}

    def to_dict(self) -> dict:
        # ``float(...)`` guards the time field: a numpy scalar clock (or
        # a ``publish(..., time=np.float32(...))`` caller) used to hand
        # json.dumps a non-serializable value and crash every sink.
        return {"t": float(self.time), "node": str(self.node),
                "kind": self.kind,
                **{k: jsonable(v) for k, v in self.detail_dict().items()}}


class Tracer:
    """Tallies every event and fans it out to the subscribers.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current sim time; the
        :class:`~repro.sim.kernel.Simulator` wires in its own clock.
    capacity:
        Ring size; older events are evicted (and counted in
        :attr:`evicted`) once full.  Other subscribers see every event.
    metrics:
        The registry the tallies live in (the simulator's own).
    """

    __slots__ = ("enabled", "clock", "metrics", "buffer", "subscribers",
                 "emitted")

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 capacity: int = 65536,
                 metrics: Optional[MetricsRegistry] = None):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: The ring's events, oldest first; read through :meth:`events`.
        self.buffer: deque = deque(maxlen=capacity)
        self.subscribers: list[Callable[[TraceEvent], None]] = []
        #: ``bool(subscribers)``, kept by :meth:`subscribe` and
        #: :meth:`unsubscribe`: the one check a hot call site pays.
        self.enabled = False
        #: Events the ring has taken, evicted ones included.
        self.emitted = 0

    # -- recording --------------------------------------------------------
    def emit(self, kind: str, node: Any = "", **detail: Any) -> None:
        """Record one event: tally it, then hand it to the subscribers."""
        counter = self.metrics.counters.get(kind)
        if counter is None:
            counter = self.metrics.counter(kind)
        counter.value += 1
        if self.enabled:
            self.publish(kind, node, detail)

    def publish(self, kind: str, node: Any, detail: Any,
                time: Optional[float] = None) -> None:
        """Hand one event to every subscriber, without tallying it.

        :meth:`emit` ends here; the hot call sites, which tally inline,
        call it directly behind ``if trace.enabled``.  ``time`` skips
        the clock call when the caller already knows the instant.
        """
        ev = TraceEvent(self.clock() if time is None else time, node, kind,
                        detail)
        for fn in self.subscribers:
            fn(ev)

    def ring(self, ev: TraceEvent) -> None:
        """The bounded-ring subscriber."""
        self.buffer.append(ev)
        self.emitted += 1

    # -- subscribers ------------------------------------------------------
    def subscribe(self, fn: Callable[[TraceEvent], None]) -> None:
        self.subscribers.append(fn)
        self.enabled = True

    def unsubscribe(self, fn: Callable[[TraceEvent], None]) -> None:
        self.subscribers.remove(fn)
        self.enabled = bool(self.subscribers)

    # -- inspection -------------------------------------------------------
    def events(self, kind: Optional[str] = None) -> list[TraceEvent]:
        """The ring's events, optionally filtered by exact kind."""
        return [ev for ev in self.buffer if kind is None or ev.kind == kind]

    def count(self, kind: str) -> int:
        """The kind's tally (every event, whoever subscribes)."""
        return self.metrics.counter_value(kind)

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.emitted - len(self.buffer)

    def __len__(self) -> int:
        return len(self.buffer)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Tracer subscribers={len(self.subscribers)} "
                f"buffered={len(self.buffer)}>")

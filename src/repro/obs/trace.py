"""Structured event tracing for the simulation's hot layers.

A :class:`Tracer` records :class:`TraceEvent` tuples into a bounded
ring buffer (``collections.deque``) and fans them out to any attached
sinks.  Tracing is **disabled by default**: every emitting call site
guards with ``if tracer.enabled`` so a disabled tracer costs one
attribute lookup per *potential* event — measured by
``benchmarks/bench_obs_overhead.py`` and pinned in ``BENCH_kernel.json``.

Event kinds are dotted strings, coarse by design (per process
lifecycle, per RPC span, per sync round — never per kernel step), which
keeps the *enabled* overhead under the 10% budget the bench harness
enforces.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, NamedTuple, Optional

from repro.obs.jsonl import jsonable, write_jsonl

__all__ = ["TraceEvent", "Tracer", "SPAN_FIELDS"]

#: Field names for compact (tuple-detail) events emitted through
#: :meth:`Tracer.emit_compact` — the hot-path alternative to kwargs.
SPAN_FIELDS: dict[str, tuple[str, ...]] = {
    "rpc.span": ("op", "dst", "rpc_id", "outcome", "latency_s", "size_kb"),
}


class TraceEvent(NamedTuple):
    """One trace record: when, where, what, and arbitrary detail.

    ``detail`` is a dict for ordinary events; hot-path events (see
    :data:`SPAN_FIELDS`) carry a plain tuple instead — use
    :meth:`detail_dict` for uniform access.
    """

    time: float
    node: Any
    kind: str
    detail: Any

    def detail_dict(self) -> dict:
        if isinstance(self.detail, dict):
            return self.detail
        fields = SPAN_FIELDS.get(self.kind)
        if fields is not None:
            return dict(zip(fields, self.detail))
        return {"detail": self.detail}

    def to_dict(self) -> dict:
        # ``float(...)`` guards the time field: a numpy scalar clock (or
        # an ``emit_compact(..., time=np.float32(...))`` caller) used to
        # hand json.dumps a non-serializable value and crash every sink.
        return {"t": float(self.time), "node": str(self.node),
                "kind": self.kind,
                **{k: jsonable(v) for k, v in self.detail_dict().items()}}


class Tracer:
    """Ring-buffered structured trace with pluggable sinks.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current sim time; the
        :class:`~repro.sim.kernel.Simulator` wires in its own clock.
    capacity:
        Ring-buffer size; older events are evicted (and counted in
        :attr:`evicted`) once full.  Sinks see *every* event regardless.
    enabled:
        Off by default — the run summary and counters work without it.
    """

    __slots__ = ("enabled", "clock", "buffer", "sinks", "counts",
                 "emitted")

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 capacity: int = 65536, enabled: bool = False):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.enabled = enabled
        self.clock = clock if clock is not None else (lambda: 0.0)
        #: Ring of TraceEvent instances (or bare 4-tuples from
        #: :meth:`emit_compact`); read through :meth:`events`.
        self.buffer: deque = deque(maxlen=capacity)
        self.sinks: list[Callable[[TraceEvent], None]] = []
        #: Per-kind event tallies (kept even after ring eviction).
        self.counts: dict[str, int] = {}
        self.emitted = 0

    # -- emission -------------------------------------------------------
    def emit(self, kind: str, node: Any = "", **detail: Any) -> None:
        """Record one event *if enabled*; call sites should pre-guard
        with ``if tracer.enabled`` to avoid building kwargs for nothing.
        """
        if not self.enabled:
            return
        ev = TraceEvent(self.clock(), node, kind, detail)
        self.buffer.append(ev)
        self.emitted += 1
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self.sinks:
            for sink in self.sinks:
                sink(ev)

    def emit_compact(self, kind: str, node: Any, detail: tuple,
                     time: Optional[float] = None) -> None:
        """Hot-path emission: positional tuple detail, no kwargs dict.

        ``detail`` must match ``SPAN_FIELDS[kind]``; ``time`` skips the
        clock call when the caller already knows the instant.  The ring
        stores a bare 4-tuple (a :class:`TraceEvent` ctor alone costs
        ~5x a tuple display); :meth:`events` and the sink fan-out
        normalize on the way out, keeping this several times cheaper
        than :meth:`emit` — the transport uses it for its one-per-RPC
        span summary.
        """
        if not self.enabled:
            return
        ev = (self.clock() if time is None else time, node, kind, detail)
        self.buffer.append(ev)
        self.emitted += 1
        counts = self.counts
        try:
            counts[kind] += 1
        except KeyError:
            counts[kind] = 1
        if self.sinks:
            named = TraceEvent._make(ev)
            for sink in self.sinks:
                sink(named)

    # -- sinks ----------------------------------------------------------
    def add_sink(self, sink: Callable[[TraceEvent], None]) -> None:
        self.sinks.append(sink)

    def remove_sink(self, sink: Callable[[TraceEvent], None]) -> None:
        self.sinks.remove(sink)

    # -- inspection -----------------------------------------------------
    def events(self, kind: Optional[str] = None) -> list[TraceEvent]:
        """Buffered events, optionally filtered by exact kind.

        Normalizes the hot-path bare tuples (see :meth:`emit_compact`)
        so callers always get :class:`TraceEvent` instances.
        """
        out = [ev if isinstance(ev, TraceEvent) else TraceEvent._make(ev)
               for ev in self.buffer]
        if kind is None:
            return out
        return [ev for ev in out if ev.kind == kind]

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.emitted - len(self.buffer)

    def clear(self) -> None:
        self.buffer.clear()
        self.counts.clear()
        self.emitted = 0

    def set_capacity(self, capacity: int) -> None:
        """Resize the ring buffer, keeping the newest events."""
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.buffer = deque(self.buffer, maxlen=capacity)

    # -- export ---------------------------------------------------------
    def export_jsonl(self, path: str) -> int:
        """Dump the buffered events to a JSONL file; returns the count."""
        return write_jsonl(path, (ev.to_dict() for ev in self.events()))

    def __len__(self) -> int:
        return len(self.buffer)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "on" if self.enabled else "off"
        return f"<Tracer {state} buffered={len(self.buffer)} kinds={len(self.counts)}>"

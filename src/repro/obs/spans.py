"""Causal span tracing across the brokering plane.

Dapper-style distributed tracing adapted to a discrete-event simulator:
a :class:`SpanRecorder` (one per :class:`~repro.sim.kernel.Simulator`)
records :class:`Span` intervals on the *sim* clock, and a
:class:`SpanContext` — a ``(trace_id, span_id)`` pair — travels on
:class:`~repro.net.transport.Message` as ``trace_ctx`` so child spans
created on remote nodes link to their parents.  Because sim processes
are plain generators there is no ambient "current span"; context is
always explicit, exactly like the wire propagation it models.

Determinism is a hard invariant:

* span/trace IDs come from a dedicated seeded RNG stream (the runner
  installs ``rng.stream("spans")`` via :meth:`SpanRecorder.seed_ids`);
  without one, a deterministic counter is used;
* recording never schedules sim events and never touches shared RNG
  streams, so a run with spans on is event-for-event identical to the
  same run with spans off;
* head-based sampling (``sample_every``) decides at root creation from
  a deterministic counter — an unsampled root returns ``None`` and its
  whole causal subtree records nothing.

Spans still open at export time are **flagged** (``"orphan": true``),
never dropped: an orphan means the operation out-lived the run window
or its causal chain was severed (lost message, crashed peer) — both
signals the chaos analyses want to see.
"""

from __future__ import annotations

import json
from typing import Any, Callable, NamedTuple, Optional

from repro.obs.jsonl import jsonable, write_jsonl

__all__ = ["Span", "SpanContext", "SpanRecorder", "chrome_trace"]

#: IDs are drawn from the RNG in blocks so the per-span cost is a list
#: pop, not a numpy scalar draw.
_ID_BLOCK = 128


class SpanContext(NamedTuple):
    """The portable identity of a span: what travels on a Message."""

    trace_id: str
    span_id: str


class Span:
    """One timed operation on one node, linked into a trace tree."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "node",
                 "start", "end", "attrs")

    def __init__(self, trace_id: str, span_id: str, parent_id: Optional[str],
                 name: str, node: Any, start: float,
                 attrs: Optional[dict] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.attrs: dict = attrs if attrs is not None else {}

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def duration_s(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict:
        """JSON-ready dict; key order is fixed for byte-stable export."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "node": str(self.node),
            "start": float(self.start),
            "end": None if self.end is None else float(self.end),
            "orphan": self.end is None,
            "attrs": {k: jsonable(v)
                      for k, v in sorted(self.attrs.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "open" if self.end is None else f"{self.duration_s:.4g}s"
        return (f"<Span {self.name} {self.span_id} node={self.node} "
                f"{state}>")


class SpanRecorder:
    """Records causal spans on the sim clock; off (and free) by default.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current sim time.
    enabled:
        Off by default; every call site pre-guards on this flag.
    sample_every:
        Head-based sampling: record every Nth *root* span (and, by
        context propagation, its whole subtree).  1 = record all.
    """

    __slots__ = ("enabled", "clock", "sample_every", "_spans",
                 "_id_rng", "_id_pool", "_id_counter",
                 "roots_seen", "roots_sampled", "roots_dropped")

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 enabled: bool = False, sample_every: int = 1):
        self.enabled = enabled
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.sample_every = max(int(sample_every), 1)
        # One append-only list in start order (the deterministic total
        # order); open vs finished is just ``end is None``.  No
        # per-span dict bookkeeping — this path is on the 10% budget.
        self._spans: list[Span] = []
        self._id_rng = None
        self._id_pool: list[int] = []
        self._id_counter = 0
        self.roots_seen = 0
        self.roots_sampled = 0
        self.roots_dropped = 0

    # -- identity -------------------------------------------------------
    def seed_ids(self, rng) -> None:
        """Draw span/trace IDs from a seeded ``numpy.random.Generator``.

        The runner installs the registry's dedicated ``"spans"`` stream
        so ID generation never perturbs any other component's draws.
        """
        self._id_rng = rng
        self._id_pool = []

    def _new_id(self) -> str:
        if self._id_rng is not None:
            pool = self._id_pool
            if not pool:
                self._id_pool = pool = self._id_rng.integers(
                    0, 2 ** 64, size=_ID_BLOCK, dtype="uint64").tolist()
                pool.reverse()
            return f"{pool.pop():016x}"
        self._id_counter += 1
        return f"{self._id_counter:016x}"

    # -- recording ------------------------------------------------------
    def start_trace(self, name: str, node: Any,
                    start: Optional[float] = None,
                    **attrs: Any) -> Optional[Span]:
        """Open a root span (a new trace); ``None`` when off/unsampled."""
        if not self.enabled:
            return None
        self.roots_seen += 1
        if (self.roots_seen - 1) % self.sample_every:
            self.roots_dropped += 1
            return None
        self.roots_sampled += 1
        trace_id = self._new_id()
        span = Span(trace_id, self._new_id(), None, name, node,
                    self.clock() if start is None else float(start), attrs)
        self._spans.append(span)
        return span

    def start_span(self, name: str, node: Any,
                   parent: Any, start: Optional[float] = None,
                   **attrs: Any) -> Optional[Span]:
        """Open a child span under ``parent`` (a Span, a SpanContext, or
        a plain ``(trace_id, span_id)`` tuple).

        ``parent=None`` returns ``None`` — that is how an unsampled (or
        span-off) trace silently turns off its whole subtree, locally
        and across the wire.
        """
        if not self.enabled or parent is None:
            return None
        if isinstance(parent, Span):
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = parent[0], parent[1]
        span = Span(trace_id, self._new_id(), parent_id, name, node,
                    self.clock() if start is None else float(start), attrs)
        self._spans.append(span)
        return span

    def record(self, name: str, node: Any, parent: Any,
               start: float, end: float, **attrs: Any) -> Optional[Span]:
        """One-shot retroactive span (e.g. a site queue wait whose start
        is only known in hindsight); opened and finished atomically."""
        span = self.start_span(name, node, parent, start=start, **attrs)
        if span is not None:
            span.end = float(end)
        return span

    def finish(self, span: Optional[Span], end: Optional[float] = None,
               **attrs: Any) -> None:
        """Close a span; tolerant of ``None`` so call sites stay flat."""
        if span is None or span.end is not None:
            return
        span.end = self.clock() if end is None else float(end)
        if attrs:
            span.attrs.update(attrs)

    @staticmethod
    def ctx_of(span: Optional[Span]) -> Optional[SpanContext]:
        """The wire context for a span, propagating ``None``."""
        return None if span is None else span.context

    # -- inspection -----------------------------------------------------
    @property
    def finished(self) -> list[Span]:
        """Closed spans (computed view; the store is one flat list)."""
        return [s for s in self._spans if s.end is not None]

    @property
    def open_spans(self) -> list[Span]:
        """Spans started but never finished (orphans-to-be at export)."""
        return [s for s in self._spans if s.end is None]

    def spans(self) -> list[Span]:
        """Every recorded span, in start order (a deterministic total
        order — same run, same list)."""
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def clear(self) -> None:
        self._spans = []
        self.roots_seen = self.roots_sampled = self.roots_dropped = 0

    # -- export ---------------------------------------------------------
    def to_dicts(self) -> list[dict]:
        return [s.to_dict() for s in self.spans()]

    def export_jsonl(self, path: str) -> int:
        """Write one span per line; identical runs give identical bytes.

        Open spans are exported too, flagged ``"orphan": true`` — an
        orphan is information (severed causal chain), never noise to
        discard silently.
        """
        return write_jsonl(path, self.to_dicts())

    def export_chrome(self, path: str) -> int:
        """Write Chrome ``trace_event`` JSON (load in Perfetto)."""
        return write_chrome(self.to_dicts(), path)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "on" if self.enabled else "off"
        return (f"<SpanRecorder {state} finished={len(self.finished)} "
                f"open={len(self.open_spans)} sample=1/{self.sample_every}>")


# -- Chrome trace_event export ---------------------------------------------

def chrome_trace(spans: list[dict]) -> dict:
    """Build a Chrome ``trace_event`` document from span dicts.

    One *process* lane per node (sorted, so lane numbering is stable),
    complete (``ph: "X"``) events with microsecond ``ts``/``dur`` on the
    sim clock.  Orphans become zero-duration events marked in ``args``
    so severed chains stay visible on the timeline.
    """
    nodes = sorted({d["node"] for d in spans})
    pids = {node: i + 1 for i, node in enumerate(nodes)}
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": node}}
        for node, pid in pids.items()]
    for d in spans:
        end = d["end"] if d["end"] is not None else d["start"]
        args = dict(d["attrs"])
        args["trace_id"] = d["trace_id"]
        args["span_id"] = d["span_id"]
        if d["parent_id"]:
            args["parent_id"] = d["parent_id"]
        if d.get("orphan"):
            args["orphan"] = True
        events.append({
            "ph": "X",
            "name": d["name"],
            "cat": "span",
            "ts": d["start"] * 1e6,
            "dur": (end - d["start"]) * 1e6,
            "pid": pids[d["node"]],
            "tid": 0,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome(spans: list[dict], path: str) -> int:
    doc = chrome_trace(spans)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, allow_nan=False)
        fh.write("\n")
    return len(doc["traceEvents"])

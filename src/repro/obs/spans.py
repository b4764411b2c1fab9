"""Causal span tracing across the brokering plane.

Dapper-style distributed tracing adapted to a discrete-event simulator:
a :class:`SpanRecorder` (one per :class:`~repro.sim.kernel.Simulator`)
records span intervals on the *sim* clock as rows of typed columns.  A
span's handle is its row index, and since one recorder serves a whole
simulator that index is also its complete wire context: it travels on
:class:`~repro.net.transport.Message` as ``trace_ctx`` so child spans
created on remote nodes link to their parents.  Because sim processes
are plain generators there is no ambient "current span"; context is
always explicit, exactly like the wire propagation it models.
:class:`Span` objects are built on demand (inspection, export).

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
from array import array
from typing import Any, Callable, Iterator, Optional

from repro.obs.jsonl import jsonable, write_jsonl

__all__ = ["Span", "SpanRecorder", "chrome_trace"]

#: IDs are drawn from the RNG in blocks so the per-span cost is a list
#: pop, not a numpy scalar draw.
_ID_BLOCK = 128
_NAN = float("nan")


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

    One row per span, in start order (the deterministic total order):
    64-bit trace/span ids, the parent's row (-1 for a root), start/end
    (NaN = open), shared name/node, the call site's attr-key tuple (its
    shape, one tuple shared by every row of that shape) plus a value
    tuple, and :meth:`finish` attrs in a column pair.  No call builds a
    ``**kwargs`` dict.

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

    __slots__ = ("enabled", "clock", "sample_every", "_trace", "_sid",
                 "_parent", "_start", "_end", "_name", "_node", "_keys",
                 "_vals", "_fkeys", "_fvals",
                 "_id_rng", "_id_pool", "_id_counter",
                 "roots_seen", "roots_sampled", "roots_dropped")

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 enabled: bool = False, sample_every: int = 1):
        self.enabled = enabled
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.sample_every = max(int(sample_every), 1)
        self._id_rng = None
        self._id_pool: list[int] = []
        self._id_counter = 0
        self.clear()

    # -- identity -------------------------------------------------------
    def seed_ids(self, rng) -> None:
        """Draw span/trace IDs from a seeded ``numpy.random.Generator``.

        The runner installs the registry's dedicated ``"spans"`` stream
        so ID generation never perturbs any other component's draws.
        """
        self._id_rng = rng
        self._id_pool = []

    def _new_id(self) -> int:
        if self._id_rng is not None:
            pool = self._id_pool
            if not pool:
                self._id_pool = pool = self._id_rng.integers(
                    0, 2 ** 64, size=_ID_BLOCK, dtype="uint64").tolist()
                pool.reverse()
            return pool.pop()
        self._id_counter += 1
        return self._id_counter

    # -- recording ------------------------------------------------------
    @property
    def next_root_sampled(self) -> bool:
        """Whether the next :meth:`start_trace` records (a pure read, so
        a caller can skip building attrs for a root that is dropped)."""
        return self.enabled and not self.roots_seen % self.sample_every

    def _open(self, trace_id: int, parent: int, name: str, node: Any,
              start: Optional[float], keys: tuple, values: tuple,
              end: float = _NAN) -> int:
        row = len(self._start)
        self._trace.append(trace_id)
        self._sid.append(self._new_id())
        self._parent.append(parent)
        self._start.append(self.clock() if start is None else start)
        self._end.append(end)
        self._name.append(name)
        self._node.append(node)
        self._keys.append(keys)
        self._vals.append(values)
        self._fkeys.append(None)
        self._fvals.append(None)
        return row

    def start_trace(self, name: str, node: Any,
                    start: Optional[float] = None, keys: tuple = (),
                    values: tuple = ()) -> Optional[int]:
        """Open a root span (a new trace); ``None`` when off/unsampled.

        Attrs are ``keys`` (the call site's shape: one module-level
        tuple that every row of that shape shares) and ``values``."""
        if not self.enabled:
            return None
        self.roots_seen += 1
        if (self.roots_seen - 1) % self.sample_every:
            self.roots_dropped += 1
            return None
        self.roots_sampled += 1
        return self._open(self._new_id(), -1, name, node, start, keys,
                          values)

    def start_span(self, name: str, node: Any,
                   parent: Optional[int], start: Optional[float] = None,
                   keys: tuple = (), values: tuple = ()) -> Optional[int]:
        """Open a child span under ``parent`` (a span handle).

        ``parent=None`` returns ``None`` — that is how an unsampled (or
        span-off) trace silently turns off its whole subtree, locally
        and across the wire.
        """
        if not self.enabled or parent is None:
            return None
        return self._open(self._trace[parent], parent, name, node, start,
                          keys, values)

    def record(self, name: str, node: Any, parent: Optional[int],
               start: float, end: float, keys: tuple = (),
               values: tuple = ()) -> Optional[int]:
        """One-shot retroactive span (e.g. a site queue wait whose start
        is only known in hindsight); opened and finished atomically."""
        if not self.enabled or parent is None:
            return None
        return self._open(self._trace[parent], parent, name, node, start,
                          keys, values, end)

    def finish(self, span: Optional[int], end: Optional[float] = None,
               keys: tuple = (), values: tuple = ()) -> None:
        """Close a span; tolerant of ``None`` so call sites stay flat."""
        if span is None or self._end[span] == self._end[span]:
            return  # off, or already closed (first close wins)
        self._end[span] = self.clock() if end is None else end
        if keys:
            self._fkeys[span] = keys
            self._fvals[span] = values

    @staticmethod
    def ctx_of(span: Optional[int]) -> Optional[int]:
        """The wire context for a span: its handle (or ``None``)."""
        return span

    # -- inspection -----------------------------------------------------
    def __getitem__(self, row: int) -> Span:
        """The span at one handle, as a fresh :class:`Span`."""
        parent = self._parent[row]
        attrs = dict(zip(self._keys[row], self._vals[row]))
        if self._fkeys[row] is not None:
            attrs.update(zip(self._fkeys[row], self._fvals[row]))
        span = Span(f"{self._trace[row]:016x}", f"{self._sid[row]:016x}",
                    None if parent < 0 else f"{self._sid[parent]:016x}",
                    self._name[row], self._node[row], self._start[row],
                    attrs)
        end = self._end[row]
        if end == end:
            span.end = end
        return span

    def _rows(self, closed: Optional[bool] = None) -> Iterator[Span]:
        for row, end in enumerate(self._end):
            if closed is None or (end == end) is closed:
                yield self[row]

    @property
    def finished(self) -> list[Span]:
        """Closed spans."""
        return list(self._rows(True))

    @property
    def open_spans(self) -> list[Span]:
        """Spans started but never finished (orphans-to-be at export)."""
        return list(self._rows(False))

    def spans(self) -> list[Span]:
        """Every recorded span, in start order (a deterministic total
        order — same run, same list)."""
        return list(self._rows())

    def __len__(self) -> int:
        return len(self._start)

    def clear(self) -> None:
        self._trace, self._sid = array("Q"), array("Q")
        self._parent = array("q")
        self._start, self._end = array("d"), array("d")
        self._name, self._node, self._keys, self._vals = [], [], [], []
        self._fkeys, self._fvals = [], []
        self.roots_seen = self.roots_sampled = self.roots_dropped = 0

    # -- export ---------------------------------------------------------
    def to_dicts(self) -> list[dict]:
        return [s.to_dict() for s in self._rows()]

    def export_jsonl(self, path: str) -> int:
        """Write one span per line, row by row; identical runs give
        identical bytes.  Open spans are exported too, flagged
        ``"orphan": true`` — an orphan is information (severed causal
        chain), never noise to discard silently.
        """
        return write_jsonl(path, (s.to_dict() for s in self._rows()))

    def export_chrome(self, path: str) -> int:
        """Write Chrome ``trace_event`` JSON (load in Perfetto)."""
        return write_chrome(self.to_dicts(), path)


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

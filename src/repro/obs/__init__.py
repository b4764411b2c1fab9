"""Observability: structured tracing, counters, and histograms.

The paper's entire evaluation is *measurement* — DiPerF-style
throughput, response-time, and accuracy curves per decision point — so
the simulator carries a first-class observability layer rather than
ad-hoc print statements:

* :mod:`repro.obs.jsonl` — the one I/O path every artifact below
  shares: :class:`~repro.obs.jsonl.JsonlSink` is the only writer of a
  JSONL file (flush per row, byte offsets for restore verification,
  close-once) and :func:`~repro.obs.jsonl.read_jsonl` the only
  line-decode loop (file or growing tail; tolerant skips bad lines,
  strict raises :class:`~repro.obs.jsonl.JsonlError` naming
  ``path:lineno``).
* :mod:`repro.obs.trace` — a ring-buffered structured event trace
  (sim-time, node, kind, detail) with pluggable sinks.  Disabled by
  default; the hot layers guard every emission so the disabled cost is
  one attribute check.
* :mod:`repro.obs.counters` — always-on named counters and fixed-bucket
  histograms (p50/p90/p99 without numpy) collected in a
  :class:`~repro.obs.counters.MetricsRegistry`.
* :mod:`repro.obs.spans` — causal span tracing (Dapper-style context
  propagation over the DES transport): per-job lifecycle spans, DP
  decide spans annotated with view staleness, sync-round spans, with
  JSONL and Chrome ``trace_event`` export.  Opt-in, deterministically
  sampled, byte-identical across same-seed runs.
* :mod:`repro.obs.timeline` — the time-resolved telemetry plane: a
  DES-clock :class:`~repro.obs.timeline.TimelineSampler` taking one
  unified :meth:`~repro.obs.counters.MetricsRegistry.collect` pass per
  tick into a bounded series and a timeline file (what ``digruber top``
  replays or live-tails); sharded runs merge per-neighborhood rows
  into the same row schema.
* :mod:`repro.obs.flight` — the flight recorder: a bounded black box
  (trace tail, open spans, recent snapshots, kernel + checker state)
  dumped to ``flight-<seed>.json`` on crash, strict-check violation,
  or SIGTERM; analyzed by ``digruber postmortem``.

One :class:`~repro.obs.trace.Tracer` and one
:class:`~repro.obs.counters.MetricsRegistry` hang off every
:class:`~repro.sim.kernel.Simulator`; the transport, engine, sync
protocol, and monitor all emit through them, which is what makes the
formerly *silent* failure paths (dead periodic chains, leaked RPCs,
stale USLA usage) visible in the run summary.
"""

from repro.obs.counters import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
)
from repro.obs.flight import FlightRecorder, Terminated
from repro.obs.jsonl import JsonlError, JsonlSink, read_jsonl
from repro.obs.spans import Span, SpanRecorder, chrome_trace
from repro.obs.timeline import TimelineSampler, load_timeline
from repro.obs.trace import TraceEvent, Tracer

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonlError",
    "JsonlSink",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "Terminated",
    "TimelineSampler",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "load_timeline",
    "read_jsonl",
]

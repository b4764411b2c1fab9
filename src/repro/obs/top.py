"""``digruber top``: a live terminal dashboard over telemetry timelines.

Renders the :mod:`repro.obs.timeline` JSONL stream as a redrawing
text dashboard — decision-point table, grid-utilization sparkline,
kernel event rate, autoscale events — in two modes:

* **replay**: read a finished timeline file and page through its rows,
  optionally paced (``--speed`` sim-seconds per wall-second) or
  collapsed to the final frame (``--once``, what the CI smoke uses);
* **follow**: tail the file a live ``digruber run --telemetry FILE``
  process is writing, rendering each new row as it lands (the reader
  keeps a half-written last line buffered until the writer completes
  it).

Monolithic and sharded timelines carry the same registry-schema rows
(see :mod:`repro.obs.timeline`), so one frame builder serves both.

Pacing uses ``time.sleep`` only — the dashboard never *reads* a
wall clock, so the determinism lint stays clean without suppressions.
"""

from __future__ import annotations

import time
from typing import Optional, TextIO

from repro.metrics.ascii_plot import sparkline
from repro.obs.jsonl import read_jsonl
from repro.obs.timeline import header_of, load_timeline

__all__ = ["frames_from_rows", "render_frame", "replay", "follow"]

#: ANSI: cursor home + clear-to-end (redraw without scrollback spam).
_ANSI_REDRAW = "\x1b[H\x1b[J"


# -- normalization -----------------------------------------------------------

def _frame_from_registry_row(row: dict) -> dict:
    """One frame from a registry-schema timeline row."""
    gauges = row.get("gauges", {})
    dps: dict[str, dict] = {}
    for name, value in gauges.items():
        parts = name.split(".")
        if len(parts) == 3 and parts[0] == "dp":
            dps.setdefault(parts[2], {})[parts[1]] = value
    hists = row.get("histograms", {})
    for dp_id, d in dps.items():
        s = hists.get(f"dp.decide_s.{dp_id}")
        if s and s.get("p95") is not None:
            d["decide_p95_s"] = s["p95"]
    return {
        "t": row.get("t", 0.0),
        "dps": dps,
        "busy_cpus": gauges.get("grid.busy_cpus", 0),
        "total_cpus": gauges.get("grid.total_cpus", 0),
        "util": gauges.get("grid.util", 0.0),
        "queued_jobs": gauges.get("grid.queued_jobs", 0),
        "jobs_completed": gauges.get("grid.jobs_completed", 0),
        "n_dps": gauges.get("control.n_dps", len(dps)),
        "backlog": gauges.get("control.client_backlog", 0),
        "sync_lag_s": gauges.get("control.sync_lag_s", 0.0),
        "event_rate": gauges.get("kernel.event_rate", 0.0),
        "heap_len": gauges.get("kernel.heap_len", 0),
        "heap_dead_ratio": gauges.get("kernel.heap_dead_ratio", 0.0),
    }


def frames_from_rows(rows: list[dict]) -> list[dict]:
    """Normalize timeline rows into render frames, one per row."""
    return [_frame_from_registry_row(row) for row in rows]


# -- rendering ---------------------------------------------------------------

def _fmt(value, width: int = 8) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:>{width}.3g}"
    return f"{int(value):>{width}d}"


def render_frame(frame: dict, meta: dict, history: list[dict],
                 events: list[str], width: int = 72) -> str:
    """One dashboard frame as plain text (no ANSI — callers add it)."""
    t = frame["t"]
    duration = meta.get("duration_s") or 0.0
    pct = f" ({100.0 * t / duration:.0f}%)" if duration else ""
    lines = [
        f"digruber top — {meta.get('name', 'run')} "
        f"seed={meta.get('seed', '?')}  t={t:.0f}s{pct}",
        "=" * width,
    ]
    util = frame["util"]
    lines.append(
        f"grid   util {100.0 * util:5.1f}%  busy {_fmt(frame['busy_cpus'])}"
        f" / {_fmt(frame['total_cpus'])} cpus   site-queued "
        f"{_fmt(frame['queued_jobs'])}")
    utils = [f["util"] for f in history]
    lines.append("       [" + sparkline(utils, width=width - 9) + "]")
    lines.append(
        f"fleet  dps {int(frame['n_dps'])}  client-backlog "
        f"{_fmt(frame['backlog'])}  sync-lag {frame['sync_lag_s']:.3g}s  "
        f"kernel {frame['event_rate']:,.0f} ev/s "
        f"heap {int(frame['heap_len'])} "
        f"(dead {100.0 * frame['heap_dead_ratio']:.0f}%)")
    lines.append("-" * width)
    lines.append(f"{'DP':<8}{'on':>3}{'queue':>8}{'serving':>8}"
                 f"{'clients':>8}{'ops/s':>10}{'decide':>9}")
    for dp_id in sorted(frame["dps"]):
        d = frame["dps"][dp_id]
        decide = d.get("decide_p95_s", d.get("decide_mean_s"))
        lines.append(
            f"{dp_id:<8}"
            f"{'up' if d.get('online', 1.0) else 'DOWN':>3}"
            f"{_fmt(d.get('queue_depth', 0))}"
            f"{_fmt(d.get('in_service', 0))}"
            f"{_fmt(d.get('clients', 0))}"
            f"{d.get('ops_rate', d.get('ops', 0)):>10.4g}"
            + (f"{decide:>8.3g}s" if decide is not None else f"{'-':>9}"))
    if events:
        lines.append("-" * width)
        lines.append("events:")
        lines.extend(f"  {e}" for e in events[-5:])
    lines.append("=" * width)
    return "\n".join(lines) + "\n"


def _autoscale_events(history: list[dict]) -> list[str]:
    """Fleet-size / DP-liveness changes between consecutive frames."""
    out: list[str] = []
    prev: Optional[dict] = None
    for f in history:
        if prev is not None:
            a, b = int(prev["n_dps"]), int(f["n_dps"])
            if a != b:
                word = "scale-up" if b > a else "scale-down"
                out.append(f"t={f['t']:.0f}s {word}: {a} -> {b} DPs")
            for dp_id, d in f["dps"].items():
                was = prev["dps"].get(dp_id, {}).get("online", 1.0)
                now = d.get("online", 1.0)
                if was and not now:
                    out.append(f"t={f['t']:.0f}s {dp_id} went DOWN")
                elif now and not was:
                    out.append(f"t={f['t']:.0f}s {dp_id} back up")
        prev = f
    return out


# -- modes -------------------------------------------------------------------

def replay(path: str, speed: float = 0.0, once: bool = False,
           ansi: bool = False, out: Optional[TextIO] = None,
           max_frames: Optional[int] = None) -> int:
    """Replay a timeline file; returns the number of frames rendered.

    ``speed`` is sim-seconds per wall-second (0 = no pacing); ``once``
    renders only the final frame.  ``ansi`` redraws in place instead of
    appending frames.
    """
    import sys
    out = out if out is not None else sys.stdout
    meta, rows = load_timeline(path)
    frames = frames_from_rows(rows)
    if max_frames is not None:
        frames = frames[:max_frames]
    if not frames:
        out.write(f"{path}: no timeline rows\n")
        return 0
    if once:
        events = _autoscale_events(frames)
        out.write(render_frame(frames[-1], meta, frames, events))
        return 1
    history: list[dict] = []
    prev_t: Optional[float] = None
    for frame in frames:
        if speed > 0 and prev_t is not None and frame["t"] > prev_t:
            time.sleep((frame["t"] - prev_t) / speed)
        prev_t = frame["t"]
        history.append(frame)
        events = _autoscale_events(history)
        if ansi:
            out.write(_ANSI_REDRAW)
        out.write(render_frame(frame, meta, history, events))
        out.flush()
    return len(frames)


def follow(path: str, poll_s: float = 0.5,
           idle_polls: Optional[int] = 20, ansi: bool = False,
           out: Optional[TextIO] = None) -> int:
    """Attach to a timeline file a live run is writing; render rows as
    they land.  Returns the number of frames rendered."""
    import sys
    out = out if out is not None else sys.stdout
    meta: dict = {}
    history: list[dict] = []
    for doc in read_jsonl(path, tolerant=True, poll_s=poll_s,
                          idle_polls=idle_polls):
        header = header_of(doc)
        if header is not None:
            meta = header
            continue
        history.append(_frame_from_registry_row(doc))
        if ansi:
            out.write(_ANSI_REDRAW)
        out.write(render_frame(history[-1], meta, history,
                               _autoscale_events(history)))
        out.flush()
    return len(history)

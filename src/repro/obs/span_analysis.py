"""Offline analysis of exported span files (the ``digruber trace`` CLI).

Operates on the JSONL produced by
:meth:`~repro.obs.spans.SpanRecorder.export_jsonl` — one span dict per
line — so analyses run on artifacts without re-running the simulation.
Stdlib-only on purpose: a span file from a cluster run should be
inspectable anywhere.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from repro.metrics.report import format_table
from repro.obs.jsonl import read_jsonl
from repro.obs.spans import write_chrome

__all__ = ["load_spans", "analyze_report", "critical_path_report",
           "slowest_report", "export_chrome_file"]


#: The keys the analyses below index without ``.get``; a row lacking
#: one is a bad line to the reader, not a ``KeyError`` three calls deep.
_SPAN_KEYS = ("trace_id", "span_id", "parent_id", "name", "node", "start",
              "end", "attrs")


def load_spans(path: str, tolerant: bool = False) -> list[dict]:
    """Read a span JSONL export (order preserved).

    Strict by default: a malformed line raises
    :class:`~repro.obs.jsonl.JsonlError` with the path and line number,
    because silently dropping spans corrupts the critical-path
    analysis.  ``tolerant=True`` skips bad lines instead — for exports
    truncated mid-line by a killed run, where the valid prefix is still
    worth analyzing.
    """
    return list(read_jsonl(path, tolerant, require=_SPAN_KEYS))


def _duration(span: dict) -> Optional[float]:
    end = span.get("end")
    return None if end is None else end - span["start"]


def _children_index(spans: list[dict]) -> dict[Optional[str], list[dict]]:
    children: dict[Optional[str], list[dict]] = defaultdict(list)
    for s in spans:
        children[s.get("parent_id")].append(s)
    for kids in children.values():
        kids.sort(key=lambda s: (s["start"], s["span_id"]))
    return children


def _by_trace(spans: list[dict]) -> dict[str, list[dict]]:
    traces: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        traces[s["trace_id"]].append(s)
    return traces


def _stats_row(durations: list[float]) -> tuple:
    if not durations:
        return (0, None, None, None)
    return (len(durations), sum(durations) / len(durations),
            min(durations), max(durations))


def analyze_report(spans: list[dict]) -> str:
    """Aggregate report: span taxonomy, outcomes, staleness, sync lag."""
    if not spans:
        return "no spans"
    lines = []
    traces = _by_trace(spans)
    orphans = [s for s in spans if s.get("orphan")]
    lines.append(f"spans={len(spans)} traces={len(traces)} "
                 f"orphans={len(orphans)}")

    per_name: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        d = _duration(s)
        if d is not None:
            per_name[s["name"]].append(d)
    rows = [(name, *_stats_row(ds)) for name, ds in sorted(per_name.items())]
    lines.append(format_table(
        ("span", "count", "mean_s", "min_s", "max_s"), rows, col_width=12))

    outcomes: dict[str, int] = defaultdict(int)
    for s in spans:
        if s.get("parent_id") is None and s["name"] == "submit":
            outcomes[str(s["attrs"].get("outcome", "open"))] += 1
    if outcomes:
        lines.append("submit outcomes: " + " ".join(
            f"{k}={v}" for k, v in sorted(outcomes.items())))

    staleness = [s["attrs"]["staleness_s"] for s in spans
                 if s["name"] == "decide"
                 and s["attrs"].get("staleness_s") is not None]
    if staleness:
        n, mean, lo, hi = _stats_row(staleness)
        lines.append(f"decide staleness_s: n={n} mean={mean:.2f} "
                     f"min={lo:.2f} max={hi:.2f}")

    # Sync propagation: receive instant minus the round's start.
    by_id = {s["span_id"]: s for s in spans}
    lags = []
    for s in spans:
        if s["name"] != "sync.recv":
            continue
        parent = by_id.get(s.get("parent_id"))
        if parent is not None:
            lags.append(s["start"] - parent["start"])
    if lags:
        n, mean, lo, hi = _stats_row(lags)
        lines.append(f"sync round->recv lag_s: n={n} mean={mean:.3f} "
                     f"min={lo:.3f} max={hi:.3f}")
    return "\n".join(lines)


def _find_job_root(spans: list[dict], jid: int) -> Optional[dict]:
    for s in spans:
        if (s.get("parent_id") is None and s["name"] == "submit"
                and s["attrs"].get("jid") == jid):
            return s
    return None


def _render_tree(span: dict, children: dict, lines: list[str],
                 critical_ids: set, depth: int) -> None:
    d = _duration(span)
    dur = "open" if d is None else f"{d:.3f}s"
    attrs = span.get("attrs", {})
    notes = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    mark = "*" if span["span_id"] in critical_ids else " "
    lines.append(f"{mark} {'  ' * depth}{span['name']} "
                 f"[{span['node']}] t={span['start']:.3f} dur={dur}"
                 + (f"  {notes}" if notes else ""))
    for child in children.get(span["span_id"], []):
        _render_tree(child, children, lines, critical_ids, depth + 1)


def _critical_ids(root: dict, children: dict) -> set:
    """Span ids on the critical path: at each level, the child whose
    interval ends last (open children sort last — they never resolved)."""
    ids = {root["span_id"]}
    node = root
    while True:
        kids = children.get(node["span_id"], [])
        if not kids:
            return ids
        node = max(kids, key=lambda s: (s["end"] is None,
                                        s["end"] if s["end"] is not None
                                        else s["start"]))
        ids.add(node["span_id"])


def critical_path_report(spans: list[dict], jid: int) -> str:
    """The full causal tree for one job, critical path marked ``*``."""
    root = _find_job_root(spans, jid)
    if root is None:
        known = sorted(s["attrs"]["jid"] for s in spans
                       if s.get("parent_id") is None
                       and s["name"] == "submit"
                       and "jid" in s["attrs"])[:20]
        return (f"no submit trace for job {jid} "
                f"(first recorded jids: {known})")
    children = _children_index(spans)
    lines = [f"job {jid} trace {root['trace_id']} "
             f"(* = critical path, times are sim seconds)"]
    _render_tree(root, children, lines, _critical_ids(root, children), 0)
    return "\n".join(lines)


def slowest_report(spans: list[dict], n: int = 10) -> str:
    """The ``n`` slowest finished job traces by submit-root duration."""
    roots = [s for s in spans
             if s.get("parent_id") is None and s["name"] == "submit"
             and s.get("end") is not None]
    if not roots:
        return "no finished submit traces"
    roots.sort(key=lambda s: _duration(s), reverse=True)
    rows = []
    for s in roots[:n]:
        a = s["attrs"]
        rows.append((a.get("jid", "?"), s["node"], f"{_duration(s):.3f}",
                     str(a.get("outcome", "?")), a.get("vo", "?"),
                     str(a.get("dp", "?"))))
    return format_table(("jid", "host", "total_s", "outcome", "vo", "dp"),
                        rows, col_width=14)


def export_chrome_file(spans_path: str, out_path: str) -> int:
    """JSONL export → Chrome ``trace_event`` JSON (open in Perfetto)."""
    return write_chrome(load_spans(spans_path), out_path)

"""Flight recorder: a bounded black box dumped on abnormal exit.

A real brokering service that dies mid-run leaves operators a core
dump; a simulation that dies mid-run usually leaves nothing — the
in-memory trace ring, open spans, and checker state all evaporate with
the process.  The :class:`FlightRecorder` keeps references to the live
run (it records nothing per-event, so it is zero-cost while the run is
healthy) and, on crash / strict-check violation / SIGTERM, serializes
one bounded JSON "black box":

* run meta (config name, seed, sim time reached, abort reason);
* the exception (type, message, traceback text);
* kernel state (heap size, dead entries, events executed, processes);
* the newest N trace-ring events and every open span;
* the newest telemetry snapshots (when a timeline sampler is attached);
* per-DP deployment state and aggregate client state;
* checker tallies and the recorded violations.

``digruber postmortem <dump>`` renders the result; SIGTERM conversion
lives in :func:`install_sigterm_handler` (the CLI installs it so a
killed long run still leaves its box behind).
"""

from __future__ import annotations

import json
import signal
import traceback
from typing import Any, Optional

__all__ = ["FlightRecorder", "Terminated", "install_sigterm_handler",
           "abort_reason", "load_flight", "postmortem_report"]


class Terminated(BaseException):
    """SIGTERM, surfaced as an exception so ``finally`` blocks run.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) so
    ordinary ``except Exception`` recovery paths don't swallow it.
    """


def install_sigterm_handler() -> None:
    """Convert SIGTERM into a :class:`Terminated` raise.

    Only callable from the main thread (a CPython restriction on
    ``signal.signal``); the CLI run path installs it once, before the
    clock starts.
    """
    def _handler(signum, frame):  # pragma: no cover - needs a real signal
        raise Terminated(f"signal {signum}")
    signal.signal(signal.SIGTERM, _handler)


def abort_reason(exc: BaseException) -> str:
    """Classify an abort for the dump's ``reason`` field."""
    from repro.check.invariants import InvariantViolation
    if isinstance(exc, InvariantViolation):
        return "strict-check"
    if isinstance(exc, Terminated):
        return "sigterm"
    if isinstance(exc, KeyboardInterrupt):
        return "interrupt"
    return "crash"


class FlightRecorder:
    """Bounded black box over a built experiment.

    Holds references only — nothing is copied until :meth:`dump`, so an
    armed recorder adds zero work to a healthy run.
    """

    def __init__(self, built: Any, path: str,
                 last_n_trace: int = 256, last_n_snapshots: int = 16,
                 last_n_violations: int = 32):
        self.built = built
        self.path = path
        self.last_n_trace = last_n_trace
        self.last_n_snapshots = last_n_snapshots
        self.last_n_violations = last_n_violations
        self.dumped_to: Optional[str] = None

    # -- capture --------------------------------------------------------
    def snapshot(self, reason: str,
                 exc: Optional[BaseException] = None) -> dict:
        """Assemble the black-box document (pure read, JSON-ready)."""
        built = self.built
        sim = built.sim
        config = built.config
        doc: dict = {
            "flight": 1,  # format version
            "reason": reason,
            "meta": {
                "name": config.name,
                "seed": config.seed,
                "duration_s": config.duration_s,
                "decision_points": config.decision_points,
                "n_clients": config.n_clients,
                "t_abort": sim.now,
                "progress": (sim.now / config.duration_s
                             if config.duration_s else 0.0),
            },
            "kernel": {
                "events_executed": sim.events_executed,
                "heap_len": len(sim._heap),
                "heap_dead": sim._dead,
                "heap_peak": sim.heap_peak,
                "processes": len(sim._processes),
            },
        }
        if exc is not None:
            doc["exception"] = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": "".join(traceback.format_exception(
                    type(exc), exc, exc.__traceback__)),
            }
        doc["trace_tail"] = [ev.to_dict()
                             for ev in sim.trace.events()[-self.last_n_trace:]]
        doc["open_spans"] = [s.to_dict() for s in sim.spans.open_spans]
        sampler = getattr(built, "sampler", None)
        doc["snapshots"] = (sampler.tail(self.last_n_snapshots)
                            if sampler is not None else [])
        doc["deployment"] = {
            dp_id: {
                "online": bool(dp.online),
                "queue_depth": dp.container.queue_len,
                "in_service": dp.container.in_service,
                "completed_ops": dp.container.completed_ops,
            }
            for dp_id, dp in built.deployment.decision_points.items()
        }
        doc["clients"] = {
            "n": len(built.clients),
            "handled": sum(c.n_handled for c in built.clients),
            "timeouts": sum(c.n_fallback_timeout for c in built.clients),
            "backlogged": sum(c.backlog_len for c in built.clients),
        }
        checker = built.checker
        if checker is not None:
            doc["checker"] = {
                "checks_run": checker.checks_run,
                "strict": checker.strict,
                "n_violations": len(checker.violations),
                "violations": [
                    {"t": v.time, "rule": v.rule, "subject": v.subject,
                     "detail": v.detail}
                    for v in checker.violations[-self.last_n_violations:]
                ],
            }
        return doc

    def dump(self, reason: str,
             exc: Optional[BaseException] = None) -> str:
        """Write the black box; returns the path.  Never raises — the
        recorder must not mask the original failure."""
        try:
            doc = self.snapshot(reason, exc)
            with open(self.path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
            self.dumped_to = self.path
        except Exception:  # pragma: no cover - best-effort by contract
            pass
        return self.path


# -- postmortem analysis -----------------------------------------------------

def load_flight(path: str) -> dict:
    """Read a flight dump back, validating the format marker."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "flight" not in doc:
        raise ValueError(f"{path}: not a flight-recorder dump "
                         "(missing 'flight' format marker)")
    return doc


def postmortem_report(doc: dict) -> str:
    """Human-readable analysis of one flight dump.

    Leads with the abort cause and how far the run got, then works
    outward: checker violations, the last trace events before the
    abort, open spans (work in flight when the run died), deployment
    and kernel state, and the newest telemetry snapshots' headline
    gauges.
    """
    meta = doc.get("meta", {})
    lines = [
        f"== postmortem: {meta.get('name', '?')} "
        f"seed={meta.get('seed', '?')} ==",
        f"reason: {doc.get('reason', '?')}  aborted at "
        f"t={meta.get('t_abort', 0.0):.1f}s of {meta.get('duration_s', 0):g}s "
        f"({100.0 * meta.get('progress', 0.0):.0f}% through)",
    ]
    exc = doc.get("exception")
    if exc:
        lines.append(f"exception: {exc.get('type')}: {exc.get('message')}")
        tb = (exc.get("traceback") or "").strip().splitlines()
        if tb:
            lines.append("  " + tb[-1].strip())
    kernel = doc.get("kernel", {})
    lines.append(
        f"kernel: {kernel.get('events_executed', 0):,} events executed, "
        f"heap {kernel.get('heap_len', 0)} "
        f"(dead {kernel.get('heap_dead', 0)}, "
        f"peak {kernel.get('heap_peak', 0)}), "
        f"{kernel.get('processes', 0)} live processes")
    checker = doc.get("checker")
    if checker:
        lines.append(
            f"checker: {checker.get('n_violations', 0)} violation(s) over "
            f"{checker.get('checks_run', 0)} passes"
            + (" [strict]" if checker.get("strict") else ""))
        for v in checker.get("violations", [])[-5:]:
            lines.append(f"  [t={v['t']:.1f}] {v['rule']}({v['subject']}): "
                         f"{v['detail']}")
    dps = doc.get("deployment", {})
    if dps:
        lines.append("deployment:")
        for dp_id in sorted(dps):
            d = dps[dp_id]
            state = "up" if d.get("online") else "DOWN"
            lines.append(
                f"  {dp_id}: {state} queue={d.get('queue_depth', 0)} "
                f"serving={d.get('in_service', 0)} "
                f"ops={d.get('completed_ops', 0)}")
    clients = doc.get("clients", {})
    if clients:
        lines.append(
            f"clients: {clients.get('n', 0)} hosts, "
            f"handled={clients.get('handled', 0)} "
            f"timeouts={clients.get('timeouts', 0)} "
            f"backlogged={clients.get('backlogged', 0)}")
    spans = doc.get("open_spans", [])
    if spans:
        lines.append(f"open spans at abort ({len(spans)}):")
        for s in spans[:8]:
            lines.append(f"  {s.get('name', '?')} node={s.get('node', '?')} "
                         f"started t={s.get('start', 0.0):.1f}")
        if len(spans) > 8:
            lines.append(f"  ... and {len(spans) - 8} more")
    tail = doc.get("trace_tail", [])
    if tail:
        lines.append(f"last trace events ({len(tail)} captured):")
        for ev in tail[-8:]:
            lines.append(f"  [t={ev.get('t', 0.0):.3f}] {ev.get('kind')} "
                         f"node={ev.get('node')}")
    snaps = doc.get("snapshots", [])
    if snaps:
        last = snaps[-1]
        gauges = last.get("gauges", {})
        lines.append(
            f"telemetry: {len(snaps)} snapshot(s) captured, newest at "
            f"t={last.get('t', 0.0):.1f}s "
            f"(grid.util={gauges.get('grid.util', 0.0):.3g}, "
            f"backlog={gauges.get('control.client_backlog', 0):g})")
    return "\n".join(lines)

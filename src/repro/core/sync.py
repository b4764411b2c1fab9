"""Loose synchronization between decision points.

"Each decision point maintained a view of the ... environment via the
periodic exchange (every three minutes) with other decision points of
information about recent job dispatch operations."  Decision points are
"cooperating brokers that communicate via a flooding protocol".

Three dissemination strategies (paper §2.5):

* ``USAGE_AND_USLA`` — exchange dispatch records *and* USLA documents;
* ``USAGE_ONLY`` — exchange only dispatch records (the paper's focus:
  "an advantage of this approach is the simplified implementation by
  avoiding USLA tracking");
* ``NONE`` — no exchange; each decision point relies only on its own
  monitor and dispatches.

Flooding: each tick a decision point sends every record it has learned
recently (its own *and* relayed ones) to its overlay neighbors;
receivers deduplicate by ``(origin, seq)``.  On the paper's mesh this
converges in one exchange; on ring/line overlays (ablation benches)
information travels one hop per tick.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.core.state import DispatchRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.decision_point import DecisionPoint

__all__ = ["DisseminationStrategy", "SyncProtocol"]

#: Approximate wire size of one dispatch record, in KB (SOAP-encoded).
RECORD_KB = 0.05
#: Approximate wire size of one USLA document, in KB.
AGREEMENT_KB = 0.5
#: Span attr shapes (key tuples) of the sync spans.
_FLOOD_ATTRS, _NEIGHBORS = ("records", "neighbors"), ("neighbors",)
_KB, _ROUND_ATTRS = ("kb",), ("records", "kb")
_RECV_ATTRS = ("received", "adopted")


class DisseminationStrategy(enum.Enum):
    USAGE_AND_USLA = "usage_and_usla"
    USAGE_ONLY = "usage_only"
    NONE = "none"


class SyncProtocol:
    """Periodic state exchange for one decision point."""

    def __init__(self, dp: "DecisionPoint", interval_s: float = 180.0,
                 strategy: DisseminationStrategy = DisseminationStrategy.USAGE_ONLY,
                 jitter_s: float = 5.0, delta: bool = False):
        if interval_s <= 0:
            raise ValueError("sync interval must be > 0")
        self.dp = dp
        self.interval_s = interval_s
        self.strategy = strategy
        self.jitter_s = jitter_s
        self.delta = delta
        self.rounds_sent = 0
        self.records_sent = 0
        self.records_received = 0
        self.records_adopted = 0
        self.kb_sent = 0.0
        self._handle = None
        # Relay horizon: resend anything learned since two ticks ago so
        # multi-hop overlays keep flooding records outward.  The cutoff
        # derives from the *actual* previous tick times — a fixed
        # ``now - 2*interval`` horizon silently drops records whenever
        # jitter spaces consecutive ticks further apart than that (the
        # ring/line-overlay relay bug).  Seeded two ticks in the past so
        # the first real tick floods everything learned since t=0.
        self._last_ticks: deque[float] = deque(
            [-float("inf"), -float("inf")], maxlen=2)
        # Delta mode: per-peer learn-sequence watermarks, so each tick
        # ships only what that peer has not been sent yet instead of
        # re-flooding the whole horizon.  Changes payload sizes (hence
        # simulated transfer timing), so it is opt-in rather than part
        # of the result-preserving fast paths.
        self._peer_marks: dict[str, int] = {}

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self.strategy is DisseminationStrategy.NONE:
            return
        if self._handle is not None:
            raise RuntimeError("sync already started")
        # on_error="record": one bad exchange round must not kill the
        # flooding chain (the old behaviour permanently desynchronized
        # this decision point) — the kernel counts and traces it.
        self._handle = self.dp.sim.every(
            self.interval_s, self.tick,
            jitter=self.jitter_s, rng=self.dp.rng,
            on_error="record", name=f"sync:{self.dp.node_id}")

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def snapshot_state(self) -> dict:
        """Canonical sync-horizon state for snapshot digests (JSON-able)."""
        return {
            "rounds_sent": self.rounds_sent,
            "records_sent": self.records_sent,
            "records_received": self.records_received,
            "records_adopted": self.records_adopted,
            "kb_sent": self.kb_sent,
            "last_ticks": [None if t == -float("inf") else t
                           for t in self._last_ticks],
            "peer_marks": sorted(self._peer_marks.items()),
        }

    # -- send side ------------------------------------------------------------
    def tick(self) -> None:
        """One exchange round: push recent records to every neighbor.

        A private decision point (§2.3) relays what it learned from
        others but discloses nothing of its own: its local dispatch
        records and USLA store stay out of every payload.
        """
        dp = self.dp
        if self.delta:
            self._tick_delta()
            return
        # Everything learned since two ticks ago: each record is
        # flooded on exactly two consecutive rounds regardless of the
        # jittered spacing between them.
        cutoff = self._last_ticks[0]
        self._last_ticks.append(dp.sim.now)
        records = dp.engine.view.pending_records(newer_than=cutoff)
        if getattr(dp, "private", False):
            records = [r for r in records if r.origin != dp.engine.owner]
        payload: dict = {"records": records}
        size_kb = len(records) * RECORD_KB
        if (self.strategy is DisseminationStrategy.USAGE_AND_USLA
                and not getattr(dp, "private", False)):
            payload["uslas"] = dp.engine.usla_store.export()
            size_kb += len(dp.engine.usla_store) * AGREEMENT_KB
        spans = dp.sim.spans
        sspan = None
        if spans.enabled:
            # Sync rounds are trace roots: nothing upstream causes them.
            sspan = spans.start_trace("sync.flood", dp.node_id, None,
                                      _FLOOD_ATTRS,
                                      (len(records), len(dp.neighbors)))
        ctx = spans.ctx_of(sspan)
        for peer in dp.neighbors:
            dp.network.send_oneway(dp.node_id, peer, "sync", payload,
                                   size_kb=size_kb, trace_ctx=ctx)
        spans.finish(sspan, None, _KB, (size_kb * len(dp.neighbors),))
        self.rounds_sent += 1
        self.records_sent += len(records) * len(dp.neighbors)
        self.kb_sent += size_kb * len(dp.neighbors)
        dp.sim.trace.emit("sync.round", dp.node_id, records=len(records),
                          neighbors=len(dp.neighbors), kb=size_kb)

    def _tick_delta(self) -> None:
        """Delta exchange round: each peer gets only what it has not
        been sent before, tracked by an integer learn-sequence
        watermark (exact where float horizons are not — two records
        learned at the same instant straddle no boundary).

        The watermark advances per peer even when the send is an
        oneway best-effort message; a lost sync degrades to the next
        monitor refresh exactly as a lost flood round does.
        """
        dp = self.dp
        view = dp.engine.view
        private = getattr(dp, "private", False)
        uslas = None
        usla_kb = 0.0
        if self.strategy is DisseminationStrategy.USAGE_AND_USLA and not private:
            uslas = dp.engine.usla_store.export()
            usla_kb = len(dp.engine.usla_store) * AGREEMENT_KB
        spans = dp.sim.spans
        sspan = None
        if spans.enabled:
            sspan = spans.start_trace("sync.delta", dp.node_id, None,
                                      _NEIGHBORS, (len(dp.neighbors),))
        ctx = spans.ctx_of(sspan)
        round_records = 0
        round_kb = 0.0
        # In steady state every peer holds the same watermark: scan the
        # live table once per *distinct* one and share the list between
        # those peers' payloads (receivers only read it).
        since_mark: dict[int, tuple[int, list]] = {}
        for peer in dp.neighbors:
            since = self._peer_marks.get(peer, 0)
            if since not in since_mark:
                mark, records = view.records_since(since)
                if private:
                    records = [r for r in records
                               if r.origin != dp.engine.owner]
                since_mark[since] = mark, records
            self._peer_marks[peer], records = since_mark[since]
            payload: dict = {"records": records}
            size_kb = len(records) * RECORD_KB + usla_kb
            if uslas is not None:
                payload["uslas"] = uslas
            dp.network.send_oneway(dp.node_id, peer, "sync", payload,
                                   size_kb=size_kb, trace_ctx=ctx)
            round_records += len(records)
            round_kb += size_kb
        spans.finish(sspan, None, _ROUND_ATTRS, (round_records, round_kb))
        self.rounds_sent += 1
        self.records_sent += round_records
        self.kb_sent += round_kb
        dp.sim.trace.emit("sync.round", dp.node_id, records=round_records,
                          delta=True, neighbors=len(dp.neighbors),
                          kb=round_kb)

    # -- receive side -----------------------------------------------------------
    def on_sync(self, payload: dict, ctx=None) -> None:
        """Merge one incoming sync payload.

        ``ctx`` is the sender's round-span context; when both ends
        trace, the receive is recorded as an instantaneous child span,
        which is what ties propagation lag to a concrete flood round.
        """
        records: list[DispatchRecord] = payload.get("records", [])
        self.records_received += len(records)
        now = self.dp.sim.now
        adopted = self.dp.engine.merge_remote_records(records, now=now)
        self.records_adopted += adopted
        spans = self.dp.sim.spans
        if spans.enabled and ctx is not None:
            spans.record("sync.recv", self.dp.node_id, ctx, now, now,
                         _RECV_ATTRS, (len(records), adopted))
        self.dp.sim.trace.emit("sync.recv", self.dp.node_id,
                               received=len(records), adopted=adopted)
        if (self.strategy is DisseminationStrategy.USAGE_AND_USLA
                and "uslas" in payload):
            from repro.usla.store import UslaStore
            adopted = self.dp.engine.usla_store.merge_from(
                UslaStore.import_wire(payload["uslas"]))
            if adopted:
                self.dp.engine.invalidate_policy_cache()

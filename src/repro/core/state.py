"""A decision point's view of grid resource usage.

Per the paper's chosen dissemination model (§2.5, second approach),
"each decision point has complete static knowledge about available
resources, but not the latest resource utilizations".  The dynamic part
of the view is assembled from three information flows:

1. **own dispatches** — applied instantly when this decision point
   recommends a site;
2. **peer dispatch records** — applied when the periodic sync delivers
   them (this is the staleness the accuracy experiments measure);
3. **monitor refreshes** — ground-truth per-site snapshots from the
   site monitor, which reconcile whatever the record stream got wrong.

A dispatch record contributes busy CPUs from its dispatch time until
``assumed_job_lifetime_s`` later — the broker does not know real job
durations, so it ages records out at the workload's expected lifetime
(exactly what keeps estimates from ratcheting upward between monitor
sweeps).  To avoid double counting, each site's estimate is a *base*
(ground-truth busy CPUs at the last refresh) plus the live records
newer than that refresh; records are deduplicated by ``(origin, seq)``
so the flooding protocol can relay them along arbitrary overlays.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

__all__ = ["AvailabilityView", "DispatchRecord", "GridStateView", "as_view"]

_NEG_INF = -float("inf")


@dataclass(frozen=True)
class DispatchRecord:
    """One job-dispatch event, as exchanged between decision points."""

    origin: str      # decision point that made the recommendation
    seq: int         # per-origin sequence number (dedup key with origin)
    site: str
    vo: str
    cpus: int
    time: float      # dispatch instant
    group: str = ""  # VO group, for group-level USLA accounting (§4.1)

    @property
    def key(self) -> tuple[str, int]:
        return (self.origin, self.seq)

    @property
    def consumers(self) -> tuple[str, ...]:
        """USLA consumers this dispatch counts against (VO, VO.group)."""
        if self.group:
            return (self.vo, f"{self.vo}.{self.group}")
        return (self.vo,)


class AvailabilityView(Mapping):
    """The availability answer: estimated free CPUs per site, frozen.

    ``free`` is a float64 column labelled by the shared ``names`` tuple,
    *copied* into an immutable buffer at construction: a reply in flight
    must not see later dispatches (that staleness is what accuracy measures).
    """

    __slots__ = ("names", "free", "_index")

    def __init__(self, names: tuple, free: np.ndarray):
        self.names = names
        # bytes cannot be written through: a read-only float64 copy.
        self.free = np.frombuffer(np.asarray(free, float).tobytes())
        self._index: Optional[dict] = None  # built on first lookup

    def __getitem__(self, site: str) -> float:
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.names)}
        return float(self.free[self._index[site]])

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)


def as_view(availabilities) -> AvailabilityView:
    """A plain ``{site: free}`` mapping (tests, examples) coerced once."""
    if type(availabilities) is AvailabilityView:
        return availabilities
    return AvailabilityView(tuple(availabilities),
                            np.fromiter(availabilities.values(), float))


class GridStateView:
    """Staleness-aware per-site busy-CPU estimates.

    Parameters
    ----------
    site_capacities:
        Static knowledge: total CPUs per site (complete, per the paper).
    assumed_job_lifetime_s:
        How long a dispatch record is presumed to occupy its CPUs.
        Calibrate to the workload's mean job runtime.

    Three indexes keep the hot queries off the all-sites scan: a
    grid-wide expiry heap (:meth:`expire` costs O(records expired)), a
    learn-order ring (:meth:`pending_records` costs O(records learned
    since the cutoff)), and an incrementally-maintained free column
    (:meth:`free_map` is one array copy; see :class:`AvailabilityView`).
    """

    def __init__(self, site_capacities: dict[str, int],
                 assumed_job_lifetime_s: float = 900.0):
        if not site_capacities:
            raise ValueError("need at least one site")
        if assumed_job_lifetime_s <= 0:
            raise ValueError("assumed_job_lifetime_s must be > 0")
        self.capacities = dict(site_capacities)
        self.assumed_job_lifetime_s = assumed_job_lifetime_s
        # Base usage from the last monitor refresh.
        self._base_busy: dict[str, float] = {s: 0.0 for s in site_capacities}
        self._base_time: dict[str, float] = {s: -float("inf")
                                             for s in site_capacities}
        # Live records per site, as a min-heap on dispatch time so both
        # expiry and refresh absorption pop oldest-first.
        self._records: dict[str, list[tuple[float, int, DispatchRecord]]] = {
            s: [] for s in site_capacities}
        self._tiebreak = itertools.count()
        # Incremental sums so estimates are O(1) per site per query.
        self._extra_busy: dict[str, float] = {s: 0.0 for s in site_capacities}
        self._seen: set[tuple[str, int]] = set()
        # When *this node* learned each live record — the flooding relay
        # horizon keys off this, not the (possibly much older) dispatch
        # time, so records can travel any number of overlay hops.
        self._learned_at: dict[tuple[str, int], float] = {}
        # The live record *object* per key.  Key membership alone is not
        # a liveness test for index entries: an adversarial redelivery
        # can reuse a dropped record's key (dedup discards keys on
        # drop), leaving stale index entries whose key is live again.
        self._live_rec: dict[tuple[str, int], DispatchRecord] = {}
        # Per-(site, vo) incremental usage estimate for USLA filtering.
        # Entries are deleted when they return to zero — long sweeps
        # used to accumulate dead (site, consumer) keys forever.
        self._vo_busy: dict[tuple[str, str], float] = {}
        # Latest sim-time this view has witnessed (record learn times,
        # monitor refreshes, explicit expiries).  Callers that omit
        # ``now`` get expiry against this horizon instead of none at
        # all — stale records used to overstate VO usage forever on
        # that path.
        self.latest_time: float = -float("inf")
        # Freshness tracking for staleness annotations (decide spans):
        # the newest record-learn instant, grid-wide and per site, plus
        # the newest monitor-refresh instant.  Monotonic maxima, O(1)
        # to maintain — deliberately *not* reduced when records expire
        # ("when did I last learn anything?" is the question asked).
        self._last_learn_time: float = _NEG_INF
        self._last_refresh_time: float = _NEG_INF
        self._site_learn_time: dict[str, float] = {}
        # -- indexes ------------------------------------------------------
        # Grid-wide expiry heap, same (time, tiebreak) keys as the site
        # heaps.  Entries absorbed by a monitor refresh go stale here
        # and are skipped (liveness check) when their time passes.
        self._expiry_heap: list[tuple[float, int, DispatchRecord]] = []
        # Learn-order ring: (learn_seq, monotonic learn time, record).
        # Newest at the right; dead entries are pruned from the left.
        self._learn_log: deque[tuple[int, float, DispatchRecord]] = deque()
        self._learn_count = 0
        self._log_tail_time = _NEG_INF
        # Estimated free CPUs: one float64 column in ``capacities`` order,
        # maintained on every mutation so free_map() is an array copy.
        self._names: tuple = tuple(self.capacities)
        self._col: dict[str, int] = {s: i for i, s in enumerate(self._names)}
        self._free = np.fromiter(self.capacities.values(), float)
        self._subset: tuple = ((), np.empty(0, np.intp))  # last free_subset()

    def _update_free(self, site: str) -> None:
        """Re-derive one site's column entry, bit-identically to
        :meth:`estimated_busy` (same formula)."""
        cap = self.capacities[site]
        busy = self._base_busy[site] + self._extra_busy[site]
        if busy < 0.0:
            busy = 0.0
        elif busy > cap:
            busy = cap
        self._free[self._col[site]] = cap - busy

    # -- internal removal ----------------------------------------------------
    def _drop(self, rec: DispatchRecord) -> None:
        """Retract one record's contribution (already popped from heap)."""
        self._extra_busy[rec.site] -= rec.cpus
        vo_busy = self._vo_busy
        for consumer in rec.consumers:
            key = (rec.site, consumer)
            remaining = vo_busy.get(key, 0.0) - rec.cpus
            if remaining > 0.0:
                vo_busy[key] = remaining
            else:
                # Back to zero (CPU counts are ints, so sums are exact):
                # delete instead of keeping a 0.0 — or a tiny negative,
                # previously masked by max(..., 0.0) — forever.
                vo_busy.pop(key, None)
        self._learned_at.pop(rec.key, None)
        self._seen.discard(rec.key)
        if self._live_rec.get(rec.key) is rec:
            del self._live_rec[rec.key]
        self._update_free(rec.site)

    def _prune_log(self) -> None:
        """Drop dead entries from the learn ring's old end (amortized)."""
        log = self._learn_log
        live = self._live_rec
        while log and live.get(log[0][2].key) is not log[0][2]:
            log.popleft()
        # Safety valve for dead entries wedged behind a long-lived one.
        if len(log) > 64 and len(log) > 4 * len(self._learned_at):
            self._learn_log = deque(
                e for e in log if live.get(e[2].key) is e[2])

    def expire(self, now: float) -> int:
        """Age out records past the assumed job lifetime; returns count."""
        if now > self.latest_time:
            self.latest_time = now
        cutoff = now - self.assumed_job_lifetime_s
        dropped = 0
        # O(records expired): pop the grid-wide heap.  A live entry here
        # is necessarily its site heap's head — every earlier (time,
        # tiebreak) live record was popped (and dropped) first, and site
        # heaps hold live records only — so an entry is live iff its
        # unique tiebreak matches the site head's.  (A key-membership
        # test is not enough: entries absorbed by a monitor refresh go
        # stale here, and their key can be live again via a redelivered
        # record.)
        g = self._expiry_heap
        records = self._records
        while g and g[0][0] < cutoff:
            _, tb, rec = heapq.heappop(g)
            site_heap = records[rec.site]
            if site_heap and site_heap[0][1] == tb:
                heapq.heappop(site_heap)
                self._drop(rec)
                dropped += 1
        if dropped:
            self._prune_log()
        return dropped

    # -- updates -------------------------------------------------------------
    def apply_record(self, rec: DispatchRecord,
                     now: Optional[float] = None) -> bool:
        """Apply one dispatch record; returns False if already known.

        ``now`` stamps when this node learned the record (defaults to
        the dispatch time itself, appropriate for locally-originated
        records).  Records for unknown sites are rejected loudly —
        static knowledge is complete by assumption, so this indicates a
        bug.
        """
        if rec.site not in self.capacities:
            raise KeyError(f"dispatch record for unknown site {rec.site!r}")
        if rec.key in self._seen:
            return False
        learn_time = rec.time if now is None else now
        if learn_time > self.latest_time:
            self.latest_time = learn_time
        if rec.time <= self._base_time[rec.site]:
            # Already reflected in the monitor's ground truth.
            return False
        if learn_time - rec.time >= self.assumed_job_lifetime_s:
            # Arrived after its own expiry (very slow relay path).
            return False
        self._seen.add(rec.key)
        if learn_time > self._last_learn_time:
            self._last_learn_time = learn_time
        if learn_time > self._site_learn_time.get(rec.site, _NEG_INF):
            self._site_learn_time[rec.site] = learn_time
        entry = (rec.time, next(self._tiebreak), rec)
        heapq.heappush(self._records[rec.site], entry)
        heapq.heappush(self._expiry_heap, entry)
        self._extra_busy[rec.site] += rec.cpus
        self._learned_at[rec.key] = learn_time
        self._live_rec[rec.key] = rec
        # Learn ring: the stored time is clamped monotonic so reverse
        # scans can stop early; the exact per-record learn time stays
        # in _learned_at.
        self._learn_count += 1
        if learn_time > self._log_tail_time:
            self._log_tail_time = learn_time
        self._learn_log.append((self._learn_count, self._log_tail_time, rec))
        for consumer in rec.consumers:
            key = (rec.site, consumer)
            self._vo_busy[key] = self._vo_busy.get(key, 0.0) + rec.cpus
        self._update_free(rec.site)
        return True

    def apply_records(self, records: Iterable[DispatchRecord],
                      now: Optional[float] = None) -> int:
        return sum(1 for r in records if self.apply_record(r, now=now))

    def refresh_site(self, site: str, busy_cpus: float, now: float) -> None:
        """Monitor refresh: adopt ground truth for one site at ``now``.

        Records at or before the refresh instant are absorbed — their
        effect (if the job is still running) is inside the ground-truth
        number now.
        """
        if site not in self.capacities:
            raise KeyError(f"refresh for unknown site {site!r}")
        if now > self.latest_time:
            self.latest_time = now
        self._base_busy[site] = busy_cpus
        self._base_time[site] = now
        if now > self._last_refresh_time:
            self._last_refresh_time = now
        heap = self._records[site]
        while heap and heap[0][0] <= now:
            _, _, rec = heapq.heappop(heap)
            self._drop(rec)
        self._update_free(site)
        self._prune_log()

    def refresh_all(self, busy_by_site: dict[str, float], now: float) -> None:
        for site, busy in busy_by_site.items():
            self.refresh_site(site, busy, now)

    def extend_capacities(self, site_capacities: dict[str, int]) -> None:
        """Add static knowledge of more sites (no usage yet).

        The sharded runtime uses this to give every DP neighborhood the
        paper's "complete static knowledge about available resources"
        across the whole grid while its monitor only refreshes local
        sites; peer usage arrives as epoch-synced dispatch records.
        Already-known sites are left untouched.
        """
        for site, cap in site_capacities.items():
            if site in self.capacities:
                continue
            self._col[site] = len(self.capacities)
            self.capacities[site] = cap
            self._base_busy[site] = 0.0
            self._base_time[site] = -float("inf")
            self._records[site] = []
            self._extra_busy[site] = 0.0
        # Append-only: answers already given keep their names and copy.
        self._names = tuple(self.capacities)
        self._free = np.append(self._free, [
            self.capacities[s] for s in self._names[len(self._free):]])

    # -- queries ---------------------------------------------------------------
    def estimated_busy(self, site: str, now: Optional[float] = None) -> float:
        if now is not None:
            self.expire(now)
        busy = self._base_busy[site] + self._extra_busy[site]
        return min(max(busy, 0.0), self.capacities[site])

    def estimated_free(self, site: str, now: Optional[float] = None) -> float:
        return self.capacities[site] - self.estimated_busy(site, now)

    def estimated_vo_busy(self, site: str, vo: str,
                          now: Optional[float] = None) -> float:
        """Estimated busy CPUs attributed to ``vo`` (or ``vo.group``).

        ``now`` ages out stale records first — the same expiry
        :meth:`free_map` applies, so USLA headroom and free counts stay
        consistent with each other.
        """
        if now is not None:
            self.expire(now)
        return max(self._vo_busy.get((site, vo), 0.0), 0.0)

    def free_map(self, now: Optional[float] = None) -> AvailabilityView:
        """Estimated free CPUs for every site (the availability answer)."""
        if now is not None:
            self.expire(now)
        return AvailabilityView(self._names, self._free)

    def free_subset(self, sites, now: Optional[float] = None) -> AvailabilityView:
        """Like :meth:`free_map`, restricted to ``sites``, in their order.

        The sharded runtime's availability answers stay neighborhood-
        local even when the view carries grid-wide static knowledge.
        Values are bit-identical to the :meth:`free_map` entries; the
        column indexes are kept for the next call with the same tuple.
        """
        if now is not None:
            self.expire(now)
        if sites is not self._subset[0]:
            sites = tuple(sites)
            self._subset = (sites, np.array([self._col[s] for s in sites], np.intp))
        sites, idx = self._subset
        return AvailabilityView(sites, self._free[idx])

    def pending_records(self, newer_than: float) -> list[DispatchRecord]:
        """Live records this node *learned* after the cutoff.

        This is the sync payload selection: keying on learn time (not
        dispatch time) lets relayed records keep flooding outward on
        multi-hop overlays.
        """
        # Walk the learn ring newest-first; the stored times are
        # monotonic, so the first entry at or below the cutoff ends the
        # scan — O(records learned since the cutoff).  The clamped time
        # can only overshoot the real learn time, so the exact filter
        # below never loses a record to the break.
        learned = self._learned_at
        live = self._live_rec
        out = []
        for _, t_mono, rec in reversed(self._learn_log):
            if t_mono <= newer_than:
                break
            if (live.get(rec.key) is rec
                    and learned[rec.key] > newer_than):
                out.append(rec)
        out.reverse()
        return out

    def records_since(self, seq: int) -> tuple[int, list[DispatchRecord]]:
        """Live records learned after watermark ``seq``, oldest first.

        Returns ``(new_watermark, records)``.  Integer learn sequence
        numbers make per-peer delta sync exact where float learn times
        are not: two records learned at the same instant straddle no
        boundary.  Feed the returned watermark back on the next call.
        """
        live = self._live_rec
        out = []
        for learn_seq, _, rec in reversed(self._learn_log):
            if learn_seq <= seq:
                break
            if live.get(rec.key) is rec:
                out.append(rec)
        out.reverse()
        return self._learn_count, out

    def info_age_s(self, now: float,
                   site: Optional[str] = None) -> Optional[float]:
        """Sim-time age of this view's freshest information — the
        staleness that decide spans are annotated with.

        Grid-wide (``site=None``): time since the newest learned
        dispatch record or monitor refresh, whichever is fresher.  Per
        site: the same, restricted to records for (and refreshes of)
        that site.  ``None`` when the view has learned nothing yet
        (pre-start, or a just-restarted decision point).  Clamped at
        zero: information learned "now" has age 0 even with float fuzz.
        """
        if site is None:
            t = max(self._last_learn_time, self._last_refresh_time)
        else:
            t = max(self._site_learn_time.get(site, _NEG_INF),
                    self._base_time.get(site, _NEG_INF))
        if t == _NEG_INF:
            return None
        return max(now - t, 0.0)

    def audit(self) -> list[str]:
        """Internal-consistency check; returns problem descriptions.

        Strictly read-only (the invariant checker calls this between
        events): unlike the query surface, it never expires records, so
        a checked run stays event-identical to an unchecked one — an
        :meth:`expire` here would perturb subsequent sync payloads for
        relayed records.  CPU counts are ints, so the incremental sums
        must match their ground truth *exactly*.
        """
        problems: list[str] = []
        live_keys = set(self._live_rec)
        if live_keys != self._seen:
            problems.append(
                f"seen/live mismatch: {len(self._seen)} seen vs "
                f"{len(live_keys)} live")
        if live_keys != set(self._learned_at):
            problems.append(
                f"learned_at/live mismatch: {len(self._learned_at)} "
                f"learn stamps vs {len(live_keys)} live")
        vo_sums: dict[str, float] = {}
        for (site, consumer), busy in self._vo_busy.items():
            if busy <= 0.0:
                problems.append(
                    f"non-positive vo_busy[{site},{consumer}]={busy}")
            if "." not in consumer:  # plain VO; groups mirror their VO
                vo_sums[site] = vo_sums.get(site, 0.0) + busy
        for site, heap in self._records.items():
            extra = sum(rec.cpus for _, _, rec in heap)
            if extra != self._extra_busy[site]:
                problems.append(
                    f"extra_busy[{site}]={self._extra_busy[site]} but site "
                    f"heap holds {extra} CPUs")
            if vo_sums.get(site, 0.0) != self._extra_busy[site]:
                problems.append(
                    f"vo_busy sum {vo_sums.get(site, 0.0)} != "
                    f"extra_busy[{site}]={self._extra_busy[site]}")
            cap = self.capacities[site]
            base = self._base_busy[site]
            if not (0.0 <= base <= cap):
                problems.append(
                    f"base_busy[{site}]={base} outside [0, {cap}]")
            busy = min(max(base + self._extra_busy[site], 0.0), cap)
            free = float(self._free[self._col[site]])
            if free != cap - busy:
                problems.append(
                    f"free[{site}]={free} != recomputed {cap - busy}")
        if len(self._learn_log) < len(live_keys):
            problems.append(
                f"learn ring holds {len(self._learn_log)} entries for "
                f"{len(live_keys)} live records")
        return problems

    def snapshot_state(self) -> dict:
        """Canonical view state for snapshot digests (JSON-able).

        Records are keyed by their wire identity ``(origin, seq)`` plus
        dispatch facts; per-site heaps are flattened in sorted key order
        so internal heap layout cannot leak into the digest.  ``-inf``
        sentinels serialize as ``None``.
        """
        def _f(x: float):
            return None if x == _NEG_INF else x

        records = []
        for site in sorted(self._records):
            for time, _tb, rec in sorted(
                    self._records[site], key=lambda e: (e[0], e[1])):
                records.append([rec.origin, rec.seq, rec.site, rec.vo,
                                rec.cpus, rec.time, rec.group])
        return {
            "base_busy": sorted(self._base_busy.items()),
            "base_time": [[s, _f(t)] for s, t in sorted(self._base_time.items())],
            "records": records,
            "extra_busy": sorted(self._extra_busy.items()),
            "vo_busy": [[s, c, b] for (s, c), b in sorted(self._vo_busy.items())],
            "learn_count": self._learn_count,
            "latest_time": _f(self.latest_time),
            "last_learn_time": _f(self._last_learn_time),
            "last_refresh_time": _f(self._last_refresh_time),
            "n_seen": len(self._seen),
        }

    @property
    def n_sites(self) -> int:
        return len(self.capacities)

    @property
    def n_records(self) -> int:
        return sum(len(h) for h in self._records.values())

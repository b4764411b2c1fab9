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
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Optional, Union

import numpy as np

from repro.grid.builder import SiteIndex
from repro.sim.snapshot import utf8_array

__all__ = ["AvailabilityView", "DispatchRecord", "GridStateView", "as_view"]

_NEG_INF = -float("inf")
#: An answer shares the free column frozen in chunks of 64 sites.
_CHUNK_BITS = 6


@dataclass(frozen=True, slots=True)
class DispatchRecord:
    """One job-dispatch event, as exchanged between decision points.

    The same object is relayed to every view on the mesh, so the two
    derived identities every view reads are stored once at construction
    (outside equality, hash and ``repr``).
    """

    origin: str      # decision point that made the recommendation
    seq: int         # per-origin sequence number (dedup key with origin)
    site: str
    vo: str
    cpus: int
    time: float      # dispatch instant
    group: str = ""  # VO group, for group-level USLA accounting (§4.1)
    #: Dedup identity ``(origin, seq)``.
    key: tuple[str, int] = field(init=False, compare=False, repr=False)
    #: USLA consumers this dispatch counts against (VO, VO.group).
    consumers: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        vo = self.vo
        object.__setattr__(self, "key", (self.origin, self.seq))
        object.__setattr__(self, "consumers",
                           (vo, f"{vo}.{self.group}") if self.group else (vo,))


class AvailabilityView(Mapping):
    """The availability answer: estimated free CPUs per site, frozen.

    ``free`` is a read-only float64 column labelled by the shared
    ``names`` tuple, taken when the answer is: a reply in flight must not
    see later dispatches (that staleness is what accuracy measures).  An
    array is *copied* at construction; :meth:`of_chunks` shares frozen
    byte chunks instead and joins them when ``free`` is first read, so a
    reply never read is never joined.
    """

    __slots__ = ("names", "_free", "_chunks", "_index")

    def __init__(self, names: tuple, free):
        free = np.array(free, float)
        if len(free) != len(names):
            raise ValueError(
                f"{len(names)} site names for {len(free)} free values")
        free.flags.writeable = False
        self.names, self._free, self._chunks = names, free, None
        self._index: Optional[dict] = None  # built on first lookup

    @classmethod
    def of_chunks(cls, names: tuple, chunks: tuple) -> "AvailabilityView":
        """An answer over float64 ``bytes`` chunks, joined on first read."""
        answer = cls.__new__(cls)
        answer.names, answer._free, answer._chunks = names, None, chunks
        answer._index = None
        return answer

    @property
    def free(self) -> np.ndarray:
        if self._free is None:  # read-only: a view of immutable bytes
            self._free = np.frombuffer(b"".join(self._chunks))
            self._chunks = None
        return self._free

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
        Static knowledge (complete, per the paper): a grid's shared
        :class:`~repro.grid.builder.SiteIndex`, or ``{site: CPUs}``.
    assumed_job_lifetime_s:
        How long a dispatch record is presumed to occupy its CPUs.
        Calibrate to the workload's mean job runtime.

    Per-site usage is kept in lists by index column.  Three indexes keep
    the hot queries off the all-sites scan: a grid-wide expiry heap
    (:meth:`expire` costs O(records expired)), the live table's own
    insertion order (:meth:`pending_records` costs O(records learned since
    the cutoff)), and an incrementally-maintained free column
    (:meth:`free_map` re-freezes only the 64-site chunks written since its
    last answer; see :class:`AvailabilityView`).  A live record is ONE
    entry tuple ``(dispatch time, learn_seq, record, monotonic learn time,
    exact learn time)`` shared by its site heap, the expiry heap and the
    live table.
    """

    def __init__(self, site_capacities: Union[SiteIndex, Mapping[str, int]],
                 assumed_job_lifetime_s: float = 900.0):
        index = (site_capacities if type(site_capacities) is SiteIndex
                 else SiteIndex(site_capacities))
        if not index.names:
            raise ValueError("need at least one site")
        if assumed_job_lifetime_s <= 0:
            raise ValueError("assumed_job_lifetime_s must be > 0")
        self._index, self._col = index, index.col
        self.capacities: Mapping[str, int] = index.capacities  # read-only
        self.assumed_job_lifetime_s = assumed_job_lifetime_s
        n = len(index.names)
        # Base usage from the last monitor refresh.
        self._base_busy, self._base_time = [0.0] * n, [_NEG_INF] * n
        # Live records per site, as a min-heap on dispatch time so both
        # expiry and refresh absorption pop oldest-first (the unique
        # learn_seq breaks ties, so later entry fields never compare);
        # created by the site's first record.
        self._records: list[Optional[list[tuple]]] = [None] * n
        # Incremental sums so estimates are O(1) per site per query.
        self._extra_busy: list[float] = [0.0] * n
        # The live entry per key — the only keyed container: its key set
        # is the dedup set, and since a dict keeps insertion order its
        # values are the live records in learn order, newest last.  When
        # *this node* learned a record is what the flooding relay horizon
        # keys off, not the (possibly much older) dispatch time, so
        # records can travel any number of overlay hops.  Dedup discards
        # keys on drop, so a redelivered key is a new entry at the end.
        self._live: dict[tuple[str, int], tuple] = {}
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
        self._site_learn_time: list[float] = [_NEG_INF] * n
        # -- indexes ------------------------------------------------------
        # Grid-wide expiry heap of the same entries as the site heaps.
        # Entries absorbed by a monitor refresh go stale here, counted by
        # ``_absorbed``, until their time passes or refresh_all compacts.
        self._expiry_heap: list[tuple] = []
        self._absorbed = 0
        # Records ever adopted: the delta-sync watermark.
        self._learn_count = 0
        # Estimated free CPUs in index order, maintained on every mutation;
        # each version makes at most one answer.  No chunk has a frozen
        # copy yet (``_frozen``), so every chunk is written since its last
        # one (``_dirty``).
        self._free = np.array(index.caps, float)
        n_chunks = -(-n >> _CHUNK_BITS)  # rounded up
        self._frozen: list = [None] * n_chunks
        self._dirty = set(range(n_chunks))
        self._answer: Optional[AvailabilityView] = None

    def _update_free(self, i: int) -> None:
        """Re-derive column ``i``'s entry, bit-identically to
        :meth:`estimated_busy` (same formula); retires the answer."""
        cap = self._index.caps[i]
        busy = self._base_busy[i] + self._extra_busy[i]
        if busy < 0.0:
            busy = 0.0
        elif busy > cap:
            busy = cap
        self._free[i] = cap - busy
        self._dirty.add(i >> _CHUNK_BITS)
        self._answer = None

    # -- internal removal ----------------------------------------------------
    def _forget(self, rec: DispatchRecord) -> None:
        """Retract one record (already popped from its site heap) from
        the per-consumer sums and the live table; the caller settles the
        site's ``_extra_busy`` and free column."""
        site, cpus = rec.site, rec.cpus
        vo_busy = self._vo_busy
        for consumer in rec.consumers:
            key = (site, consumer)
            remaining = vo_busy.get(key, 0.0) - cpus
            if remaining > 0.0:
                vo_busy[key] = remaining
            else:
                # Back to zero (CPU counts are ints, so sums are exact):
                # delete instead of keeping a 0.0 — or a tiny negative,
                # previously masked by max(..., 0.0) — forever.
                vo_busy.pop(key, None)
        del self._live[rec.key]

    def expire(self, now: float) -> int:
        """Age out records past the assumed job lifetime; returns count."""
        if now > self.latest_time:
            self.latest_time = now
        cutoff = now - self.assumed_job_lifetime_s
        dropped = 0
        # O(records expired): pop the grid-wide heap.  A live entry here
        # is necessarily its site heap's head — every earlier (time,
        # learn_seq) live record was popped (and dropped) first, and site
        # heaps hold live records only.  (A key-membership test is not
        # enough: entries absorbed by a monitor refresh go stale here,
        # and their key can be live again via a redelivered record.)
        g = self._expiry_heap
        records, col = self._records, self._col
        while g and g[0][0] < cutoff:
            entry = heapq.heappop(g)
            rec = entry[2]
            i = col[rec.site]
            site_heap = records[i]
            if site_heap and site_heap[0] is entry:
                heapq.heappop(site_heap)
                self._extra_busy[i] -= rec.cpus
                self._forget(rec)
                self._update_free(i)
                dropped += 1
            else:
                self._absorbed -= 1
        return dropped

    # -- updates -------------------------------------------------------------
    def apply_record(self, rec: DispatchRecord,
                     now: Optional[float] = None) -> bool:
        """Apply one dispatch record; returns False if already known
        (the one-element case of :meth:`apply_records`)."""
        return (rec.key not in self._live
                and self._adopt(rec, rec.time if now is None else now))

    def apply_records(self, records: Iterable[DispatchRecord],
                      now: Optional[float] = None) -> list[DispatchRecord]:
        """Apply a sync payload; returns the adopted records, in order.

        ``now`` stamps when this node learned the records (defaults to
        each record's own dispatch time, appropriate for locally-
        originated records).  On a mesh most of a payload is echoes of
        records this view already holds: those cost one probe of the
        live table and nothing else — in particular they do not advance
        ``latest_time``.  A new record that is rejected (absorbed by a
        monitor refresh, or older than the assumed lifetime) does; a key
        repeated inside the payload is adopted once.  A new record for
        an unknown site raises ``KeyError`` with the records before it
        applied — static knowledge is complete by assumption, so this
        indicates a bug.
        """
        live, adopt = self._live, self._adopt
        return [r for r in records if r.key not in live
                and adopt(r, r.time if now is None else now)]

    def _adopt(self, rec: DispatchRecord, learn_time: float) -> bool:
        """Adopt one record whose key is not live; False if rejected."""
        site, time = rec.site, rec.time
        i = self._col.get(site)
        if i is None:
            raise KeyError(f"dispatch record for unknown site {site!r}")
        if learn_time > self.latest_time:
            self.latest_time = learn_time
        if time <= self._base_time[i]:
            return False  # already reflected in the monitor's ground truth
        if learn_time - time >= self.assumed_job_lifetime_s:
            return False  # arrived after its own expiry (very slow relay)
        if learn_time > self._last_learn_time:
            self._last_learn_time = learn_time
        if learn_time > self._site_learn_time[i]:
            self._site_learn_time[i] = learn_time
        # The first learn time is clamped monotonic (the running maximum)
        # so reverse scans of the live table can stop early; the exact
        # one rides beside it.
        self._learn_count += 1
        entry = self._live[rec.key] = (time, self._learn_count, rec,
                                       self._last_learn_time, learn_time)
        site_heap = self._records[i]
        if site_heap is None:
            site_heap = self._records[i] = []
        heapq.heappush(site_heap, entry)
        heapq.heappush(self._expiry_heap, entry)
        cpus = rec.cpus
        self._extra_busy[i] += cpus
        vo_busy = self._vo_busy
        for consumer in rec.consumers:
            key = (site, consumer)
            vo_busy[key] = vo_busy.get(key, 0.0) + cpus
        self._update_free(i)
        return True

    def refresh_site(self, site: str, busy_cpus: float, now: float) -> None:
        """Monitor refresh of one site (see :meth:`refresh_all`)."""
        self.refresh_all({site: busy_cpus}, now)

    def refresh_all(self, busy_by_site: dict[str, float], now: float) -> None:
        """Monitor sweep: adopt ground truth for these sites at ``now``.

        Records at or before the refresh instant are absorbed — their
        effect (if the job is still running) is inside the ground-truth
        number now.  One pass: the horizons are stamped once and each
        site's absorbed CPUs leave ``_extra_busy`` as one (exact, integer)
        sum.  Once absorbed entries outnumber live ones in the expiry
        heap, it is rebuilt from the live table (amortized O(1) each).
        """
        col = self._col
        if not busy_by_site.keys() <= col.keys():
            ghost = next(s for s in busy_by_site if s not in col)
            raise KeyError(f"refresh for unknown site {ghost!r}")
        if not busy_by_site:
            return
        if now > self.latest_time:
            self.latest_time = now
        if now > self._last_refresh_time:
            self._last_refresh_time = now
        base_busy, base_time = self._base_busy, self._base_time
        site_heaps, extra_busy = self._records, self._extra_busy
        heappop, forget, update_free = (heapq.heappop, self._forget,
                                        self._update_free)
        n_live = len(self._live)
        for site, busy in busy_by_site.items():
            i = col[site]
            base_busy[i] = busy
            base_time[i] = now
            heap = site_heaps[i]
            absorbed = 0
            while heap and heap[0][0] <= now:
                rec = heappop(heap)[2]
                absorbed += rec.cpus
                forget(rec)
            if absorbed:
                extra_busy[i] -= absorbed
            update_free(i)
        self._absorbed += n_live - len(self._live)
        if self._absorbed > len(self._live):
            self._expiry_heap = list(self._live.values())
            heapq.heapify(self._expiry_heap)
            self._absorbed = 0

    # -- queries ---------------------------------------------------------------
    def estimated_busy(self, site: str, now: Optional[float] = None) -> float:
        if now is not None:
            self.expire(now)
        i = self._col[site]
        busy = self._base_busy[i] + self._extra_busy[i]
        return min(max(busy, 0.0), self._index.caps[i])

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
        """Estimated free CPUs per site: one frozen answer per version,
        sharing every chunk not written since the last answer."""
        if now is not None:
            self.expire(now)
        if self._answer is None:
            free, frozen = self._free, self._frozen
            for c in self._dirty:
                lo = c << _CHUNK_BITS
                frozen[c] = free[lo:lo + (1 << _CHUNK_BITS)].tobytes()
            self._dirty.clear()
            self._answer = AvailabilityView.of_chunks(self._index.names,
                                                      tuple(frozen))
        return self._answer

    def pending_records(self, newer_than: float) -> list[DispatchRecord]:
        """Live records this node *learned* after the cutoff.

        This is the sync payload selection: keying on learn time (not
        dispatch time) lets relayed records keep flooding outward on
        multi-hop overlays.
        """
        # Walk the live table newest-first; the clamped times are
        # monotonic, so the first entry at or below the cutoff ends the
        # scan — O(records learned since the cutoff).  The clamped time
        # can only overshoot the real learn time, so the exact filter
        # below never loses a record to the break.
        out = []
        for _, _, rec, t_mono, learn_time in reversed(self._live.values()):
            if t_mono <= newer_than:
                break
            if learn_time > newer_than:
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
        out = []
        for entry in reversed(self._live.values()):
            if entry[1] <= seq:
                break
            out.append(entry[2])
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
        elif (i := self._col.get(site)) is None:
            t = _NEG_INF
        else:
            t = max(self._site_learn_time[i], self._base_time[i])
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
        must match their ground truth *exactly*.  Per-site facts are
        compared as float64 columns (the scalar rules' IEEE operations);
        only a flagged site runs the scalar rules to word its problems.
        """
        return self._audit()[0]

    def _audit(self, bound_tol: Optional[float] = None
               ) -> tuple[list[str], list[tuple]]:
        """:meth:`audit`'s problems and, given ``bound_tol``, in the same
        walk of the per-consumer sums, each ``(site, consumer, busy)``
        whose busy exceeds its site's estimate by more than that."""
        problems: list[str] = []
        over: list[tuple] = []
        vo_sums: dict[str, float] = {}
        extra_busy, col = self._extra_busy, self._col
        check_bound = bound_tol is not None
        for (site, consumer), busy in self._vo_busy.items():
            if busy <= 0.0:
                problems.append(
                    f"non-positive vo_busy[{site},{consumer}]={busy}")
            if "." not in consumer:  # plain VO; groups mirror their VO
                vo_sums[site] = vo_sums.get(site, 0.0) + busy
            if check_bound and busy > extra_busy[col[site]] + bound_tol:
                over.append((site, consumer, busy))
        # Per-site lists and the free column share the index's columns.
        names, n = self._index.names, len(self._index.names)
        heap = np.array([sum([entry[2].cpus for entry in h]) if h else 0
                         for h in self._records], float)
        extra = np.array(extra_busy, float)
        vo = np.fromiter(map(vo_sums.get, names, repeat(0.0)), float, n)
        base = np.array(self._base_busy, float)
        cap = np.array(self._index.caps, float)
        used = np.minimum(np.maximum(base + extra, 0.0), cap)
        flagged = ((heap != extra) | (vo != extra) | ~(0.0 <= base)
                   | ~(base <= cap) | (self._free != cap - used))
        for i in np.flatnonzero(flagged).tolist():
            self._audit_site(i, vo_sums.get(names[i], 0.0), problems)
        if len(self._live) != self.n_records:
            problems.append(
                f"live table holds {len(self._live)} records but the site "
                f"heaps hold {self.n_records}")
        if len(self._expiry_heap) != len(self._live) + self._absorbed:
            problems.append(
                f"expiry heap holds {len(self._expiry_heap)} entries but "
                f"live + absorbed = {len(self._live) + self._absorbed}")
        return problems, over

    def _audit_site(self, i: int, vo_sum: float,
                    problems: list[str]) -> None:
        """The per-site rules of :meth:`audit` for column ``i``, worded."""
        site = self._index.names[i]
        extra = sum(entry[2].cpus for entry in self._records[i] or ())
        if extra != self._extra_busy[i]:
            problems.append(
                f"extra_busy[{site}]={self._extra_busy[i]} but site "
                f"heap holds {extra} CPUs")
        if vo_sum != self._extra_busy[i]:
            problems.append(
                f"vo_busy sum {vo_sum} != "
                f"extra_busy[{site}]={self._extra_busy[i]}")
        cap = self._index.caps[i]
        base = self._base_busy[i]
        if not (0.0 <= base <= cap):
            problems.append(
                f"base_busy[{site}]={base} outside [0, {cap}]")
        busy = min(max(base + self._extra_busy[i], 0.0), cap)
        free = float(self._free[i])
        if free != cap - busy:
            problems.append(
                f"free[{site}]={free} != recomputed {cap - busy}")

    def snapshot_state(self) -> dict:
        """Canonical view state for snapshot digests.

        Per-site columns (in name order), the live records and the
        per-consumer sums (by ``(site, consumer)``) as little-endian
        arrays.  A record is its wire identity ``(origin, seq)``, its
        dispatch facts and its learn sequence, in learn order — the live
        table's own order, which sync payloads are cut from — so no heap
        layout reaches the digest.  ``-inf`` horizons serialize as
        ``None``.
        """
        def _f(x: float):
            return None if x == _NEG_INF else x

        names = utf8_array(self._index.names)
        by_name = np.argsort(names)
        entries = list(self._live.values())
        recs = [entry[2] for entry in entries]
        key_site = utf8_array(key[0] for key in self._vo_busy)
        consumer = utf8_array(key[1] for key in self._vo_busy)
        by_key = np.lexsort((consumer, key_site))

        def per_site(values):
            return np.array(values, "<f8")[by_name]

        return {
            "sites": {
                "name": names[by_name],
                "base_busy": per_site(self._base_busy),
                "base_time": per_site(self._base_time),
                "extra_busy": per_site(self._extra_busy),
            },
            "records": {
                **{attr: utf8_array(getattr(r, attr) for r in recs)
                   for attr in ("origin", "site", "vo", "group")},
                "seq": np.array([r.seq for r in recs], "<i8"),
                "cpus": np.array([r.cpus for r in recs], "<i8"),
                "time": np.array([r.time for r in recs], "<f8"),
                "learn_seq": np.array([entry[1] for entry in entries], "<i8"),
            },
            "vo_busy": {
                "site": key_site[by_key],
                "consumer": consumer[by_key],
                "busy": np.fromiter(self._vo_busy.values(), "<f8",
                                    len(self._vo_busy))[by_key],
            },
            "learn_count": self._learn_count,
            "latest_time": _f(self.latest_time),
            "last_learn_time": _f(self._last_learn_time),
            "last_refresh_time": _f(self._last_refresh_time),
            "n_seen": len(self._live),
        }

    @property
    def n_sites(self) -> int:
        return len(self._index.names)

    @property
    def n_records(self) -> int:
        return sum(len(h) for h in self._records if h)

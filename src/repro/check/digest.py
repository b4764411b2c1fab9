"""Incremental state digests and divergence bisection.

An :class:`EventJournal` records semantic simulation events — dispatch
decisions, record adoptions, site transitions — as a chain of CRC32
digests: every entry's digest covers its own payload *and* the digest
of the entry before it.  Two runs that executed the same semantic
events therefore end with the same final digest, and any divergence is
locatable by **binary search over digest prefixes**
(:func:`first_divergence`, O(log n) comparisons) instead of a linear
walk.

Design constraints, learned the hard way:

* Journal entries hash *semantic* state transitions, not kernel event
  ids or heap ordering — how a plane schedules its own bookkeeping
  must not register as divergence.
* Span/trace context rides along as an ``ctx`` side-field **excluded**
  from the digest and from comparison — a spans-on run must compare
  equal to a spans-off run, but a divergence report should still name
  the span that covered the first divergent event.
* Payload details must be order-independent where the underlying
  collection is (adopted record batches are hashed as sorted key
  tuples).

Probes are installed by :func:`install_probes` and are strictly
read-only with respect to the simulation: no RNG draws, no scheduled
events, no query that mutates view state.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["EventJournal", "JournalEntry", "first_divergence",
           "install_probes"]


@dataclass(frozen=True)
class JournalEntry:
    """One semantic event in the digest chain.

    ``crc`` is the chained digest *up to and including* this entry;
    ``ctx`` (span context or other provenance) is excluded from the
    digest and from equality so observability toggles never register
    as divergence.
    """

    index: int
    time: float
    kind: str
    detail: str
    crc: int
    ctx: str = ""

    def describe(self) -> str:
        s = f"#{self.index} t={self.time:.6f} {self.kind} {self.detail}"
        if self.ctx:
            s += f"  [{self.ctx}]"
        return s


class EventJournal:
    """Append-only chained-CRC journal of semantic events."""

    def __init__(self) -> None:
        self.entries: list[JournalEntry] = []
        self._crc = 0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def digest(self) -> int:
        """Chained digest over everything recorded so far."""
        return self._crc

    def record(self, time: float, kind: str, detail: str,
               ctx: str = "") -> JournalEntry:
        # repr() of the float keeps full precision and is stable across
        # processes (unlike str() of ints vs numpy scalars upstream —
        # callers are expected to hand in plain types).
        payload = f"{time!r}|{kind}|{detail}".encode()
        self._crc = zlib.crc32(payload, self._crc)
        entry = JournalEntry(index=len(self.entries), time=time, kind=kind,
                             detail=detail, crc=self._crc, ctx=ctx)
        self.entries.append(entry)
        return entry

    def crc_at(self, n: int) -> int:
        """Digest of the first ``n`` entries (0 => empty chain)."""
        if n <= 0:
            return 0
        return self.entries[min(n, len(self.entries)) - 1].crc


def first_divergence(a: EventJournal, b: EventJournal
                     ) -> Optional[tuple[Optional[JournalEntry],
                                         Optional[JournalEntry]]]:
    """Locate the first entry where two journals part ways.

    Returns ``None`` when the journals are identical, else the pair of
    entries at the first divergent index (an element is ``None`` when
    that journal is a strict prefix of the other).  Because each
    entry's crc digests the whole prefix, equality of ``crc_at(n)``
    means equality of the first ``n`` entries, so a binary search over
    prefix digests finds the split point in O(log n) comparisons.
    """
    common = min(len(a), len(b))
    if a.crc_at(common) == b.crc_at(common):
        if len(a) == len(b):
            return None
        # One journal is a clean prefix of the other; the first extra
        # entry is the divergence.
        longer = a if len(a) > len(b) else b
        extra = longer.entries[common]
        return (extra, None) if longer is a else (None, extra)
    lo, hi = 0, common  # crc_at(lo) equal, crc_at(hi) differs
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a.crc_at(mid) == b.crc_at(mid):
            lo = mid
        else:
            hi = mid
    return a.entries[hi - 1], b.entries[hi - 1]


# ---------------------------------------------------------------------------
# Probe installation


def _fmt_cpu(x: Any) -> str:
    # Site CPU counts are ints; keep the formatting explicit so a
    # numpy int on one side and a python int on the other can never
    # produce different reprs.
    return str(int(x))


def install_probes(journal: EventJournal, *, deployment,
                   sites=()) -> None:
    """Wire a journal into a constructed (not yet run) experiment.

    The journal subscribes once to the simulator's event stream
    (:class:`~repro.obs.trace.Tracer`) and formats the kinds it
    journals: ``engine.dispatch`` as ``rec.local``, ``engine.adopt`` as
    ``rec.adopt`` (the sorted adopted key set) and
    ``control.scale_up``/``control.scale_down`` as ``ctl.scale`` — so a
    decision point deployed mid-run journals like the first ones.  Each
    site's lifecycle observer lists get start/complete probes hashing
    the job id, VO, CPU delta, and resulting busy level.

    Probes never draw randomness and never schedule events, so an
    instrumented run executes the exact same event sequence as a bare
    one.
    """
    record = journal.record

    def _on_event(ev) -> None:
        kind, d = ev.kind, ev.detail
        if kind == "engine.dispatch":
            record(ev.time, "rec.local", f"{ev.node}|{d['site']}|{d['vo']}"
                   f"|cpus={int(d['cpus'])}|seq={d['seq']}")
        elif kind == "engine.adopt":
            record(ev.time, "rec.adopt", f"{ev.node}|{d['keys']}")
        elif kind in ("control.scale_up", "control.scale_down"):
            record(ev.time, "ctl.scale",
                   f"{kind[len('control.'):]}|{d['n_before']}->{d['n_after']}"
                   f"|dps={d['dps']}|moved={d['moved']}"
                   f"|deferred={d['deferred']}")

    deployment.sim.trace.subscribe(_on_event)

    def _job_ctx(job, spans) -> str:
        # The dispatch span context the client stamped on the job, when
        # span tracing is on.  Excluded from the digest; surfaces in
        # divergence reports so the first divergent event names its
        # causal chain.
        ctx = getattr(job, "trace_ctx", None)
        if ctx is not None:
            span = spans[ctx]
            return f"trace={span.trace_id} span={span.span_id}"
        return ""

    for site in sites:
        def _on_started(job, *, _site=site):
            record(_site.sim.now, "site.start",
                   f"{_site.name}|{job.jid}|{job.vo}|cpus={_fmt_cpu(job.cpus)}"
                   f"|busy={_fmt_cpu(_site.busy_cpus)}",
                   ctx=_job_ctx(job, _site.sim.spans))

        def _on_completed(job, *, _site=site):
            record(_site.sim.now, "site.done",
                   f"{_site.name}|{job.jid}|{job.state.name}"
                   f"|busy={_fmt_cpu(_site.busy_cpus)}",
                   ctx=_job_ctx(job, _site.sim.spans))

        site.on_job_started.append(_on_started)
        site.on_job_completed.append(_on_completed)

"""Always-on counters and fixed-bucket histograms (no numpy).

The GridSim lineage of simulation toolkits earns trust through built-in
statistics recording; here every :class:`~repro.sim.kernel.Simulator`
carries a :class:`MetricsRegistry` that the transport, kernel, and
brokering layers feed.  Histograms use fixed bucket boundaries so an
observation is one ``bisect`` plus two adds — cheap enough to leave on
even in benchmark runs — and report p50/p90/p99 by linear interpolation
within the containing bucket.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "LATENCY_BUCKETS_S"]

#: Default latency buckets (seconds): 1 ms … 512 s, exponential.
#: Spans LAN sub-millisecond chatter up to multi-minute WAN timeouts.
LATENCY_BUCKETS_S: tuple[float, ...] = tuple(
    0.001 * 2 ** i for i in range(20))


class Counter:
    """A named monotonic tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A named point-in-time level (queue depth, client count, live DPs).

    Unlike a :class:`Counter` it moves in both directions; the control
    plane samples system levels into gauges so the autoscale planner
    and ``digruber trace analyze`` read one signal path instead of each
    re-deriving depth from spans.  ``updated_at`` carries the sim time
    of the last ``set`` so a stale sample is distinguishable from a
    current one.
    """

    __slots__ = ("name", "value", "updated_at")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.updated_at: Optional[float] = None

    def set(self, value: float, at: Optional[float] = None) -> None:
        self.value = value
        if at is not None:
            self.updated_at = at

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Fixed-boundary histogram with streaming sum/min/max.

    ``bounds`` are ascending bucket *upper* edges; observations above
    the last bound land in an overflow bucket whose quantile estimate
    is the largest value actually seen.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str,
                 bounds: Sequence[float] = LATENCY_BUCKETS_S):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bounds must be a non-empty ascending sequence")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.buckets = [0] * (len(self.bounds) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> Optional[float]:
        """Estimated p-th percentile (0 < p <= 100).

        Linear interpolation inside the containing bucket; exact for
        the min/max endpoints, bucket-resolution otherwise.  Returns
        ``None`` on an empty histogram — a fabricated 0.0 used to leak
        into summaries as a real-looking latency.
        """
        if not (0.0 < p <= 100.0):
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if self.count == 0:
            return None
        rank = p / 100.0 * self.count
        cum = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            if cum + n >= rank:
                lo = self.bounds[i - 1] if i > 0 else (
                    self.min if self.min is not None else 0.0)
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                lo = max(lo, self.min) if self.min is not None else lo
                hi = min(hi, self.max) if self.max is not None else hi
                frac = (rank - cum) / n
                return lo + (hi - lo) * frac
            cum += n
        return self.max if self.max is not None else 0.0  # pragma: no cover

    #: Quantiles reported by :meth:`summary`, ascending.
    SUMMARY_QUANTILES: tuple[float, ...] = (50.0, 90.0, 95.0, 99.0)

    def summary(self) -> dict:
        """One-pass summary: count/sum/min/mean/p50/p90/p95/p99/max.

        All quantiles come out of a *single* walk over the buckets
        (ascending targets against the running cumulative count), so
        per-tick telemetry sampling costs one scan per histogram
        instead of one :meth:`percentile` scan per quantile.  Empty
        histograms report ``None`` throughout (matching
        :meth:`percentile`) rather than fabricating zeros.
        """
        quantiles = self.SUMMARY_QUANTILES
        out = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean if self.count else None,
            "min": self.min,
        }
        if self.count == 0:
            for q in quantiles:
                out[f"p{q:g}"] = None
            out["max"] = None
            return out
        ranks = [q / 100.0 * self.count for q in quantiles]
        values: list[Optional[float]] = [None] * len(ranks)
        qi = 0
        cum = 0
        n_bounds = len(self.bounds)
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            while qi < len(ranks) and cum + n >= ranks[qi]:
                lo = self.bounds[i - 1] if i > 0 else (
                    self.min if self.min is not None else 0.0)
                hi = self.bounds[i] if i < n_bounds else self.max
                lo = max(lo, self.min) if self.min is not None else lo
                hi = min(hi, self.max) if self.max is not None else hi
                frac = (ranks[qi] - cum) / n
                values[qi] = lo + (hi - lo) * frac
                qi += 1
            if qi == len(ranks):
                break
            cum += n
        for j in range(qi, len(ranks)):  # pragma: no cover - fp slack
            values[j] = self.max
        for q, v in zip(quantiles, values):
            out[f"p{q:g}"] = v
        out["max"] = self.max
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.4g}>"


class MetricsRegistry:
    """Named counters + gauges + histograms for one simulator instance."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str,
                  bounds: Sequence[float] = LATENCY_BUCKETS_S) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, bounds)
        return h

    def counter_value(self, name: str) -> int:
        c = self.counters.get(name)
        return c.value if c is not None else 0

    def snapshot(self) -> dict:
        """Plain-dict view (JSON-ready) of everything recorded."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {n: h.summary()
                           for n, h in sorted(self.histograms.items())},
        }

    def collect(self, now: Optional[float] = None) -> dict:
        """One unified sampling pass over everything registered.

        This is the telemetry plane's single read path (the
        :class:`~repro.obs.timeline.TimelineSampler` and the control
        plane's :class:`~repro.control.signals.SignalBus` both end
        here): counters and gauges are copied as-is, histograms go
        through the one-pass :meth:`Histogram.summary`.  Strictly
        read-only — collecting never mutates a metric, schedules an
        event, or draws randomness, so a sampled run is event-identical
        to an unsampled one.
        """
        return {
            "t": now,
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {n: h.summary()
                           for n, h in sorted(self.histograms.items())},
        }

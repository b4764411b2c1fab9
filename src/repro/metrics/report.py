"""Summary statistics and text tables in the paper's reporting format."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["SummaryStats", "format_table", "render_obs_summary"]


@dataclass(frozen=True)
class SummaryStats:
    """DiPerF's per-series summary: min / median / average / max / stdev.

    ``peak`` is the best windowed value (highest throughput window, or
    highest mean-response window), matching the "Peak" rows under the
    paper's figures.
    """

    minimum: float
    median: float
    average: float
    maximum: float
    stdev: float
    peak: float

    @staticmethod
    def from_array(values: np.ndarray, peak: float | None = None
                   ) -> "SummaryStats":
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return SummaryStats(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return SummaryStats(
            minimum=float(v.min()),
            median=float(np.median(v)),
            average=float(v.mean()),
            maximum=float(v.max()),
            stdev=float(v.std()),
            peak=float(peak) if peak is not None else float(v.max()),
        )

    def row(self) -> list[float]:
        return [self.minimum, self.median, self.average, self.maximum,
                self.stdev, self.peak]

    HEADER = ("Minimum", "Median", "Average", "Maximum", "StdDev", "Peak")


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "", col_width: int = 12) -> str:
    """Fixed-width text table (the benches print paper tables with this)."""
    if any(len(r) != len(headers) for r in rows):
        raise ValueError("row length does not match header length")

    def fmt(cell) -> str:
        if cell is None:  # empty-histogram percentiles etc.
            return "-"
        if isinstance(cell, float):
            if cell != cell:  # NaN
                return "-"
            if abs(cell) >= 1000:
                return f"{cell:,.0f}"
            return f"{cell:.2f}"
        return str(cell)

    lines = []
    if title:
        lines.append(title)
    lines.append("".join(f"{h:>{col_width}}" for h in headers))
    lines.append("-" * (col_width * len(headers)))
    for r in rows:
        lines.append("".join(f"{fmt(c):>{col_width}}" for c in r))
    return "\n".join(lines)


def render_obs_summary(metrics, network_stats=None, tracer=None,
                       spans=None, title: str = "run summary") -> str:
    """Render one run's observability state as a text report.

    * ``metrics`` — a :class:`~repro.obs.MetricsRegistry`: one counter
      table (every event kind's tally, one name per event, plus the
      counted quantities) and the fixed-bucket histograms, e.g.
      ``rpc.latency_s``;
    * ``network_stats`` — the transport's
      :class:`~repro.net.transport.NetworkStats`, including the
      timeout/loss failure counts that used to go unreported;
    * ``tracer`` — the (optional) event stream; its ring's fill and
      evictions are shown once it has taken an event;
    * ``spans`` — the (optional) :class:`~repro.obs.SpanRecorder`;
      shown as finished/open tallies plus the sampling ratio.
    """
    lines = [f"== {title} =="]

    if network_stats is not None:
        ns = network_stats
        lines.append(
            f"transport: messages={ns.messages} kb={ns.kb:.1f} "
            f"dropped={ns.dropped}")
        lines.append(
            f"rpcs: started={ns.rpcs_started} completed={ns.rpcs_completed} "
            f"failed={ns.rpcs_failed} (timed_out={ns.rpcs_timed_out} "
            f"lost={ns.rpcs_lost}) discarded={ns.responses_discarded}")

    counters = dict(getattr(metrics, "counters", {}))
    if counters:
        rows = [(name, c.value) for name, c in sorted(counters.items())]
        lines.append(format_table(("counter", "value"), rows, col_width=28))

    histograms = dict(getattr(metrics, "histograms", {}))
    if histograms:
        rows = []
        for name, h in sorted(histograms.items()):
            s = h.summary()
            rows.append((name, s["count"], s["mean"], s["p50"], s["p90"],
                         s["p99"], s["max"]))
        lines.append(format_table(
            ("histogram", "count", "mean", "p50", "p90", "p99", "max"),
            rows, col_width=14))

    if tracer is not None and tracer.emitted:
        lines.append(f"trace: buffered={len(tracer)} evicted={tracer.evicted}")

    if spans is not None and (spans.enabled or len(spans)):
        n_open = len(spans.open_spans)
        lines.append(
            f"spans: finished={len(spans) - n_open} open={n_open} "
            f"sampled={spans.roots_sampled}/{spans.roots_seen} "
            f"(1/{spans.sample_every})")

    return "\n".join(lines)

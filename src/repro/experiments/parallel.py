"""Parallel experiment execution.

Parameter sweeps (scalability, accuracy-vs-interval, ablations) are
embarrassingly parallel: every run is an independent, deterministic
simulation.  This module fans a list of configurations out over worker
processes and returns compact, picklable :class:`RunSummary` objects —
the full :class:`~repro.experiments.runner.ExperimentResult` holds live
simulator state and never crosses process boundaries.

    from repro.experiments.parallel import run_parallel
    summaries = run_parallel([canonical_gt3(k) for k in (1, 3, 10)])

Summaries carry everything the figures/tables need (series, summary
stats, category rows) plus the raw query rows, so GRUB-SIM can replay
them (``summary.to_trace()``).
"""

from __future__ import annotations

import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.metrics.report import SummaryStats
from repro.workloads.trace import QueryRows, TraceRecorder

__all__ = ["FailedCell", "RunSummary", "summarize", "summary_digest",
           "run_parallel"]


@dataclass(frozen=True)
class RunSummary:
    """Picklable digest of one finished experiment."""

    config: ExperimentConfig
    n_jobs: int
    table_rows: dict                      # category -> table_row dict
    response_stats: SummaryStats
    throughput_stats: SummaryStats
    load_series: tuple                    # (times, values) as ndarrays
    response_series: tuple
    throughput_series: tuple
    fallbacks: dict
    query_rows: QueryRows = field(repr=False)  # raw trace rows for replay

    # -- derived -----------------------------------------------------------
    @property
    def peak_throughput(self) -> float:
        return self.throughput_stats.peak

    @property
    def avg_response(self) -> float:
        return self.response_stats.average

    def accuracy(self, category: str = "handled") -> float:
        return self.table_rows[category]["accuracy_pct"] / 100.0

    def utilization(self, category: str = "all") -> float:
        return self.table_rows[category]["util_pct"] / 100.0

    def table_row(self, category: str) -> dict:
        """Duck-compatible with ExperimentResult for the table renderers."""
        return self.table_rows[category]

    def to_trace(self) -> TraceRecorder:
        """Rebuild the query trace (GRUB-SIM input) from raw rows."""
        return TraceRecorder.from_query_rows(self.query_rows)

    def figure_view(self) -> "_FigureView":
        """Duck-compatible with DiPerfResult for the figure renderers."""
        return _FigureView(self)


class _FigureView:
    """Adapter exposing the DiPerfResult plotting surface of a summary."""

    def __init__(self, summary: RunSummary):
        self._s = summary
        self.name = summary.config.name
        self.t_start = 0.0
        self.t_end = summary.config.duration_s
        times = summary.load_series[0]
        self.window_s = float(times[1] - times[0]) if len(times) > 1 else 60.0

    def load_series(self):
        return self._s.load_series

    def response_series(self):
        return self._s.response_series

    def throughput_series(self):
        return self._s.throughput_series

    def response_stats(self):
        return self._s.response_stats

    def throughput_stats(self):
        return self._s.throughput_stats

    def summary(self) -> str:
        from repro.metrics.report import SummaryStats, format_table
        rows = [
            ["Response Time (s)"] + [round(v, 2)
                                     for v in self._s.response_stats.row()],
            ["Throughput (q/s)"] + [round(v, 2)
                                    for v in self._s.throughput_stats.row()],
        ]
        body = format_table(["Series", *SummaryStats.HEADER], rows,
                            title=f"DiPerF: {self.name}", col_width=11)
        q = self._s.query_rows
        answered = sum(1 for row in q if row[1] == row[1])  # non-NaN
        timed_out = sum(1 for row in q if row[3])
        _, load = self._s.load_series
        peak_load = int(load.max()) if len(load) else 0
        return body + (f"\nqueries={len(q)} answered={answered} "
                       f"timed_out={timed_out} peak_load={peak_load}")


def summarize(result: ExperimentResult, window_s: float = 60.0) -> RunSummary:
    """Digest an in-process result into its picklable summary."""
    d = result.diperf(window_s=window_s)
    return RunSummary(
        config=result.config,
        n_jobs=result.n_jobs,
        table_rows={cat: result.table_row(cat)
                    for cat in ("handled", "not_handled", "all")},
        response_stats=d.response_stats(),
        throughput_stats=d.throughput_stats(),
        load_series=d.load_series(),
        response_series=d.response_series(),
        throughput_series=d.throughput_series(),
        fallbacks=result.client_fallbacks(),
        query_rows=result.trace.query_rows(),
    )


def summary_digest(summary: RunSummary) -> str:
    """Stable content digest of a summary (worker-count independence).

    Covers everything semantically meaningful — job count, table rows,
    summary stats, every series sample, fallback tallies, and the raw
    query rows — via repr of plain floats/ints, which round-trips
    exactly, so two digests agree iff the runs produced bitwise-equal
    results regardless of which process computed them.
    """
    crc = 0

    def feed(text: str) -> None:
        nonlocal crc
        crc = zlib.crc32(text.encode(), crc)

    feed(f"{summary.config.name}|{summary.n_jobs}")
    for cat in sorted(summary.table_rows):
        row = summary.table_rows[cat]
        feed(cat + "|" + "|".join(f"{k}={row[k]!r}" for k in sorted(row)))
    feed("|".join(repr(v) for v in summary.response_stats.row()))
    feed("|".join(repr(v) for v in summary.throughput_stats.row()))
    for times, values in (summary.load_series, summary.response_series,
                          summary.throughput_series):
        feed("|".join(repr(float(t)) for t in times))
        feed("|".join(repr(float(v)) for v in values))
    feed("|".join(f"{k}={summary.fallbacks[k]!r}"
                  for k in sorted(summary.fallbacks)))
    for row in summary.query_rows:
        feed("|".join(repr(x) for x in row))
    return f"{crc:08x}"


def _worker(config: ExperimentConfig) -> RunSummary:
    return summarize(run_experiment(config))


@dataclass(frozen=True)
class FailedCell:
    """Placeholder for a sweep cell whose worker process died.

    Returned in the cell's slot so surviving results keep their input
    positions; sweeps that expect clean runs should check
    ``isinstance(result, FailedCell)`` before using a slot.
    """

    config: ExperimentConfig
    error: str

    def __bool__(self) -> bool:
        return False


def _run_pool(configs_by_slot: dict[int, ExperimentConfig], workers: int,
              results: dict[int, RunSummary],
              worker=_worker) -> dict[int, ExperimentConfig]:
    """One pool generation; returns the slots the pool lost.

    A worker that dies (OOM kill, segfault, interpreter exit) breaks
    the whole :class:`ProcessPoolExecutor`: every outstanding future
    fails with :class:`BrokenProcessPool`, including cells that never
    ran.  Completed futures keep their results, so only the broken
    remainder is handed back for the retry generation.  Any other error
    a cell raises cancels the cells still queued and is raised at once,
    instead of after the pool has run them all.
    """
    lost: dict[int, ExperimentConfig] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {slot: pool.submit(worker, cfg)
                   for slot, cfg in configs_by_slot.items()}
        for slot, future in futures.items():
            try:
                results[slot] = future.result()
            except BrokenProcessPool:
                lost[slot] = configs_by_slot[slot]
            except BaseException:
                pool.shutdown(wait=True, cancel_futures=True)
                raise
    return lost


def run_parallel(configs: Sequence[ExperimentConfig],
                 max_workers: Optional[int] = None,
                 worker=None) -> list:
    """Run every configuration, fanning out across processes.

    Results come back in input order.  ``max_workers`` defaults to
    ``min(len(configs), cpu_count)``; with one config (or one worker)
    everything runs in-process, which keeps small sweeps cheap and
    makes the parallel path a pure optimization (results are identical
    either way — the simulations are deterministic).

    A worker process dying no longer aborts the sweep: completed cells
    keep their summaries, the cells stranded in the broken pool are
    resubmitted once to a fresh pool, and anything that fails again is
    reported in place as a :class:`FailedCell` instead of raising away
    every finished result.

    ``worker`` must be a picklable (module-level) callable taking one
    config.  The campaign runner passes a checkpoint-aware worker here;
    because the *same* worker serves the retry generation, a retried
    cell resumes from its own newest valid checkpoint — atomic
    checkpoint writes guarantee a half-written file is skipped, never
    restored (see :func:`repro.sim.snapshot.newest_checkpoint`).
    """
    if not configs:
        return []
    if worker is None:
        worker = _worker  # resolved at call time, so tests can patch it
    workers = max_workers if max_workers is not None else \
        min(len(configs), os.cpu_count() or 1)
    if workers <= 1 or len(configs) == 1:
        return [worker(cfg) for cfg in configs]
    results: dict[int, RunSummary] = {}
    pending = dict(enumerate(configs))
    lost = _run_pool(pending, workers, results, worker=worker)
    if lost:
        # One retry, each lost cell in its *own* single-worker pool:
        # transient deaths (a stray OOM kill) recover, and a cell that
        # reliably kills its worker cannot break a shared retry pool
        # and strand innocent neighbors a second time.  A cell that
        # dies twice is reported as permanently failed.
        for slot, cfg in sorted(lost.items()):
            _run_pool({slot: cfg}, 1, results, worker=worker)
    out: list = []
    for slot, cfg in enumerate(configs):
        if slot in results:
            out.append(results[slot])
        else:
            out.append(FailedCell(
                config=cfg,
                error="worker process died (twice) running this cell"))
    return out

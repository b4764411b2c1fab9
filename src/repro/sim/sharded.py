"""Space-parallel sharded simulation of a DI-GRUBER deployment.

This module partitions a configuration into ``decision_points``
neighborhoods ("hoods") — one decision point plus a balanced share of
the sites, CPUs and submission hosts — and runs the hood configurations
(:func:`hood_config`) as one job list through
:func:`~repro.experiments.parallel.run_parallel`, merging the results.

Hoods exchange nothing.  A hood's decision point brokers only into its
own sites, so a peer hood's dispatch records could never reach one of
its availability answers: the paper's §4.3 record sync, which lets a
decision point broker over the whole grid, has nothing to act on here.
The outcome of every hood is therefore a function of its own
configuration: a hood's summary equals
``summarize(run_experiment(hood_config(config, hood)))``, and
``run_sharded(config, n_shards)`` produces bit-identical per-hood
summaries and (canonically merged) event journals for any shard count
and either executor, which ``digruber diff --pair sharded-2/sharded-4``
and the property tests gate on.

A hood is the monolithic run it is: with ``checkpoint_every_s > 0``
hood ``h`` checkpoints into ``<checkpoint_dir>/h<h>/`` through the
ordinary :class:`~repro.sim.snapshot.Checkpointer`, and any of its
files restores to that hood's summary with ``resume_experiment``
(``digruber run --restore``).  ``mode="lockstep"`` runs every hood in
this process, one after another (the determinism reference);
``mode="workers"`` shares them out to ``n_shards`` worker processes.
"""

from __future__ import annotations

import functools
import itertools
import os
import time as _walltime
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.check.digest import EventJournal, install_probes
from repro.experiments.configs import ExperimentConfig
from repro.experiments.parallel import (FailedCell, RunSummary, run_parallel,
                                        summarize, summary_digest)
from repro.experiments.runner import build_experiment, finalize_experiment

__all__ = ["ShardedRunResult", "hood_config", "plan_shards", "run_sharded"]

#: Disjoint job-id blocks per hood: far above any single hood's job
#: count (a 100x-OSG hood submits ~10M jobs per simulated day).
_JID_BLOCK = 10 ** 9

#: Seed stride between hoods (prime, so hood seed sequences of
#: different base seeds interleave without collisions in practice).
_SEED_STRIDE = 7919


def _share(total: int, part: int, n: int) -> int:
    """Balanced integer split: parts differ by at most one."""
    return total // n + (1 if part < total % n else 0)


def plan_shards(n_hoods: int, n_shards: int) -> list[list[int]]:
    """Assign hoods to shards in contiguous balanced blocks."""
    if not 1 <= n_shards <= n_hoods:
        raise ValueError(
            f"n_shards must be in [1, {n_hoods}], got {n_shards}")
    plan: list[list[int]] = []
    start = 0
    for s in range(n_shards):
        size = _share(n_hoods, s, n_shards)
        plan.append(list(range(start, start + size)))
        start += size
    return plan


def hood_config(config: ExperimentConfig, hood: int) -> ExperimentConfig:
    """Derive one DP neighborhood's sub-configuration.

    The hood gets one decision point, a balanced share of the sites /
    CPUs / submission hosts, its own seed and a disjoint job-id block.
    Per-sim observability (trace, spans, telemetry, flight recorder) is
    forced off — every hood would write the one configured path — and
    the chaos scenario, when present, strikes the first neighborhood
    only (scenarios target ``dp_ids[0]`` of a deployment; hood 0 is its
    sharded counterpart).  Sharded telemetry instead samples each hood
    every ``telemetry_interval_s`` and merges the rows (see
    :func:`_run_hood`).  Checkpoints go to the hood's own
    ``<checkpoint_dir>/h<hood>`` subdirectory.
    """
    n_hoods = config.decision_points
    if not 0 <= hood < n_hoods:
        raise ValueError(f"hood must be in [0, {n_hoods}), got {hood}")
    if config.n_clients < n_hoods:
        raise ValueError(
            f"cannot shard {config.n_clients} clients over {n_hoods} "
            "neighborhoods")
    if config.n_sites < n_hoods:
        raise ValueError(
            f"cannot shard {config.n_sites} sites over {n_hoods} "
            "neighborhoods")
    return config.with_(
        decision_points=1,
        n_clients=_share(config.n_clients, hood, n_hoods),
        n_sites=_share(config.n_sites, hood, n_hoods),
        total_cpus=_share(config.total_cpus, hood, n_hoods),
        seed=config.seed + _SEED_STRIDE * (hood + 1),
        jid_offset=(hood + 1) * _JID_BLOCK,
        name=f"{config.name}-h{hood}",
        chaos_scenario=config.chaos_scenario if hood == 0 else "",
        checkpoint_dir=(os.path.join(config.checkpoint_dir, f"h{hood}")
                        if config.checkpoint_every_s > 0 else ""),
        trace_enabled=False, trace_path="",
        spans_enabled=False, spans_path="",
        telemetry_enabled=False, telemetry_path="", flight_path="")


class _HoodOutcome(NamedTuple):
    """Everything the parent keeps of one finished neighborhood."""

    summary: RunSummary
    journal: Optional[list]   # (time, kind, detail) entries, when probed
    timeline: Optional[list]  # hood-local telemetry rows, when sampled
    events: int
    heap_peak: int


def _run_hood(hood_cfg: ExperimentConfig, journal: bool,
              sample_s: float = 0.0) -> _HoodOutcome:
    """Run one neighborhood start to finish on its own simulator.

    With ``sample_s > 0`` the hood pauses at every multiple of it (and at
    the end) to record a hood-local telemetry row, a pure read that
    cannot perturb the run.  ``finalize_experiment`` and ``summarize``
    are looked up as module globals on every call, so an in-process
    caller can wrap them.
    """
    built = build_experiment(hood_cfg)
    probes = EventJournal() if journal else None
    if probes is not None:
        install_probes(probes, deployment=built.deployment,
                       sites=built.grid.sites.values())
    sim, duration, timeline = built.sim, hood_cfg.duration_s, None
    if sample_s > 0:
        from repro.obs.timeline import hood_row
        hood = hood_cfg.jid_offset // _JID_BLOCK - 1  # see hood_config
        timeline = []
        # ``sim.run(until=t)`` leaves the clock exactly at ``t`` with
        # every event of that instant done: the row is the instant's.
        for i in itertools.count(1):
            t = min(i * sample_s, duration)
            sim.run(until=t)
            timeline.append(hood_row(built, hood, t))
            if t == duration:
                break
    else:
        sim.run(until=duration)
    entries = (None if probes is None else
               [(e.time, e.kind, e.detail) for e in probes.entries])
    return _HoodOutcome(summarize(finalize_experiment(built)), entries,
                        timeline, sim.events_executed, sim.heap_peak)


@dataclass(frozen=True)
class ShardedRunResult:
    """Everything a sharded run produced, grouping-independent."""

    config: ExperimentConfig
    n_shards: int
    mode: str
    summaries: tuple  # RunSummary per hood, in hood order
    total_events: int
    heap_peak: int
    wall_s: float
    journal: Optional[EventJournal] = field(default=None, repr=False)
    #: Grid-wide merged telemetry rows (one registry-schema row per
    #: sample instant), or ``None`` when the config has telemetry off.
    #: Identical across shard counts and modes, like every other field.
    timeline: Optional[list] = field(default=None, repr=False)

    @property
    def n_hoods(self) -> int:
        return len(self.summaries)

    @property
    def summary_digests(self) -> tuple[str, ...]:
        return tuple(summary_digest(s) for s in self.summaries)

    @property
    def digest(self) -> str:
        """One digest over every hood's summary digest (hood order)."""
        crc = 0
        for d in self.summary_digests:
            crc = zlib.crc32(d.encode(), crc)
        return f"{crc:08x}"

    @property
    def journal_digest(self) -> Optional[int]:
        return None if self.journal is None else self.journal.digest

    @property
    def events_per_s(self) -> float:
        return self.total_events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def n_jobs(self) -> int:
        return sum(s.n_jobs for s in self.summaries)

    def fallbacks(self) -> dict[str, int]:
        return {k: sum(s.fallbacks[k] for s in self.summaries)
                for k in self.summaries[0].fallbacks}

    def describe(self) -> str:
        fb = self.fallbacks()
        lines = [
            f"== {self.config.name}: {self.n_hoods} neighborhood(s) on "
            f"{self.n_shards} shard(s) [{self.mode}], "
            f"{self.config.duration_s:.0f} s ==",
            f"requests={self.n_jobs} handled={fb.get('handled', 0)} "
            f"timeout-fallback={fb.get('timeout', 0)} "
            f"backlogged={fb.get('backlogged', 0)}",
            f"events={self.total_events} wall={self.wall_s:.2f}s "
            f"({self.events_per_s:,.0f} events/s)",
            f"digest={self.digest}",
        ]
        return "\n".join(lines)


def _merge_journals(per_hood: dict[int, Optional[list]]) -> EventJournal:
    """Canonical journal merge: one chained-CRC stream for the run.

    Entries sort by ``(time, hood, per-hood index)`` — per-hood index
    order is preserved via the stable sort, and the hood id breaks
    same-instant ties between neighborhoods the same way regardless of
    shard grouping, so any grouping re-chains to the same digest.
    """
    merged = EventJournal()
    flat = [(t, hood, i, kind, detail)
            for hood in sorted(per_hood)
            for i, (t, kind, detail) in enumerate(per_hood[hood] or [])]
    flat.sort(key=lambda e: (e[0], e[1], e[2]))
    for t, _hood, _i, kind, detail in flat:
        merged.record(t, kind, detail)
    return merged


def run_sharded(config: ExperimentConfig, n_shards: int = 1,
                mode: str = "lockstep", journal: bool = False
                ) -> ShardedRunResult:
    """Run ``config`` space-partitioned into DP neighborhoods, on
    ``n_shards`` worker processes (``mode="workers"``) or in this
    process.  With ``journal=True`` every neighborhood runs fully probed
    and the result carries the canonical merged :class:`EventJournal`.
    A hood whose worker process dies raises :class:`RuntimeError`.
    """
    if mode not in ("lockstep", "workers"):
        raise ValueError(f"unknown mode {mode!r}")
    plan_shards(config.decision_points, n_shards)  # validates n_shards
    configs = [hood_config(config, h) for h in range(config.decision_points)]
    if config.checkpoint_every_s > 0:
        from repro.sim.snapshot import SnapshotError
        try:  # refuse an unusable directory here, not in a worker
            for hood_cfg in configs:
                os.makedirs(hood_cfg.checkpoint_dir, exist_ok=True)
        except OSError as err:
            raise SnapshotError(
                f"checkpoint directory {config.checkpoint_dir!r} is not "
                f"writable: {err.strerror or err}") from None
    telemetry = config.telemetry_enabled or bool(config.telemetry_path)
    worker = functools.partial(
        _run_hood, journal=journal,
        sample_s=config.telemetry_interval_s if telemetry else 0.0)
    start = _walltime.perf_counter()
    outcomes = run_parallel(
        configs, max_workers=1 if mode == "lockstep" else n_shards,
        worker=worker)
    wall = _walltime.perf_counter() - start
    for hood, outcome in enumerate(outcomes):
        if isinstance(outcome, FailedCell):
            raise RuntimeError(
                f"neighborhood {hood} ({outcome.config.name}): "
                f"{outcome.error}")
    merged = (_merge_journals(dict(enumerate(o.journal for o in outcomes)))
              if journal else None)
    timeline = None
    if telemetry:
        from repro.obs.jsonl import write_jsonl
        from repro.obs.timeline import merge_hood_timelines, timeline_meta
        timeline = merge_hood_timelines(
            dict(enumerate(o.timeline for o in outcomes)))
        if config.telemetry_path:
            write_jsonl(config.telemetry_path, timeline,
                        meta=timeline_meta(config,
                                           config.telemetry_interval_s))
    return ShardedRunResult(
        config=config, n_shards=n_shards, mode=mode,
        summaries=tuple(o.summary for o in outcomes),
        total_events=sum(o.events for o in outcomes),
        heap_peak=max(o.heap_peak for o in outcomes),
        wall_s=wall, journal=merged, timeline=timeline)

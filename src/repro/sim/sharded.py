"""Space-parallel sharded simulation of a DI-GRUBER deployment.

The monolithic runner simulates every decision point, site, and client
on one event heap.  This module partitions a configuration into
``decision_points`` neighborhoods ("hoods") — one decision point plus a
balanced share of the sites, CPUs and submission hosts — runs every
hood as an independent experiment (:func:`hood_config`), and merges the
per-hood results.

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

The sync epoch survives only as a cadence: each hood pauses at every
epoch multiple strictly inside the run (a "barrier") to record one
telemetry row and, when checkpointing, its state digest.

Two executors:

* ``mode="lockstep"`` — every hood runs in this process, one after
  another.  The determinism reference; checkpoints and restores are
  lockstep-only.
* ``mode="workers"`` — one OS process per shard, each running its
  block of hoods and sending back only their final outcomes.  Same
  results, real parallelism when cores are available.
"""

from __future__ import annotations

import multiprocessing
import os
import time as _walltime
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from repro.check.digest import EventJournal, install_probes
from repro.experiments.configs import ExperimentConfig
from repro.experiments.parallel import RunSummary, summarize, summary_digest
from repro.experiments.runner import (BuiltExperiment, build_experiment,
                                      finalize_experiment)

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
    at every epoch barrier and merges the rows (see :func:`_run_hood`).
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
        # Checkpointing is a runner-level concern here: barrier
        # snapshots (below) replace per-sim Checkpointer ticks, which
        # would collide across hoods sharing one directory.
        checkpoint_every_s=0.0, checkpoint_dir="",
        trace_enabled=False, trace_path="",
        spans_enabled=False, spans_path="",
        telemetry_enabled=False, telemetry_path="", flight_path="")


def _barriers(config: ExperimentConfig) -> list[float]:
    """Barrier instants: sync-epoch multiples strictly inside the run."""
    epoch = config.sync_interval_s
    out, i = [], 1
    while i * epoch < config.duration_s:
        out.append(i * epoch)
        i += 1
    return out


def _hood_barrier_state(built: BuiltExperiment) -> dict:
    """One neighborhood's state at a barrier, for its checkpoint digest.

    Excludes the kernel section, so the digest covers what the hood
    simulates rather than how its event heap is laid out.
    """
    from repro.sim.snapshot import rng_state

    dp = next(iter(built.deployment.decision_points.values()))
    return {
        "rng": rng_state(built),
        "grid": built.grid.snapshot_state(),
        "dp": dp.snapshot_state(),
        "clients": [c.snapshot_state() for c in built.clients],
    }


class _HoodOutcome(NamedTuple):
    """Everything the parent keeps of one finished neighborhood."""

    summary: RunSummary
    journal: Optional[list]   # (time, kind, detail) entries, when probed
    timeline: Optional[list]  # barrier telemetry rows, when sampled
    digests: dict             # barrier instant -> state digest
    events: int
    heap_peak: int


def _run_hood(config: ExperimentConfig, hood: int, journal: bool,
              digest_at: frozenset = frozenset()) -> _HoodOutcome:
    """Run one neighborhood start to finish on its own simulator.

    At every barrier the hood records a telemetry row (when the config
    has telemetry) and, at the instants in ``digest_at``, its state
    digest.  Both are pure reads, so they cannot perturb the run.
    """
    from repro.obs.timeline import hood_row
    from repro.sim.snapshot import state_digest

    built = build_experiment(hood_config(config, hood))
    probes = None
    if journal:
        probes = EventJournal()
        install_probes(probes, deployment=built.deployment,
                       sites=built.grid.sites.values())
    timeline = ([] if config.telemetry_enabled or config.telemetry_path
                else None)
    digests = {}
    sim = built.sim
    # ``sim.run(until=t)`` leaves the clock exactly at ``t`` with every
    # event of that instant done: the row and digest are the barrier's.
    for t in (*_barriers(config), config.duration_s):
        sim.run(until=t)
        if timeline is not None:
            timeline.append(hood_row(built, hood, t))
        if t in digest_at:
            digests[t] = state_digest(_hood_barrier_state(built))
    entries = None
    if probes is not None:
        entries = [(e.time, e.kind, e.detail) for e in probes.entries]
    return _HoodOutcome(summarize(finalize_experiment(built)), entries,
                        timeline, digests, sim.events_executed,
                        sim.heap_peak)


def _run_hoods(config: ExperimentConfig, hood_ids: Sequence[int],
               journal: bool, digest_at: frozenset = frozenset()
               ) -> dict[int, _HoodOutcome]:
    return {h: _run_hood(config, h, journal, digest_at) for h in hood_ids}


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
    #: barrier), or ``None`` when the config has telemetry off.
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
        out: dict[str, int] = {}
        for s in self.summaries:
            for k, v in s.fallbacks.items():
                out[k] = out.get(k, 0) + v
        return out

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


def _checkpoint_barriers(config: ExperimentConfig) -> list[tuple[int, float]]:
    """``(barrier index, instant)`` of every barrier that crosses the
    checkpoint cadence."""
    due, next_due = [], config.checkpoint_every_s
    for index, t in enumerate(_barriers(config)):
        if t >= next_due:
            due.append((index, t))
            while next_due <= t:
                next_due += config.checkpoint_every_s
    return due


def _run_lockstep(config: ExperimentConfig, journal: bool,
                  restore_snapshot: Optional[dict] = None):
    """Every hood in this process, with barrier checkpoints and the
    verified rerun of a restore."""
    from repro.sim.snapshot import (SnapshotError, checkpoint_filename,
                                    encode_config, write_snapshot)

    due = (_checkpoint_barriers(config)
           if config.checkpoint_every_s > 0 else [])
    ckpt_dir = config.checkpoint_dir
    if due:
        try:
            os.makedirs(ckpt_dir, exist_ok=True)
        except OSError as err:
            raise SnapshotError(f"cannot create checkpoint directory "
                                f"{ckpt_dir!r}: {err}") from err
    digest_at = {t for _, t in due}
    if restore_snapshot is not None:
        restore_t = restore_snapshot["barrier_t"]
        if restore_t not in _barriers(config):
            raise SnapshotError(
                f"restore checkpoint's barrier t={restore_t:g} is never "
                f"reached (run has {len(_barriers(config))} barriers)")
        digest_at.add(restore_t)
    outcomes = _run_hoods(config, range(config.decision_points), journal,
                          frozenset(digest_at))

    def digests(t: float) -> dict[str, str]:
        return {str(h): o.digests[t] for h, o in outcomes.items()}

    if restore_snapshot is not None:
        got, want = digests(restore_t), restore_snapshot["hood_digests"]
        diverged = sorted(k for k in got if got[k] != want.get(k))
        if diverged:
            raise SnapshotError(
                f"lockstep rerun diverged from the barrier checkpoint at "
                f"t={restore_t:g} in neighborhood(s): {', '.join(diverged)}")
    for index, t in due:
        write_snapshot(
            {"sharded": True, "barrier_t": t, "barrier_index": index,
             "config": encode_config(config), "hood_digests": digests(t)},
            os.path.join(ckpt_dir, checkpoint_filename(t, index)))
    return outcomes


def _shard_worker(conn, config: ExperimentConfig, hood_ids: list[int],
                  journal: bool) -> None:
    """One shard in its own process: run its hoods, send the outcomes."""
    try:
        conn.send(("ok", _run_hoods(config, hood_ids, journal)))
    except BaseException as err:  # surface, don't hang the parent
        conn.send(("error", f"{type(err).__name__}: {err}"))
        raise
    finally:
        conn.close()


def _run_workers(config: ExperimentConfig, plan: list[list[int]],
                 journal: bool) -> dict[int, _HoodOutcome]:
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    pipes, procs = [], []
    try:
        for hood_ids in plan:
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_shard_worker,
                               args=(child, config, hood_ids, journal))
            proc.start()
            child.close()
            pipes.append(parent)
            procs.append(proc)
        outcomes: dict[int, _HoodOutcome] = {}
        for conn in pipes:
            msg = conn.recv()
            if msg[0] != "ok":
                raise RuntimeError(f"shard worker failed: {msg[1]}")
            outcomes.update(msg[1])
        return outcomes
    finally:
        for conn in pipes:
            conn.close()
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.terminate()
                proc.join()


def run_sharded(config: ExperimentConfig, n_shards: int = 1,
                mode: str = "lockstep", journal: bool = False,
                restore: Optional[str] = None) -> ShardedRunResult:
    """Run ``config`` space-partitioned into DP neighborhoods.

    ``n_shards`` groups the ``config.decision_points`` neighborhoods
    onto that many worker processes (``mode="workers"``); lockstep runs
    every neighborhood in this process.  Results are independent of
    both ``n_shards`` and ``mode`` — see the module docstring.  With
    ``journal=True`` every neighborhood runs fully probed and the
    result carries the canonical merged :class:`EventJournal`.

    With ``config.checkpoint_every_s > 0`` the lockstep executor writes
    a barrier checkpoint — per-neighborhood state digests at an epoch
    barrier — whenever a barrier crosses the cadence.  ``restore``
    names such a checkpoint: the run is a verified lockstep rerun that
    must re-derive every neighborhood's digest at that barrier
    (:class:`~repro.sim.snapshot.SnapshotError` names diverging hoods).
    Both are lockstep-only.
    """
    if mode not in ("lockstep", "workers"):
        raise ValueError(f"unknown mode {mode!r}")
    restore_snapshot = None
    if restore is not None:
        from repro.sim.snapshot import SnapshotError, read_snapshot
        restore_snapshot = read_snapshot(restore)
        if not restore_snapshot.get("sharded"):
            raise SnapshotError(
                f"{restore!r} is not a sharded barrier checkpoint; "
                "monolithic snapshots restore via resume_experiment")
    checkpointing = config.checkpoint_every_s > 0
    if mode == "workers" and n_shards > 1 and (checkpointing
                                               or restore is not None):
        raise ValueError(
            "barrier checkpoint/restore is lockstep-only; rerun with "
            "mode='lockstep'")
    plan = plan_shards(config.decision_points, n_shards)
    start = _walltime.perf_counter()
    if mode == "workers" and n_shards > 1:
        outcomes = _run_workers(config, plan, journal)
    else:
        outcomes = _run_lockstep(config, journal,
                                 restore_snapshot=restore_snapshot)
    wall = _walltime.perf_counter() - start
    hoods = sorted(outcomes)
    merged = None
    if journal:
        merged = _merge_journals({h: outcomes[h].journal for h in hoods})
    timeline = None
    if config.telemetry_enabled or config.telemetry_path:
        from repro.obs.jsonl import write_jsonl
        from repro.obs.timeline import merge_hood_timelines, timeline_meta
        timeline = merge_hood_timelines(
            {h: outcomes[h].timeline for h in hoods})
        if config.telemetry_path:
            write_jsonl(config.telemetry_path, timeline,
                        meta=timeline_meta(config, config.sync_interval_s))
    return ShardedRunResult(
        config=config, n_shards=n_shards, mode=mode,
        summaries=tuple(outcomes[h].summary for h in hoods),
        total_events=sum(o.events for o in outcomes.values()),
        heap_peak=max(o.heap_peak for o in outcomes.values()),
        wall_s=wall, journal=merged, timeline=timeline)

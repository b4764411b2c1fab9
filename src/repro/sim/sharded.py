"""Space-parallel sharded simulation of a DI-GRUBER deployment.

The monolithic runner simulates every decision point, site, and client
on one event heap.  DI-GRUBER's own structure makes that unnecessary:
decision points exchange state only at the periodic sync epoch (3
minutes in the paper's §4.3 setup), so a *DP neighborhood* — one
decision point plus its share of sites, CPUs, and submission hosts —
only ever influences another neighborhood at epoch boundaries.  That
epoch is a conservative lookahead in the classic Chandy–Misra–Bryant
sense: within a window ``[t, t+E)`` no cross-neighborhood message can
arrive, so every neighborhood can run the whole window to completion
before any exchange happens.

This module partitions a configuration into ``decision_points``
neighborhoods ("hoods"), groups hoods into shards, and advances the
shards in lockstep epoch windows:

1. run every shard's event heap to the barrier time ``t``;
2. collect each hood's *own* dispatch records produced since the last
   barrier (origin-filtered, learn-sequence watermarks);
3. route every batch to every other hood with a deterministic ordering
   key ``(destination hood, source hood)``;
4. schedule the merges at ``t`` so they execute at the start of the
   next window, then advance to the next barrier.

Because *all* cross-hood synchronization goes through the barrier —
hoods never share a network, grid, RNG, or trace, even when they share
a shard's event heap — the outcome of every hood is independent of how
hoods are grouped into shards.  ``run_sharded(config, n_shards=1)``,
``n_shards=2`` and ``n_shards=4`` therefore produce bit-identical
per-hood summaries and (canonically merged) event journals, which
``digruber diff --pair sharded-2/sharded-4`` and the property tests
gate on.

Two executors share the same per-window protocol:

* ``mode="lockstep"`` — every shard lives in this process; windows are
  executed shard after shard.  This is the determinism reference and
  the fastest option on a single core.
* ``mode="workers"`` — one OS process per shard, exchanging record
  batches over pipes at each barrier.  Same results, real parallelism
  when cores are available.
"""

from __future__ import annotations

import multiprocessing
import time as _walltime
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.check.digest import EventJournal, install_probes
from repro.experiments.configs import ExperimentConfig
from repro.experiments.parallel import RunSummary, summarize, summary_digest
from repro.experiments.runner import (BuiltExperiment, build_experiment,
                                      finalize_experiment)
from repro.sim.kernel import Simulator

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
    forced off — hoods may share a shard's simulator, where per-sim
    samplers from different hoods would interleave — and the chaos
    scenario, when present, strikes the first neighborhood only
    (scenarios target ``dp_ids[0]`` of a deployment; hood 0 is its
    sharded counterpart).  Sharded telemetry instead samples hood-local
    state at every epoch barrier (see :meth:`_Hood.sample_timeline`).
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
        # would collide across hoods sharing one directory and heap.
        checkpoint_every_s=0.0, checkpoint_dir="",
        trace_enabled=False, trace_path="",
        spans_enabled=False, spans_path="",
        telemetry_enabled=False, telemetry_path="", flight_path="")


class _Hood:
    """One built neighborhood plus its epoch-coupling state."""

    def __init__(self, sim: Simulator, config: ExperimentConfig,
                 hood: int, journal: bool, telemetry: bool = False):
        self.hood = hood
        self.built: BuiltExperiment = build_experiment(
            hood_config(config, hood), sim=sim)
        #: Barrier-sampled telemetry rows (hood-local state only), or
        #: ``None`` when telemetry is off.
        self.timeline: Optional[list[dict]] = [] if telemetry else None
        self.dp = next(iter(self.built.deployment.decision_points.values()))
        self._mark = 0  # learn-sequence watermark for barrier exports
        #: Static knowledge this hood contributes to every peer's view.
        self.capacities = {name: site.total_cpus
                           for name, site in self.built.grid.sites.items()}
        # Brokering stays neighborhood-local even once the view knows
        # the whole grid (ordered: selector tie-breaking must not
        # depend on set iteration order).
        self.dp.engine.broker_sites = tuple(self.built.grid.sites)
        self.journal: Optional[EventJournal] = None
        if journal:
            self.journal = EventJournal()
            install_probes(self.journal, deployment=self.built.deployment,
                           sites=self.built.grid.sites.values())

    def extend_static_knowledge(self, site_capacities: dict) -> None:
        """Adopt peer neighborhoods' static capacities (pre-run)."""
        self.dp.engine.view.extend_capacities(site_capacities)

    def collect(self) -> list:
        """This hood's own records produced since the last barrier.

        A crashed decision point exports nothing and keeps its
        watermark — pre-crash records flow out at the first barrier
        after its restart, mirroring how a monolithic run's crashed DP
        stops flooding until it comes back.
        """
        if not self.dp.online:
            return []
        mark, records = self.dp.engine.view.records_since(self._mark)
        self._mark = mark
        owner = self.dp.engine.owner
        out = [r for r in records if r.origin == owner]
        out.sort(key=lambda r: r.seq)
        return out

    def deliver(self, batches: Sequence[tuple[int, Sequence]],
                barrier_t: float) -> None:
        """Schedule peer batches for adoption at the barrier instant.

        The merges run at the start of the next window, in source-hood
        order — a deterministic ordering key independent of shard
        grouping.  A crashed decision point misses the epoch outright
        (no replay), exactly as it misses sync floods in a monolithic
        run; the monitor's ground-truth sweep reconciles after restart.
        """
        if not batches:
            return
        dp, engine = self.dp, self.dp.engine
        def _adopt() -> None:
            if not dp.online:
                return
            for _src, records in batches:
                engine.merge_remote_records(records, now=barrier_t)
        self.built.sim.schedule_at(barrier_t, _adopt)

    def sample_timeline(self, t: float) -> None:
        """Record one telemetry row at an epoch barrier.

        Reads *hood-local* deployment/grid/client state only — never
        the shard's shared metrics registry, where co-located hoods'
        series would interleave and the result would depend on the
        grouping.  Pure read, so sampling cannot perturb the run.
        """
        if self.timeline is None:
            return
        from repro.obs.timeline import hood_row
        self.timeline.append(hood_row(self.built, self.hood, t))

    def finalize(self) -> RunSummary:
        return summarize(finalize_experiment(self.built))


class _ShardRuntime:
    """All of one shard's hoods on a shared event heap."""

    def __init__(self, config: ExperimentConfig, hood_ids: Sequence[int],
                 journal: bool):
        # ``sim.run(until=t)`` honors ``until`` per timestamp and leaves
        # the clock exactly at ``t``, so no instant straddles a barrier.
        self.sim = Simulator()
        telemetry = bool(config.telemetry_enabled or config.telemetry_path)
        self.hoods = [_Hood(self.sim, config, h, journal, telemetry)
                      for h in hood_ids]

    def capacities(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for h in self.hoods:
            out.update(h.capacities)
        return out

    def extend_static_knowledge(self, site_capacities: dict) -> None:
        for h in self.hoods:
            h.extend_static_knowledge(site_capacities)

    def run_window(self, until: float) -> None:
        self.sim.run(until=until)

    def sample_timeline(self, t: float) -> None:
        for h in self.hoods:
            h.sample_timeline(t)

    def collect(self) -> dict[int, list]:
        return {h.hood: h.collect() for h in self.hoods}

    def deliver(self, inbound: dict[int, list], barrier_t: float) -> None:
        for h in self.hoods:
            h.deliver(inbound.get(h.hood, []), barrier_t)

    def finalize(self) -> dict[int, tuple[RunSummary, Optional[list],
                                          Optional[list]]]:
        out = {}
        for h in self.hoods:
            entries = None
            if h.journal is not None:
                entries = [(e.time, e.kind, e.detail) for e in h.journal.entries]
            out[h.hood] = (h.finalize(), entries, h.timeline)
        return out


def _route(outbound: dict[int, list]) -> dict[int, list]:
    """All-to-all exchange with deterministic ``(dest, src)`` ordering.

    Every hood's batch goes to every *other* hood: one decision point
    per hood makes the mesh exchange exactly the all-to-all flood, and
    origin filtering in :meth:`_Hood.collect` already guarantees each
    record crosses the barrier once.
    """
    sources = sorted(src for src, recs in outbound.items() if recs)
    return {dest: [(src, outbound[src]) for src in sources if src != dest]
            for dest in outbound}


def _barriers(config: ExperimentConfig) -> list[float]:
    """Barrier instants: sync-epoch multiples strictly inside the run."""
    epoch = config.sync_interval_s
    out, i = [], 1
    while i * epoch < config.duration_s:
        out.append(i * epoch)
        i += 1
    return out


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


def _hood_barrier_state(h: _Hood) -> dict:
    """Grouping-independent state of one neighborhood at a barrier.

    Deliberately excludes the kernel section — the event heap is shared
    per shard, so its contents depend on how hoods are grouped;
    everything captured here belongs to this hood alone, so the digest
    is identical under any shard count.
    """
    built = h.built
    return {
        "rng": built.rng.snapshot_state(),
        "grid": [built.grid.sites[name].snapshot_state()
                 for name in sorted(built.grid.sites)],
        "dp": h.dp.snapshot_state(),
        "clients": [c.snapshot_state() for c in built.clients],
        "mark": h._mark,
    }


def _run_lockstep(config: ExperimentConfig, plan: list[list[int]],
                  journal: bool, restore_snapshot: Optional[dict] = None):
    import os

    from repro.sim.snapshot import (SnapshotError, checkpoint_filename,
                                    encode_config, state_digest,
                                    write_snapshot)

    runtimes = [_ShardRuntime(config, hood_ids, journal)
                for hood_ids in plan]
    # Pre-run exchange of static knowledge: every view learns every
    # site's capacity before the first event executes.
    global_caps: dict[str, int] = {}
    for rt in runtimes:
        global_caps.update(rt.capacities())
    for rt in runtimes:
        rt.extend_static_knowledge(global_caps)
    hoods = [h for rt in runtimes for h in rt.hoods]
    ckpt_dir = (config.checkpoint_dir
                if config.checkpoint_every_s > 0 else "")
    next_due = config.checkpoint_every_s
    restore_t = (restore_snapshot["barrier_t"]
                 if restore_snapshot is not None else None)
    verified = restore_snapshot is None
    for index, t in enumerate(_barriers(config)):
        outbound: dict[int, list] = {}
        for rt in runtimes:
            rt.run_window(t)
            rt.sample_timeline(t)
            outbound.update(rt.collect())
        # Barrier checkpoints/verification happen after collect (the
        # watermark is part of the digest) and before deliver (the
        # adoption events run in the *next* window on both sides).
        due = bool(ckpt_dir) and t >= next_due
        if due or t == restore_t:
            digests = {str(h.hood): state_digest(_hood_barrier_state(h))
                       for h in hoods}
            if t == restore_t:
                want = restore_snapshot["hood_digests"]
                if digests != want:
                    diverged = sorted(k for k in digests
                                      if digests[k] != want.get(k))
                    raise SnapshotError(
                        f"lockstep rerun diverged from the barrier "
                        f"checkpoint at t={t:g} in neighborhood(s): "
                        f"{', '.join(diverged)}")
                verified = True
            if due:
                try:
                    os.makedirs(ckpt_dir, exist_ok=True)
                except OSError as err:
                    raise SnapshotError(f"cannot create checkpoint directory "
                                        f"{ckpt_dir!r}: {err}") from err
                write_snapshot(
                    {"sharded": True, "barrier_t": t,
                     "barrier_index": index,
                     "config": encode_config(config),
                     "hood_digests": digests},
                    os.path.join(ckpt_dir, checkpoint_filename(t, index)))
                while next_due <= t:
                    next_due += config.checkpoint_every_s
        inbound = _route(outbound)
        for rt in runtimes:
            rt.deliver(inbound, t)
    if not verified:
        raise SnapshotError(
            f"restore checkpoint's barrier t={restore_t:g} was never "
            f"reached (run has {len(_barriers(config))} barriers)")
    outcomes: dict[int, tuple] = {}
    for rt in runtimes:
        rt.run_window(config.duration_s)
        rt.sample_timeline(config.duration_s)
        outcomes.update(rt.finalize())
    events = sum(rt.sim.events_executed for rt in runtimes)
    heap_peak = max(rt.sim.heap_peak for rt in runtimes)
    return outcomes, events, heap_peak


def _shard_worker(conn, config: ExperimentConfig, hood_ids: list[int],
                  journal: bool) -> None:
    """One shard in its own process, barrier-stepped by the parent."""
    try:
        rt = _ShardRuntime(config, hood_ids, journal)
        conn.send(rt.capacities())
        rt.extend_static_knowledge(conn.recv())
        for t in _barriers(config):
            rt.run_window(t)
            rt.sample_timeline(t)
            conn.send(rt.collect())
            rt.deliver(conn.recv(), t)
        rt.run_window(config.duration_s)
        rt.sample_timeline(config.duration_s)
        conn.send(("ok", rt.finalize(), rt.sim.events_executed,
                   rt.sim.heap_peak))
    except BaseException as err:  # surface, don't hang the parent
        conn.send(("error", f"{type(err).__name__}: {err}"))
        raise
    finally:
        conn.close()


def _run_workers(config: ExperimentConfig, plan: list[list[int]],
                 journal: bool):
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
        global_caps: dict[str, int] = {}
        for conn in pipes:
            global_caps.update(conn.recv())
        for conn in pipes:
            conn.send(global_caps)
        for t in _barriers(config):
            outbound: dict[int, list] = {}
            for conn in pipes:
                outbound.update(conn.recv())
            inbound = _route(outbound)
            for hood_ids, conn in zip(plan, pipes):
                conn.send({h: inbound.get(h, []) for h in hood_ids})
        outcomes: dict[int, tuple] = {}
        events = heap_peak = 0
        for conn in pipes:
            msg = conn.recv()
            if msg[0] != "ok":
                raise RuntimeError(f"shard worker failed: {msg[1]}")
            outcomes.update(msg[1])
            events += msg[2]
            heap_peak = max(heap_peak, msg[3])
        return outcomes, events, heap_peak
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
    onto that many event heaps (``mode="lockstep"``) or worker
    processes (``mode="workers"``).  Results are independent of both
    ``n_shards`` and ``mode`` — see the module docstring.  With
    ``journal=True`` every neighborhood runs fully probed and the
    result carries the canonical merged :class:`EventJournal`.

    With ``config.checkpoint_every_s > 0`` the lockstep executor writes
    a barrier checkpoint — per-neighborhood state digests at an epoch
    barrier — whenever a barrier crosses the cadence.  ``restore``
    names such a checkpoint: the run is a verified lockstep rerun that
    must re-derive every neighborhood's digest at that barrier
    (:class:`~repro.sim.snapshot.SnapshotError` names diverging hoods)
    before completing.  Both are lockstep-only.
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
        outcomes, events, heap_peak = _run_workers(config, plan, journal)
    else:
        outcomes, events, heap_peak = _run_lockstep(
            config, plan, journal, restore_snapshot=restore_snapshot)
    wall = _walltime.perf_counter() - start
    summaries = tuple(outcomes[h][0] for h in sorted(outcomes))
    merged = None
    if journal:
        merged = _merge_journals({h: outcomes[h][1] for h in outcomes})
    timeline = None
    if config.telemetry_enabled or config.telemetry_path:
        from repro.obs.jsonl import write_jsonl
        from repro.obs.timeline import merge_hood_timelines, timeline_meta
        timeline = merge_hood_timelines(
            {h: outcomes[h][2] for h in outcomes})
        if config.telemetry_path:
            write_jsonl(config.telemetry_path, timeline,
                        meta=timeline_meta(config, config.sync_interval_s))
    return ShardedRunResult(config=config, n_shards=n_shards, mode=mode,
                            summaries=summaries, total_events=events,
                            heap_peak=heap_peak, wall_s=wall,
                            journal=merged, timeline=timeline)

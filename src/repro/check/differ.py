"""Differential replay: run a config pair, bisect the first divergence.

The planes make equivalence claims that a bare "results differ" cannot
debug: every observer on/off leaves runs event-identical,
``run_parallel`` is worker-count independent, delta sync converges to
the same views as flooding, any shard grouping replays the same
journal, and a restored run continues the killed one.  Each claim maps to
a named **pair** here; both sides run with journal probes installed
(:func:`repro.check.digest.install_probes`) and the chained digests are
compared, bisecting to the first divergent semantic event with its span
context.

Pair semantics:

* ``observers`` — no observer but the journal vs every observer at
  once (trace ring + sink file, span tracing, timeline sampler + file,
  flight recorder armed): observing must be strictly read-only, so
  both sides replay event-for-event (span ctx rides outside the
  digest, so equality is exact).  The journal subscribes to the trace
  stream, so side A ends with the summary digest of a probe-free,
  tracing-off run and side B with the observed run's;
* ``workers`` — ``run_parallel`` with 1 vs 4 workers over the same
  config batch, comparing per-run summary digests;
* ``delta-sync`` — flood vs per-peer delta dissemination.  Delta
  changes payload sizes (hence simulated transfer timing), so full
  experiments are *expected* to differ event-for-event; the claim is
  **convergence**, checked on a scripted harness with no clients:
  scripted dispatches, then quiescence, then every decision point's
  final live record set must match between the two modes.
* ``sharded-2`` / ``sharded-4`` — the space-parallel kernel's
  partition-independence claim: ``run_sharded`` on one shard in-process
  vs two (or four) worker processes, comparing the canonically merged
  per-neighborhood event journals.  Any shard grouping must replay to
  the same chained digest.
* ``resume`` / ``resume-sharded`` — checkpoint/restore equivalence: an
  uninterrupted run vs one killed mid-flight and restored from its
  newest checkpoint by verified replay, with chaos and the strict
  checker riding; ``resume-sharded`` runs it on one neighborhood of a
  sharded run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.check.digest import EventJournal, JournalEntry, first_divergence

__all__ = ["DiffReport", "PAIRS", "run_pair", "inject_divergence"]


@dataclass
class DiffReport:
    """Outcome of one differential replay."""

    pair: str
    label_a: str
    label_b: str
    journal_a: EventJournal
    journal_b: EventJournal
    divergence: Optional[tuple[Optional[JournalEntry],
                               Optional[JournalEntry]]]

    @property
    def identical(self) -> bool:
        return self.divergence is None

    def describe(self) -> str:
        head = (f"diff {self.pair}: {self.label_a} "
                f"({len(self.journal_a)} events, "
                f"digest {self.journal_a.digest:#010x}) vs {self.label_b} "
                f"({len(self.journal_b)} events, "
                f"digest {self.journal_b.digest:#010x})")
        if self.identical:
            return head + "\n  IDENTICAL"
        a, b = self.divergence
        lines = [head, "  DIVERGED at first differing event:"]
        lines.append(f"    {self.label_a}: "
                     + (a.describe() if a is not None else "<journal ended>"))
        lines.append(f"    {self.label_b}: "
                     + (b.describe() if b is not None else "<journal ended>"))
        return "\n".join(lines)


def _report(pair: str, label_a: str, journal_a: EventJournal,
            label_b: str, journal_b: EventJournal) -> DiffReport:
    return DiffReport(pair=pair, label_a=label_a, label_b=label_b,
                      journal_a=journal_a, journal_b=journal_b,
                      divergence=first_divergence(journal_a, journal_b))


def inject_divergence(journal: EventJournal, index: int) -> EventJournal:
    """A copy of ``journal`` with the entry at ``index`` corrupted.

    Exercises the report path on demand: the rebuilt journal differs in
    exactly one payload, so the bisection must name that entry.
    """
    if not 0 <= index < len(journal):
        raise ValueError(f"inject index {index} outside journal "
                         f"[0, {len(journal)})")
    mutated = EventJournal()
    for e in journal.entries:
        detail = e.detail + "|INJECTED" if e.index == index else e.detail
        mutated.record(e.time, e.kind, detail, ctx=e.ctx)
    return mutated


# ---------------------------------------------------------------------------
# Experiment-pair plumbing


def _diff_config(duration_s: float, seed: int, spans: bool = True):
    """The canonical differential smoke: 3 decision points (so the sync
    plane actually carries traffic), short but multi-round, spans on by
    default so divergence reports carry causal context."""
    from repro.experiments.configs import smoke_config
    return smoke_config(
        decision_points=3, n_clients=10, duration_s=duration_s,
        sync_interval_s=30.0, monitor_interval_s=60.0,
        spans_enabled=spans, seed=seed, name="diff")


def _journaled_build(config):
    """Build ``config`` with journal probes installed: (journal, built)."""
    from repro.check.digest import install_probes
    from repro.experiments.runner import build_experiment

    journal = EventJournal()
    built = build_experiment(config)
    install_probes(journal, deployment=built.deployment,
                   sites=built.grid.sites.values())
    return journal, built


def _run_journaled(config) -> EventJournal:
    from repro.experiments.runner import run_built

    journal, built = _journaled_build(config)
    run_built(built)
    return journal


def _pair_observers(duration_s: float, seed: int) -> DiffReport:
    """No observability vs every observer at once.

    The observability plane's safety claim: recording is strictly
    read-only — span IDs come from their own RNG stream, a
    :class:`~repro.obs.timeline.TimelineSampler` tick mutates no
    semantic state and schedules only itself, trace emission and the
    armed flight recorder schedule nothing — so a fully observed run
    must be event-identical to a bare one.  The trace and timeline
    stream to files on side B to cover the sink path too.

    Journal probes subscribe to the trace stream, so both journaled
    runs trace.  Side A's last entry is therefore the summary digest
    (every job row) of a third, probe-free run of ``base``, which
    traces nothing; side B's is the observed run's.
    """
    import os
    import tempfile

    from repro.experiments.parallel import summarize, summary_digest
    from repro.experiments.runner import build_experiment, run_built

    def run_to_end(built) -> str:
        return summary_digest(summarize(run_built(built)))

    base = _diff_config(duration_s, seed, spans=False).with_(seed=seed)
    bare_end = run_to_end(build_experiment(base))
    journal_a = _run_journaled(base)
    journal_a.record(base.duration_s, "run.end", bare_end)
    with tempfile.TemporaryDirectory() as tmp:
        observed = base.with_(
            trace_path=os.path.join(tmp, "trace.jsonl"),
            spans_enabled=True,
            telemetry_path=os.path.join(tmp, "timeline.jsonl"),
            flight_path=os.path.join(tmp, "flight.json"))
        journal_b, built_b = _journaled_build(observed)
        observed_end = run_to_end(built_b)
    journal_b.record(observed.duration_s, "run.end", observed_end)
    return _report("observers", "unobserved", journal_a,
                   "observed", journal_b)


def _pair_workers(duration_s: float, seed: int) -> DiffReport:
    """1 vs 4 workers over the same config batch: per-run summary
    digests, in input order, must match exactly."""
    from repro.experiments.parallel import run_parallel, summary_digest

    configs = [_diff_config(duration_s, seed).with_(seed=seed + i,
                                                    spans_enabled=False,
                                                    name=f"diff-w{i}")
               for i in range(3)]
    ja, jb = EventJournal(), EventJournal()
    for journal, workers in ((ja, 1), (jb, 4)):
        for i, summary in enumerate(run_parallel(configs,
                                                 max_workers=workers)):
            journal.record(float(i), "run.summary",
                           f"{summary.config.name}|{summary_digest(summary)}")
    return _report("workers", "1-worker", ja, "4-workers", jb)


def _sharded_config(duration_s: float, seed: int, name: str):
    """The 4-neighborhood config of the sharded pairs."""
    from repro.experiments.configs import smoke_config
    return smoke_config(
        decision_points=4, n_clients=16, n_sites=16, total_cpus=800,
        duration_s=duration_s, sync_interval_s=30.0,
        monitor_interval_s=60.0, seed=seed, name=name)


def _pair_sharded(n_shards: int, duration_s: float, seed: int) -> DiffReport:
    """1 shard in-process vs ``n_shards`` worker processes.

    ``run_sharded`` journals every neighborhood and merges the streams
    canonically (sorted by time, hood, per-hood index), so the chained
    digests must match entry-for-entry regardless of grouping.  Spans
    stay off: hood sub-configs force per-sim observability off anyway.
    """
    from repro.sim.sharded import run_sharded

    config = _sharded_config(duration_s, seed, "diff-sharded")
    serial = run_sharded(config, n_shards=1, journal=True)
    sharded = run_sharded(config, n_shards=n_shards, mode="workers",
                          journal=True)
    return _report(f"sharded-{n_shards}",
                   "1-shard", serial.journal,
                   f"{n_shards}-shards", sharded.journal)


def _pair_autoscale_frozen(duration_s: float, seed: int) -> DiffReport:
    """Frozen controller vs no controller at all.

    The elastic-plane safety claim: the control loop's *observation*
    path (SignalBus sampling, gauges, hysteresis bookkeeping) draws no
    randomness and schedules only its own tick, so a controller that
    never acts (policy ``frozen``) must be event-identical to a run
    with no controller.  Any divergence means sampling perturbed the
    simulation — exactly the class of bug this pair exists to catch.
    """
    from repro.control import AutoscaleConfig
    base = _diff_config(duration_s, seed).with_(seed=seed)
    frozen = base.with_(autoscale=AutoscaleConfig(policy="frozen",
                                                  interval_s=30.0))
    return _report(
        "autoscale-frozen",
        "no-controller", _run_journaled(base),
        "frozen-controller", _run_journaled(frozen))


def _pair_delta_sync(duration_s: float, seed: int) -> DiffReport:
    ja = _scripted_sync_run(duration_s, seed, delta=False)
    jb = _scripted_sync_run(duration_s, seed, delta=True)
    return _report("delta-sync", "flood", ja, "delta", jb)


def _scripted_sync_run(duration_s: float, seed: int,
                       delta: bool) -> EventJournal:
    """Scripted convergence harness for the delta-sync claim.

    No clients, no WAN jitter in the dispatch script: each decision
    point on a ring records a deterministic stream of local dispatches;
    the overlay disseminates them (flood or delta); after a quiescence
    window every decision point journals its final live record set and
    per-site usage estimate.  Flood and delta must agree on all of it —
    per-event timing is allowed to differ (payload sizes differ by
    design), final knowledge is not.
    """
    from repro.core.broker import DIGruberDeployment
    from repro.grid.builder import GridBuilder
    from repro.net.container import GT3_PROFILE
    from repro.net.latency import LanLatency
    from repro.net.transport import Network
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry

    n_dps = 4
    interval_s = 20.0
    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(sim, LanLatency(), kb_transfer_s=0.0)
    grid = GridBuilder(sim, rng.stream("grid")).build(
        n_sites=6, total_cpus=240, n_vos=2, groups_per_vo=2,
        users_per_group=2, name="delta-diff")
    deployment = DIGruberDeployment(
        sim=sim, network=network, grid=grid, rng=rng,
        profile=GT3_PROFILE,
        n_decision_points=n_dps, topology_kind="ring",
        sync_interval_s=interval_s, monitor_interval_s=duration_s * 10,
        sync_delta=delta)
    deployment.start()

    sites = sorted(grid.sites)
    dps = list(deployment.decision_points.values())
    # Scripted dispatch plan: spread across DPs, sites, and VOs over the
    # first half of the run; the second half is the convergence window.
    for i in range(24):
        t = 1.0 + i * (duration_s / 2) / 24
        dp = dps[i % n_dps]
        site = sites[i % len(sites)]
        sim.schedule(
            t, lambda dp=dp, site=site, i=i: dp.engine.record_local_dispatch(
                site=site, vo=f"vo{i % 2}", cpus=1 + i % 3,
                now=dp.sim.now))
    sim.run(until=duration_s)

    journal = EventJournal()
    for dp_id in sorted(deployment.decision_points):
        view = deployment.decision_points[dp_id].engine.view
        keys = ",".join(f"{o}:{s}" for o, s in sorted(view._live))
        usage = ";".join(f"{site}={int(extra)}" for site, extra
                         in sorted(zip(view.capacities, view._extra_busy)))
        journal.record(sim.now, "dp.final", f"{dp_id}|{keys}|{usage}")
    return journal


def _pair_resume(base, pair: str) -> DiffReport:
    """Uninterrupted run vs killed-and-restored run of ``base``.

    Both sides checkpoint on the same cadence — checkpoint ticks are
    simulation events, so event-identity requires identical scheduling.
    Side A runs to completion.  Side B runs just past the half-way
    point, is aborted as a mid-run kill would abort it, and is then
    restored from its newest on-disk checkpoint (verified deterministic
    replay — see :mod:`repro.sim.snapshot`).  The strict invariant
    checker rides along, and so does ``base``'s chaos scenario, so the
    equality claim covers fault injection and periodic checking too.
    The restored side's journal regenerates from t=0 during replay, so
    the two journals must chain to the same digest entry-for-entry.
    """
    import tempfile

    from repro.check.digest import install_probes
    from repro.experiments.runner import abort_experiment, build_experiment
    from repro.sim.snapshot import newest_checkpoint, resume_experiment

    duration_s = base.duration_s

    def checkpointed(directory):
        return base.with_(check_enabled=True, check_strict=True,
                          checkpoint_every_s=duration_s / 5,
                          checkpoint_dir=directory)

    with tempfile.TemporaryDirectory() as dir_a, \
            tempfile.TemporaryDirectory() as dir_b:
        ja = _run_journaled(checkpointed(dir_a))

        partial = EventJournal()
        built = build_experiment(checkpointed(dir_b))
        install_probes(partial, deployment=built.deployment,
                       sites=built.grid.sites.values())
        built.sim.run(until=duration_s * 0.55)
        abort_experiment(built, RuntimeError("simulated mid-run kill"))
        checkpoint = newest_checkpoint(dir_b)
        if checkpoint is None:
            raise RuntimeError(
                "resume pair found no checkpoint after the partial leg; "
                f"expected one in {dir_b}")

        jb = EventJournal()

        def hook(sim=None, deployment=None, network=None, grid=None,
                 rng=None):
            install_probes(jb, deployment=deployment,
                           sites=grid.sites.values())

        resume_experiment(checkpoint, deployment_hook=hook)
    return _report(pair, "uninterrupted", ja, "restored", jb)


def _pair_resume_monolithic(duration_s: float, seed: int) -> DiffReport:
    return _pair_resume(_diff_config(duration_s, seed).with_(
        seed=seed, chaos_scenario="dp_crash_restart", name="diff-resume"),
        "resume")


def _pair_resume_sharded(duration_s: float, seed: int) -> DiffReport:
    """The ``resume`` pair on hood 0 of the sharded pairs' config: a hood
    checkpoints and restores as the monolithic run it is, and hood 0
    carries the config's chaos scenario."""
    from repro.sim.sharded import hood_config

    config = _sharded_config(duration_s, seed, "diff-resume-sharded")
    return _pair_resume(
        hood_config(config.with_(chaos_scenario="dp_crash_restart"), 0),
        "resume-sharded")


PAIRS: dict[str, Callable[[float, int], DiffReport]] = {
    "observers": _pair_observers,
    "workers": _pair_workers,
    "delta-sync": _pair_delta_sync,
    "autoscale-frozen": _pair_autoscale_frozen,
    "sharded-2": lambda d, s: _pair_sharded(2, d, s),
    "sharded-4": lambda d, s: _pair_sharded(4, d, s),
    "resume": _pair_resume_monolithic,
    "resume-sharded": _pair_resume_sharded,
}


def run_pair(pair: str, duration_s: float = 300.0,
             seed: int = 20050101, inject: Optional[int] = None
             ) -> DiffReport:
    """Run one named pair; optionally corrupt side B at ``inject``."""
    try:
        runner = PAIRS[pair]
    except KeyError:
        raise ValueError(f"unknown pair {pair!r}; expected one of "
                         f"{sorted(PAIRS)}") from None
    report = runner(duration_s, seed)
    if inject is not None:
        mutated = inject_divergence(report.journal_b, inject)
        report = _report(report.pair, report.label_a, report.journal_a,
                         report.label_b + "+injected", mutated)
    return report

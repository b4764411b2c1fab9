"""Experiment configuration.

The canonical environment reconstructs the paper's §4.3 setup (all
numerals were lost to the OCR; see DESIGN.md for the derivation):

* emulated grid: 300 sites / 40,000 CPUs (10x Grid3), 10 VOs x 10
  groups;
* ~120 submission hosts for GT3 (a smaller fleet for GT4 — the paper's
  GT4 runs used a different client count), each submitting one job per
  second, ramped in slowly by DiPerF over the first half of the run;
* one-hour experiments; 15 s client timeout; 3-minute sync interval;
  decision points in a mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.control.policy import AutoscaleConfig

from repro.core.sync import DisseminationStrategy
from repro.net.container import ContainerProfile, GT3_PROFILE, GT4_PROFILE
from repro.resilience.policy import ResilienceConfig
from repro.workloads.models import JobModel

__all__ = ["ExperimentConfig", "canonical_gt3", "canonical_gt4",
           "smoke_config", "chaos_smoke_config", "scale_config",
           "CANONICAL_TIMEOUT_S", "CANONICAL_SYNC_INTERVAL_S"]

CANONICAL_TIMEOUT_S = 15.0
CANONICAL_SYNC_INTERVAL_S = 180.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one DI-GRUBER run."""

    # Broker side.
    profile: ContainerProfile = GT3_PROFILE
    decision_points: int = 1
    topology: str = "mesh"
    sync_interval_s: float = CANONICAL_SYNC_INTERVAL_S
    monitor_interval_s: float = 600.0
    strategy: DisseminationStrategy = DisseminationStrategy.USAGE_ONLY
    usla_aware: bool = False
    selector: str = "least_used"

    # Client side.  Every host submits one job per second and binds to
    # one decision point drawn at random (paper §4.3).
    n_clients: int = 120
    timeout_s: float = CANONICAL_TIMEOUT_S
    ramp_fraction: float = 0.5   # clients join over this fraction of the run
    one_phase: bool = False      # §7's broker/job-manager tight coupling

    # Environment.
    duration_s: float = 3600.0
    n_sites: int = 300
    total_cpus: int = 40000
    backfill: bool = False  # site schedulers: FIFO (default) or backfill
    n_vos: int = 10
    groups_per_vo: int = 10
    users_per_group: int = 3
    job_model: JobModel = field(default_factory=JobModel)

    # WAN: PlanetLab-like pairwise latency (``PairwiseWanLatency``'s
    # defaults).  ``lan=True`` swaps in sub-millisecond LAN latency and
    # free transfers (the paper: "we expect that performance will be
    # significantly better in a LAN environment").  Message loss comes
    # from the fault layer (``chaos_scenario``) only.
    lan: bool = False
    kb_transfer_s: float = 0.15
    site_state_kb: float = 0.06

    # Chaos (repro.faults): named fault scenario injected through the
    # DES clock ("" = no faults).  See repro.faults.scenarios.
    chaos_scenario: str = ""

    # Resilience (repro.resilience): client-side retry/backoff, circuit
    # breakers and probe-driven failover (None = the paper's
    # single-attempt timeout → random fallback).
    resilience: Optional[ResilienceConfig] = None

    # Bounded-queue load shedding at every decision point's container
    # (None = unbounded, the paper's behaviour).
    dp_queue_bound: Optional[int] = None

    # Control plane (repro.control): closed-loop decision-point
    # autoscaling with dynamic client placement (None = static fleet,
    # the paper's behaviour).  ``decision_points`` is the *initial*
    # fleet; the planner grows/shrinks it within the policy's bounds.
    autoscale: Optional["AutoscaleConfig"] = None
    # Named arrival profile (repro.workloads.profiles): "steady" is the
    # paper's fixed cadence; "diurnal"/"bursty" make demand move so the
    # autoscaler has something to track.
    workload_profile: str = "steady"

    # ``sync_delta`` ships per-peer deltas instead of re-flooding the
    # horizon; it changes payload sizes (hence simulated timing), so it
    # is an opt-in: the paper configs need it off, 10x grids need it on.
    sync_delta: bool = False

    # Correctness plane (repro.check).  The online invariant checker
    # rides the run as a periodic checkpoint pass — opt-in because it
    # costs per-checkpoint work; zero-cost when off (nothing is
    # constructed).  ``check_strict`` raises on the first violation
    # (tests); otherwise violations count + trace and the run finishes.
    check_enabled: bool = False
    check_interval_s: float = 30.0
    check_strict: bool = False

    # Observability (repro.obs).  Counters/histograms are always on;
    # the structured trace is opt-in because it costs per-event work.
    trace_enabled: bool = False
    trace_path: str = ""        # stream events to this JSONL file
    # Causal span tracing (repro.obs.spans): per-job lifecycle spans,
    # decide-staleness annotations, sync-round propagation.  Setting a
    # path implies enabling; sampling keeps every Nth trace root.
    spans_enabled: bool = False
    spans_path: str = ""         # export spans to this JSONL file
    spans_sample: int = 1        # head sampling: record every Nth trace
    # Telemetry timeline (repro.obs.timeline): a DES-clock sampler
    # taking one MetricsRegistry.collect() pass per interval into a
    # bounded series.  Strictly read-only — telemetry-on runs are
    # event-identical to telemetry-off (``digruber diff --pair
    # observers``).  Setting a path implies enabling; the file is
    # flushed row by row, so ``digruber top --follow`` can tail it live.
    telemetry_enabled: bool = False
    telemetry_interval_s: float = 30.0
    telemetry_path: str = ""       # stream timeline rows to this JSONL file
    # Flight recorder (repro.obs.flight): bounded black box dumped to
    # ``flight_path`` on crash / strict-check violation / SIGTERM; a
    # path arms it.  Zero-cost while the run is healthy (references
    # only, nothing copied per event).
    flight_path: str = ""

    # Checkpointing (repro.sim.snapshot): write a CRC-stamped snapshot
    # every ``checkpoint_every_s`` simulated seconds into
    # ``checkpoint_dir``.  Checkpoint callbacks are read-only and drawn
    # from no RNG stream, and both the reference and the resumed run
    # carry identical checkpoint scheduling, so checkpointing-on runs
    # are event-identical to checkpointing-off modulo the checkpoint
    # events themselves (``digruber diff --pair resume`` proves the
    # resume contract end to end).
    checkpoint_every_s: float = 0.0   # 0 = checkpointing off
    checkpoint_dir: str = ""

    # Reproducibility.
    seed: int = 20050101
    name: str = "experiment"
    # Job ids are dense per run starting at ``1 + jid_offset``.  The
    # sharded runtime gives every DP neighborhood a disjoint id block
    # so per-hood traces can be merged without collisions.
    jid_offset: int = 0

    def __post_init__(self):
        if self.decision_points < 1:
            raise ValueError("decision_points must be >= 1")
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if not (0.0 < self.ramp_fraction <= 1.0):
            raise ValueError("ramp_fraction must be in (0, 1]")
        if not 0 < self.duration_s < math.inf:
            raise ValueError(
                f"duration_s must be finite and > 0, got {self.duration_s}")
        if self.chaos_scenario:
            from repro.faults.scenarios import scenario_names
            if self.chaos_scenario not in scenario_names():
                raise ValueError(
                    f"unknown chaos scenario {self.chaos_scenario!r}; "
                    f"expected one of {scenario_names()}")
        if self.dp_queue_bound is not None and self.dp_queue_bound < 0:
            raise ValueError("dp_queue_bound must be >= 0 or None")
        if self.autoscale is not None:
            from repro.control.policy import AutoscaleConfig
            if not isinstance(self.autoscale, AutoscaleConfig):
                raise ValueError("autoscale must be an AutoscaleConfig")
        if self.workload_profile:
            from repro.workloads.profiles import arrival_profile
            arrival_profile(self.workload_profile)  # raises on unknown
        if not self.spans_sample >= 1:
            raise ValueError(
                f"spans_sample must be >= 1, got {self.spans_sample}")
        if not self.telemetry_interval_s > 0:
            raise ValueError(f"telemetry_interval_s must be > 0, "
                             f"got {self.telemetry_interval_s}")
        if not self.check_interval_s > 0:
            raise ValueError(f"check_interval_s must be > 0, "
                             f"got {self.check_interval_s}")
        if self.jid_offset < 0:
            raise ValueError("jid_offset must be >= 0")
        if self.checkpoint_every_s < 0:
            raise ValueError("checkpoint_every_s must be >= 0")
        if self.checkpoint_every_s > 0 and not self.checkpoint_dir:
            raise ValueError(
                "checkpoint_every_s > 0 requires a checkpoint_dir")

    def with_(self, **overrides) -> "ExperimentConfig":
        """A modified copy (sweeps use this)."""
        return replace(self, **overrides)

    @property
    def ramp_span_s(self) -> float:
        return self.duration_s * self.ramp_fraction


def canonical_gt3(decision_points: int = 1, **overrides) -> ExperimentConfig:
    """The paper's GT3 DI-GRUBER environment (Figs 5-8, Table 1)."""
    cfg = ExperimentConfig(profile=GT3_PROFILE,
                           decision_points=decision_points,
                           n_clients=120,
                           name=f"gt3-{decision_points}dp")
    return cfg.with_(**overrides) if overrides else cfg


def canonical_gt4(decision_points: int = 1, **overrides) -> ExperimentConfig:
    """The paper's GT4 DI-GRUBER environment (Figs 9-12, Table 2).

    The GT4 test fleet is smaller (the paper notes a different client
    count, "close to [N] in this case"); 50 hosts reproduces the
    documented unsaturated-at-ten-DPs / saturated-at-three behaviour.
    """
    cfg = ExperimentConfig(profile=GT4_PROFILE,
                           decision_points=decision_points,
                           n_clients=50,
                           name=f"gt4-{decision_points}dp")
    return cfg.with_(**overrides) if overrides else cfg


def scale_config(multiplier: int = 1, decision_points: int = 3,
                 duration_s: float = 600.0, **overrides) -> ExperimentConfig:
    """A k×-grid configuration for the scale sweep.

    Scales the canonical GT3 environment by ``multiplier``: k× sites,
    k× CPUs, and k× submission hosts.  The canonical environment
    (``multiplier=1``) already *is* the paper's headline question — a
    grid ten times Grid3/OSG — so ``multiplier=10`` is ten times the
    paper's grid (100× Grid3).  Short default duration keeps a full
    sweep benchable.
    """
    if multiplier < 1:
        raise ValueError("multiplier must be >= 1")
    cfg = ExperimentConfig(
        profile=GT3_PROFILE,
        decision_points=decision_points,
        n_clients=120 * multiplier,
        duration_s=duration_s,
        n_sites=300 * multiplier,
        total_cpus=40000 * multiplier,
        name=f"scale-{multiplier}x-{decision_points}dp")
    return cfg.with_(**overrides) if overrides else cfg


def smoke_config(**overrides) -> ExperimentConfig:
    """A seconds-scale configuration for tests: small grid, short run."""
    cfg = ExperimentConfig(
        decision_points=1, n_clients=8, duration_s=300.0,
        n_sites=12, total_cpus=600, n_vos=2, groups_per_vo=2,
        users_per_group=2, monitor_interval_s=120.0, sync_interval_s=60.0,
        job_model=JobModel(duration_mean_s=120.0, min_duration_s=10.0),
        name="smoke")
    return cfg.with_(**overrides) if overrides else cfg


def chaos_smoke_config(scenario: str = "dp_crash_restart",
                       resilient: bool = True,
                       **overrides) -> ExperimentConfig:
    """A seconds-scale chaos run: small grid, injected faults.

    Two decision points so crash/partition scenarios leave somewhere to
    fail over to; ``resilient`` toggles the full policy stack (retry +
    breaker + failover + bounded queues) against the paper's
    timeout-only baseline.
    """
    cfg = smoke_config(
        decision_points=2, n_clients=10, duration_s=600.0,
        chaos_scenario=scenario,
        resilience=ResilienceConfig() if resilient else None,
        dp_queue_bound=50 if resilient else None,
        name=f"chaos-{scenario}-{'resilient' if resilient else 'baseline'}")
    return cfg.with_(**overrides) if overrides else cfg

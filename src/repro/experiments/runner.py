"""End-to-end experiment execution.

``run_experiment`` builds the whole stack — WAN, grid, DI-GRUBER
deployment, ramped client fleet — runs one simulated experiment, and
returns an :class:`ExperimentResult` from which every figure series and
table row derives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from repro.core.broker import DIGruberDeployment
from repro.core.client import GruberClient
from repro.core.selectors import make_selector
from repro.diperf.collector import DiPerfResult
from repro.diperf.ramp import RampSchedule
from repro.experiments.configs import ExperimentConfig
from repro.grid.builder import Grid, GridBuilder
from repro.metrics import defs as metric_defs
from repro.net.latency import LanLatency, PairwiseWanLatency
from repro.net.topology import assign_clients
from repro.net.transport import Network
from repro.obs.jsonl import JsonlSink
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.trace import TraceRecorder

__all__ = ["BuiltExperiment", "ExperimentResult", "abort_experiment",
           "build_experiment", "finalize_experiment", "run_built",
           "run_experiment"]


@dataclass
class BuiltExperiment:
    """A fully constructed, started-but-not-run experiment.

    ``build_experiment`` returns one of these with every component
    started (deployment, failover, clients) and zero simulated seconds
    elapsed; the caller decides how the clock advances.  The plain
    runner calls ``sim.run(until=duration)`` once; the sharded runtime
    (:mod:`repro.sim.sharded`) advances one per neighborhood in
    telemetry steps when its timeline is on.
    """

    config: ExperimentConfig
    sim: Simulator
    rng: RngRegistry
    network: Network
    grid: Grid
    deployment: DIGruberDeployment
    clients: list[GruberClient]
    hosts: list[str]
    offsets: dict
    trace: TraceRecorder
    injector: Optional[object] = None
    failover: Optional[object] = None
    checker: Optional[object] = None
    planner: Optional[object] = None
    sampler: Optional[object] = None
    flight: Optional[object] = None
    checkpointer: Optional[object] = None
    #: Every streaming JSONL artifact of the run, by stream name
    #: (``"trace"``, ``"telemetry"``): one mapping that finalize, abort
    #: and the snapshot plane's byte-offset verification iterate.
    sinks: dict = field(default_factory=dict)


@dataclass(kw_only=True)
class ExperimentResult(BuiltExperiment):
    """A finished run, with metric/table accessors: the built run plus
    each host's active window and the job table.
    :func:`finalize_experiment` is its only constructor."""

    client_starts: np.ndarray
    client_ends: np.ndarray
    _jobs: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._jobs = self.trace.job_arrays()

    # -- DiPerF view ----------------------------------------------------------
    def diperf(self, window_s: float = 60.0) -> DiPerfResult:
        return DiPerfResult(
            name=self.config.name, trace=self.trace,
            t_start=0.0, t_end=self.config.duration_s,
            client_starts=self.client_starts, client_ends=self.client_ends,
            window_s=window_s)

    # -- job categories (Tables 1-2 rows) ----------------------------------------
    def _mask(self, category: str) -> np.ndarray:
        """Job-category masks over *dispatched* jobs.

        "Requests" in Tables 1-2 are brokering operations the clients
        actually issued; jobs still waiting in host backlogs at the end
        of the run (or whose query was still in flight) never became
        requests and are excluded from every category.
        """
        handled = self._jobs["handled"]
        dispatched = ~np.isnan(self._jobs["dispatched_at"])
        if category == "handled":
            return handled & dispatched
        if category == "not_handled":
            return ~handled & dispatched
        if category == "all":
            return dispatched
        raise ValueError(f"unknown category {category!r}")

    @property
    def n_jobs(self) -> int:
        """Dispatched jobs (the paper's request population)."""
        return int(self._mask("all").sum())

    def n_requests(self, category: str = "all") -> int:
        return int(self._mask(category).sum())

    def qtime(self, category: str = "all") -> float:
        return metric_defs.qtime(self._jobs["queue_time_s"],
                                 self._mask(category))

    def normalized_qtime(self, category: str = "all") -> float:
        return metric_defs.normalized_qtime(
            self._jobs["queue_time_s"], self.n_requests(category),
            self._mask(category))

    def utilization(self, category: str = "all") -> float:
        return metric_defs.utilization(
            self._jobs["started_at"], self._jobs["completed_at"],
            self._jobs["cpus"], total_cpus=self.grid.total_cpus,
            t_end=self.config.duration_s, mask=self._mask(category))

    def accuracy(self, category: str = "handled") -> float:
        return metric_defs.accuracy(self._jobs["accuracy"],
                                    self._mask(category))

    def table_row(self, category: str) -> dict:
        """One Tables-1/2 row for a job category."""
        n = self.n_requests(category)
        row = {
            "category": category,
            "pct_req": 100.0 * n / self.n_jobs if self.n_jobs else 0.0,
            "n_req": n,
            "qtime_s": self.qtime(category),
            "norm_qtime": self.normalized_qtime(category),
            "util_pct": 100.0 * self.utilization(category),
            "accuracy_pct": (100.0 * self.accuracy(category)
                             if category != "not_handled" else float("nan")),
        }
        return row

    # -- observability ---------------------------------------------------------
    def obs_summary(self) -> str:
        """Event tallies, counters and latency histograms for this run."""
        from repro.metrics.report import render_obs_summary
        return render_obs_summary(
            self.sim.metrics, network_stats=self.network.stats,
            tracer=self.sim.trace, spans=self.sim.spans,
            title=f"{self.config.name}: observability")

    def dropped_sync_chains(self) -> int:
        """Periodic-chain errors during the run (should be zero — the
        accuracy figures assume every sync/monitor tick fired)."""
        return self.sim.metrics.counter_value("kernel.periodic_errors")

    # -- broker-side stats -----------------------------------------------------
    def dp_ops(self) -> dict[str, int]:
        return {dp_id: dp.container.completed_ops
                for dp_id, dp in self.deployment.decision_points.items()}

    def client_fallbacks(self) -> dict[str, int]:
        return {
            "handled": sum(c.n_handled for c in self.clients),
            "timeout": sum(c.n_fallback_timeout for c in self.clients),
            "backlogged": sum(c.backlog_len for c in self.clients),
        }

    def resilience_stats(self) -> dict[str, int]:
        """Policy-action tallies across the fleet (chaos benches)."""
        return {
            "retries": sum(c.n_retries for c in self.clients),
            "breaker_fastfail": sum(c.n_breaker_fastfail
                                    for c in self.clients),
            "failovers": sum(c.n_failovers for c in self.clients),
            "rebinds": sum(c.rebinds for c in self.clients),
            "shed": sum(dp.container.shed_ops
                        for dp in self.deployment.decision_points.values()),
            "dp_crashes": sum(dp.crashes
                              for dp in self.deployment.decision_points.values()),
            "dp_restarts": sum(dp.restarts
                               for dp in self.deployment.decision_points.values()),
            "resync_records": sum(
                dp.resync_records
                for dp in self.deployment.decision_points.values()),
            "faults_injected": (len(self.injector.applied)
                                if self.injector is not None else 0),
        }

    def control_stats(self) -> Optional[dict]:
        """Planner tallies for autoscaled runs (None when static)."""
        if self.planner is None:
            return None
        return self.planner.stats()

    def summary(self) -> str:
        d = self.diperf()
        fb = self.client_fallbacks()
        lines = [
            f"== {self.config.name}: {self.config.decision_points} decision "
            f"point(s), {self.config.n_clients} clients, "
            f"{self.config.duration_s:.0f} s ==",
            d.summary(),
            f"requests={self.n_jobs} handled={fb['handled']} "
            f"timeout-fallback={fb['timeout']} backlogged={fb['backlogged']}",
            f"util(all)={self.utilization('all'):.1%} "
            f"accuracy(handled)={self.accuracy('handled'):.1%} "
            f"qtime(all)={self.qtime('all'):.1f}s",
        ]
        cs = self.control_stats()
        if cs is not None:
            lines.append(
                f"autoscale[{cs['policy']}/{cs['placement']}]: "
                f"dps {self.config.decision_points}->{cs['final_dps']} "
                f"(converged {cs['converged_dps']}), "
                f"ups={cs['scale_ups']} downs={cs['scale_downs']} "
                f"moved={cs['clients_moved']}")
        return "\n".join(lines)


def build_experiment(config: ExperimentConfig) -> BuiltExperiment:
    """Construct and start one experiment without running the clock."""
    sim = Simulator()
    rng = RngRegistry(config.seed)

    sinks = {}
    if config.trace_enabled or config.trace_path:
        sim.trace.subscribe(sim.trace.ring)
        if config.trace_path:
            trace_file = sinks["trace"] = JsonlSink(config.trace_path)
            sim.trace.subscribe(lambda ev: trace_file.write(ev.to_dict()))

    if config.spans_enabled or config.spans_path:
        sim.spans.enabled = True
        sim.spans.sample_every = config.spans_sample
        # Dedicated RNG stream: span IDs never perturb any other draw,
        # so a spans-on run replays a spans-off run event for event.
        sim.spans.seed_ids(rng.stream("spans"))

    if config.lan:
        network = Network(sim, LanLatency())
    else:
        network = Network(sim, PairwiseWanLatency(rng.stream("wan")),
                          kb_transfer_s=config.kb_transfer_s)

    grid = GridBuilder(sim, rng.stream("grid")).build(
        n_sites=config.n_sites, total_cpus=config.total_cpus,
        n_vos=config.n_vos, groups_per_vo=config.groups_per_vo,
        users_per_group=config.users_per_group, name=config.name,
        backfill=config.backfill)

    deployment = DIGruberDeployment(
        sim=sim, network=network, grid=grid, profile=config.profile,
        rng=rng, n_decision_points=config.decision_points,
        topology_kind=config.topology,
        sync_interval_s=config.sync_interval_s,
        monitor_interval_s=config.monitor_interval_s,
        strategy=config.strategy, usla_aware=config.usla_aware,
        site_state_kb=config.site_state_kb,
        assumed_job_lifetime_s=config.job_model.duration_mean_s,
        dp_queue_bound=config.dp_queue_bound,
        sync_delta=config.sync_delta, selector=config.selector)

    hosts = [f"host{i:03d}" for i in range(config.n_clients)]
    ramp = RampSchedule(n_clients=config.n_clients, span_s=config.ramp_span_s)
    offsets = ramp.offsets(hosts)
    assignment = assign_clients(hosts, deployment.dp_ids,
                                rng.stream("assignment"))

    generator = WorkloadGenerator(grid.vos, config.job_model,
                                  rng.stream("workload"))
    # "steady" stays on the exact legacy draw path (profile=None makes
    # zero extra RNG calls), so existing seeds reproduce bit-identically.
    profile = None
    if config.workload_profile and config.workload_profile != "steady":
        from repro.workloads.profiles import arrival_profile
        profile = arrival_profile(config.workload_profile)
    trace = TraceRecorder()
    # A completed job leaves memory as one row of this build's table.
    for site in grid.sites.values():
        site.on_job_completed.append(trace.job_ended)
    state_kb = config.n_sites * config.site_state_kb

    failover = None
    if config.resilience is not None:
        from repro.resilience import FailoverManager
        failover = FailoverManager(sim, network, deployment,
                                   config.resilience)

    clients = []
    # Run-deterministic job ids, dense across the fleet; the offset
    # gives sharded neighborhoods disjoint id blocks.
    next_jid = 1 + config.jid_offset
    for host in hosts:
        workload = generator.host_workload(
            host, duration_s=config.duration_s - offsets[host],
            start_s=offsets[host], profile=profile)
        workload.jid_base = next_jid
        next_jid += len(workload)
        client = GruberClient(
            sim=sim, network=network, host_id=host,
            decision_point=assignment[host], grid=grid, workload=workload,
            selector=make_selector(config.selector,
                                   rng.stream(f"selector:{host}")),
            profile=config.profile, rng=rng.stream(f"client:{host}"),
            trace=trace, timeout_s=config.timeout_s,
            state_response_kb=state_kb, one_phase=config.one_phase,
            resilience=config.resilience, failover=failover)
        deployment.attach_client(client)
        clients.append(client)

    injector = None
    if config.chaos_scenario:
        from repro.faults import FaultInjector
        from repro.faults.scenarios import build_scenario
        schedule = build_scenario(config.chaos_scenario,
                                  dp_ids=deployment.dp_ids, hosts=hosts,
                                  duration_s=config.duration_s)
        injector = FaultInjector(sim, network, schedule,
                                 rng.stream("faults"), deployment=deployment)
        injector.arm()

    planner = None
    if config.autoscale is not None:
        from repro.control import AutoscalePlanner
        planner = AutoscalePlanner(sim, deployment, config.autoscale,
                                   rng.stream("autoscale"))

    checker = None
    if config.check_enabled:
        from repro.check import InvariantChecker
        checker = InvariantChecker(sim, interval_s=config.check_interval_s,
                                   strict=config.check_strict)
        checker.watch_deployment(deployment)
        for site in grid.sites.values():
            checker.watch_site(site)
        for client in clients:
            checker.watch_client(client)
        if planner is not None:
            checker.watch_controller(planner)
        checker.install()

    sampler = None
    if config.telemetry_enabled or config.telemetry_path:
        from repro.obs.timeline import TimelineSampler, timeline_meta
        if config.telemetry_path:
            sinks["telemetry"] = JsonlSink(
                config.telemetry_path,
                meta=timeline_meta(config, config.telemetry_interval_s))
        # With a planner present, its SignalBus is *the* control-plane
        # sampler; telemetry reads the gauges it publishes rather than
        # owning a second bus (one gauge computation per control tick).
        sampler = TimelineSampler(
            sim, interval_s=config.telemetry_interval_s,
            deployment=deployment if planner is None else None,
            bus=planner.bus if planner is not None else None,
            grid=grid, sink=sinks.get("telemetry"))
        sampler.start()

    deployment.start()
    if failover is not None:
        failover.start()
    if planner is not None:
        planner.start()
    for client in clients:
        client.start()

    built = BuiltExperiment(config=config, sim=sim, rng=rng, network=network,
                            grid=grid, deployment=deployment, clients=clients,
                            hosts=hosts, offsets=offsets, trace=trace,
                            injector=injector, failover=failover,
                            checker=checker, planner=planner,
                            sampler=sampler, sinks=sinks)
    if config.flight_path:
        from repro.obs.flight import FlightRecorder
        built.flight = FlightRecorder(built, path=config.flight_path)
    if config.checkpoint_every_s > 0:
        # Last, so the first checkpoint tick's heap slot is pinned by
        # construction order — identical on fresh and restored runs.
        from repro.sim.snapshot import Checkpointer
        built.checkpointer = Checkpointer(built)
    return built


def finalize_experiment(built: BuiltExperiment) -> ExperimentResult:
    """Close out a run whose clock has reached ``config.duration_s``."""
    config, sim, trace = built.config, built.sim, built.trace
    clients, hosts, offsets = built.clients, built.hosts, built.offsets

    if built.checker is not None:
        # One final checkpoint at end-of-run state, after the last
        # scheduled check.
        built.checker.check()

    if built.sampler is not None:
        # Stops the periodic chain and records one last row at
        # end-of-run state.
        built.sampler.finish()

    # Closed sinks ignore writes: generator finalizers can still spawn
    # (and trace) processes after the run window.
    for sink in built.sinks.values():
        sink.close()

    if config.spans_path:
        # Spans still open here (suspended brokering generators, jobs
        # past the run window) export flagged as orphans.
        sim.spans.export_jsonl(config.spans_path)

    # Completed jobs are rows already; record the rest as they stand.
    trace.close_live()

    client_starts = np.array([offsets[h] for h in hosts])
    client_ends = np.array([
        c.active_until if c.active_until is not None else config.duration_s
        for c in clients])

    return ExperimentResult(
        **{f.name: getattr(built, f.name) for f in fields(BuiltExperiment)},
        client_starts=client_starts, client_ends=client_ends)


def abort_experiment(built: BuiltExperiment,
                     exc: BaseException) -> Optional[str]:
    """Best-effort teardown for a run that died mid-flight.

    Dumps the flight recorder (when armed), then closes every sink —
    an aborted run must still leave valid, tail-able artifacts.  Never
    raises; returns the flight-dump path (or ``None``).
    """
    path = None
    if built.flight is not None:
        from repro.obs.flight import abort_reason
        path = built.flight.dump(reason=abort_reason(exc), exc=exc)
    for sink in built.sinks.values():
        sink.close()
    return path


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Build and run one experiment to completion.

    To attach something to the deployment before the clock starts (the
    S-PEP, journal probes), call :func:`build_experiment`, attach, then
    :func:`run_built` — which is all this function does.

    Abnormal exits (crash, strict-check violation, SIGTERM-as-
    :class:`~repro.obs.flight.Terminated`, Ctrl-C) go through
    :func:`abort_experiment` — flight-recorder dump plus sink flushing
    — and then re-raise.
    """
    return run_built(build_experiment(config))


def run_built(built: BuiltExperiment) -> ExperimentResult:
    """Run a built experiment to ``duration_s`` and finalize it.

    Split from :func:`run_experiment` so the CLI can tell a bad input
    (a ``ValueError`` out of config construction or the build) from a
    failure of the run itself.
    """
    try:
        built.sim.run(until=built.config.duration_s)
    except BaseException as exc:
        abort_experiment(built, exc)
        raise
    return finalize_experiment(built)

"""Command-line interface: ``digruber``.

Regenerate any paper artifact or run a custom experiment from the
shell::

    digruber quickstart
    digruber fig1
    digruber scalability --profile gt3 --dps 1 3 10 --duration 1800
    digruber accuracy --profile gt4 --intervals 1 3 10 30
    digruber grubsim --profile gt3
    digruber run --dps 3 --clients 60 --duration 900
    digruber run --dps 3 --check --check-strict
    digruber run --dps 4 --shards 4 --duration 900
    digruber chaos --scenario partition2 --duration 900
    digruber diff --pair delta-sync
    digruber diff --pair sharded-4
    digruber diff --pair resume
    digruber run --dps 3 --checkpoint-every 60 --checkpoint-dir ckpts/
    digruber run --restore ckpts/ckpt-0000000240-000000123456.json
    digruber campaign --out sweeps/smoke --preset smoke
    digruber run --dps 3 --telemetry /tmp/tl.jsonl --flight
    digruber top /tmp/tl.jsonl --once
    digruber postmortem flight-20050101.json
    digruber lint src/repro
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    """Bad input: ``main`` prints ``error: <message>`` and returns 2."""


@contextlib.contextmanager
def _bad_input():
    """Wraps config construction and the experiment build — never the
    run: a ``ValueError`` there is bad input (``--sites 0``), not a
    crash."""
    try:
        yield
    except ValueError as err:
        raise _UsageError(str(err)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digruber",
        description="DI-GRUBER reproduction: distributed grid USLA brokering")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs(p):
        p.add_argument("--trace", nargs="?", const="", default=None,
                       metavar="JSONL",
                       help="enable structured tracing; with a path, "
                            "stream events to a JSONL file")
        p.add_argument("--trace-spans", nargs="?", const="", default=None,
                       metavar="JSONL",
                       help="enable causal span tracing; with a path, "
                            "export spans to a JSONL file (analyze with "
                            "`digruber trace`)")
        p.add_argument("--trace-sample", type=int, default=1, metavar="N",
                       help="span head sampling: record every Nth trace "
                            "root (default 1 = all)")
        p.add_argument("--obs", action="store_true",
                       help="print the observability run summary "
                            "(counters, RPC latency percentiles, trace "
                            "tallies) after the experiment")
        p.add_argument("--telemetry", nargs="?", const="", default=None,
                       metavar="JSONL",
                       help="enable the periodic telemetry timeline; "
                            "with a path, stream rows to a JSONL file "
                            "(replay with `digruber top`, or tail the "
                            "live run with `digruber top --follow`)")
        p.add_argument("--telemetry-interval", type=float, default=None,
                       metavar="S",
                       help="telemetry sampling interval in simulated "
                            "seconds (default 30)")
        p.add_argument("--flight", nargs="?", const="", default=None,
                       metavar="JSON",
                       help="arm the flight recorder: dump a black box "
                            "on crash, strict-check violation, or "
                            "SIGTERM (default path flight-<seed>.json; "
                            "analyze with `digruber postmortem`)")

    quick = sub.add_parser("quickstart", help="run the quickstart deployment")
    add_obs(quick)

    fig1 = sub.add_parser("fig1", help="Fig 1: service instance creation")
    fig1.add_argument("--clients", type=int, default=300)
    fig1.add_argument("--duration", type=float, default=1800.0)

    def add_common(p):
        p.add_argument("--profile", choices=("gt3", "gt4"), default="gt3")
        p.add_argument("--duration", type=float, default=1800.0)
        p.add_argument("--seed", type=int, default=None)

    scal = sub.add_parser("scalability",
                          help="Figs 5-7 / 9-11 + Tables 1-2")
    add_common(scal)
    scal.add_argument("--dps", type=int, nargs="+", default=[1, 3, 10])

    acc = sub.add_parser("accuracy", help="Figs 8 / 12: accuracy vs sync")
    add_common(acc)
    acc.add_argument("--intervals", type=float, nargs="+",
                     default=[1.0, 3.0, 10.0, 30.0],
                     help="exchange intervals in minutes")
    acc.add_argument("--dps", type=int, default=3)

    gs = sub.add_parser("grubsim", help="Table 3: required decision points")
    add_common(gs)

    rep = sub.add_parser("report",
                         help="regenerate every paper artifact as markdown")
    rep.add_argument("--duration", type=float, default=1800.0)
    rep.add_argument("--out", default="-")
    rep.add_argument("--parallel", "-j", nargs="?", type=int, const=0,
                     default=None, metavar="WORKERS",
                     help="fan runs out over worker processes")

    run = sub.add_parser("run", help="run one custom experiment")
    add_common(run)
    run.add_argument("--dps", type=int, default=3)
    run.add_argument("--clients", type=int, default=None)
    run.add_argument("--sites", type=int, default=None)
    run.add_argument("--cpus", type=int, default=None)
    run.add_argument("--sync", type=float, default=None,
                     help="sync interval in seconds")
    run.add_argument("--selector", default=None,
                     choices=("least_used", "round_robin", "lru", "random"))
    run.add_argument("--topology", default=None,
                     choices=("mesh", "ring", "star", "line"))
    run.add_argument("--chaos", default=None, metavar="SCENARIO",
                     help="inject a named fault scenario "
                          "(see `digruber chaos --list`)")
    run.add_argument("--resilient", action="store_true",
                     help="enable client retry/backoff, circuit breakers "
                          "and probe-driven failover")
    run.add_argument("--queue-bound", type=int, default=None,
                     metavar="N", help="bounded-queue load shedding at "
                     "each decision point container")
    run.add_argument("--scale-multiplier", type=int, default=None,
                     metavar="K", help="scale the grid to K x Grid3/OSG "
                     "(K x sites, CPUs, and clients; the paper's 10x "
                     "question is K=10)")
    run.add_argument("--delta-sync", action="store_true",
                     help="per-peer delta sync instead of horizon "
                     "re-flooding (smaller payloads at scale)")
    run.add_argument("--check", action="store_true",
                     help="enable the online invariant checker "
                     "(conservation/accounting assertions at every "
                     "checkpoint; violations counted and traced)")
    run.add_argument("--check-interval", type=float, default=None,
                     metavar="S", help="invariant checkpoint spacing in "
                     "seconds (default 30)")
    run.add_argument("--check-strict", action="store_true",
                     help="raise on the first invariant violation "
                     "instead of counting")
    run.add_argument("--autoscale", nargs="?", const="model", default=None,
                     metavar="POLICY",
                     help="closed-loop decision-point autoscaling "
                     "(repro.control); optional policy: model (default), "
                     "reactive, frozen")
    run.add_argument("--placement", default=None,
                     choices=("consistent_hash", "least_loaded"),
                     help="with --autoscale, the dynamic client-placement "
                     "strategy")
    run.add_argument("--workload", default=None,
                     choices=("steady", "diurnal", "bursty"),
                     help="named arrival profile "
                     "(repro.workloads.profiles); default steady")
    run.add_argument("--shards", type=int, default=None, metavar="N",
                     help="space-parallel run: partition the grid into "
                     "one independent neighborhood per decision point "
                     "and run them on N worker processes (N=1: in this "
                     "process; results are shard-count independent)")
    run.add_argument("--checkpoint-every", type=float, default=None,
                     metavar="S", help="write a restorable checkpoint "
                     "every S simulated seconds (needs --checkpoint-dir)")
    run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="directory for periodic checkpoints")
    run.add_argument("--restore", default=None, metavar="FILE",
                     help="restore a checkpointed run and finish it (the "
                     "run's config comes from the snapshot, so only "
                     "--obs may accompany it; a sharded run's hood h "
                     "restores from DIR/h<h>/)")
    add_obs(run)

    camp = sub.add_parser(
        "campaign", help="resumable parameter-sweep campaign: checkpoint "
                         "every cell, survive SIGTERM, resume to an "
                         "identical aggregate")
    camp.add_argument("--out", required=True, metavar="DIR",
                      help="campaign directory (cells/, manifest.json, "
                           "aggregate.json)")
    camp.add_argument("--preset", default="smoke",
                      choices=("smoke", "accuracy"),
                      help="named cell set (default: smoke)")
    camp.add_argument("--duration", type=float, default=300.0,
                      help="simulated seconds per cell (default 300)")
    camp.add_argument("--checkpoint-every", type=float, default=60.0,
                      metavar="S",
                      help="per-cell checkpoint cadence in simulated "
                           "seconds (default 60)")
    camp.add_argument("--workers", type=int, default=None, metavar="N",
                      help="worker processes (default: min(cells, cpus))")

    chaos = sub.add_parser(
        "chaos", help="fault-injection run: scenario x policy comparison")
    add_common(chaos)
    chaos.add_argument("--scenario", default="dp_crash_restart",
                       help="fault scenario name (--list shows all)")
    chaos.add_argument("--list", action="store_true",
                       help="list available scenarios and exit")
    chaos.add_argument("--baseline-only", action="store_true",
                       help="run only the timeout-only baseline")
    chaos.add_argument("--resilient-only", action="store_true",
                       help="run only the resilient policy stack")
    add_obs(chaos)

    diff = sub.add_parser(
        "diff", help="differential replay: run a config pair, bisect "
                     "to the first divergent event")
    diff.add_argument("--pair", required=True,
                      choices=("observers", "workers", "delta-sync",
                               "autoscale-frozen", "sharded-2", "sharded-4",
                               "resume", "resume-sharded"),
                      help="equivalence claim to check")
    diff.add_argument("--duration", type=float, default=300.0,
                      help="simulated seconds per side (default 300)")
    diff.add_argument("--seed", type=int, default=20050101)
    diff.add_argument("--inject", type=int, default=None, metavar="N",
                      help="corrupt side B's event #N to demo bisection")

    lint = sub.add_parser(
        "lint", help="AST determinism lint over simulation sources")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint (default: the "
                           "installed repro package)")

    tr = sub.add_parser("trace",
                        help="analyze a span export (--trace-spans file)")
    tsub = tr.add_subparsers(dest="trace_command", required=True)
    ta = tsub.add_parser("analyze",
                         help="aggregate report: taxonomy, outcomes, "
                              "staleness, sync lag")
    ta.add_argument("spans", metavar="SPANS_JSONL")
    tc = tsub.add_parser("critical-path",
                         help="full causal tree for one job, critical "
                              "path marked")
    tc.add_argument("spans", metavar="SPANS_JSONL")
    tc.add_argument("job", type=int, help="job id (jid)")
    ts = tsub.add_parser("slowest", help="slowest job traces")
    ts.add_argument("spans", metavar="SPANS_JSONL")
    ts.add_argument("-n", type=int, default=10, metavar="N")
    te = tsub.add_parser("export-chrome",
                         help="convert to Chrome trace_event JSON "
                              "(open in Perfetto / chrome://tracing)")
    te.add_argument("spans", metavar="SPANS_JSONL")
    te.add_argument("out", metavar="OUT_JSON")
    for p in (ta, tc, ts):
        p.add_argument("--tolerant", action="store_true",
                       help="skip undecodable lines (truncated exports "
                            "from killed runs) instead of erroring")

    top = sub.add_parser(
        "top", help="terminal dashboard over a telemetry timeline "
                    "(replay a finished file, or --follow a live "
                    "--telemetry run)")
    top.add_argument("timeline", metavar="TIMELINE_JSONL")
    top.add_argument("--follow", action="store_true",
                     help="tail the file a live --telemetry run is "
                          "writing instead of replaying")
    top.add_argument("--once", action="store_true",
                     help="render only the final frame and exit "
                          "(replay mode)")
    top.add_argument("--speed", type=float, default=0.0, metavar="X",
                     help="replay pacing: X simulated seconds per wall "
                          "second (default 0 = no pacing)")
    top.add_argument("--ansi", action="store_true",
                     help="redraw in place (ANSI clear) instead of "
                          "appending frames")
    top.add_argument("--max-frames", type=int, default=None, metavar="N",
                     help="stop after N frames (replay mode)")
    top.add_argument("--poll", type=float, default=0.5, metavar="S",
                     help="follow mode: poll interval in wall seconds")
    top.add_argument("--idle", type=int, default=20, metavar="N",
                     help="follow mode: exit after N empty polls "
                          "(0 = wait forever)")

    pm = sub.add_parser(
        "postmortem", help="analyze a flight-recorder dump "
                           "(flight-<seed>.json)")
    pm.add_argument("dump", metavar="FLIGHT_JSON")
    return parser


def _obs_overrides(args, seed: int) -> dict:
    """Config overrides for the observability flags (``add_obs``);
    ``seed`` names a bare ``--flight``'s dump."""
    overrides = {}
    if getattr(args, "trace", None) is not None:
        overrides["trace_enabled"] = True
        if args.trace:
            _require_parent_dir("--trace", args.trace)
            overrides["trace_path"] = args.trace
    if getattr(args, "trace_spans", None) is not None:
        overrides["spans_enabled"] = True
        if args.trace_spans:
            _require_parent_dir("--trace-spans", args.trace_spans)
            overrides["spans_path"] = args.trace_spans
    if getattr(args, "trace_sample", 1) != 1:
        overrides["spans_sample"] = args.trace_sample
    if getattr(args, "telemetry", None) is not None:
        overrides["telemetry_enabled"] = True
        if args.telemetry:
            _require_parent_dir("--telemetry", args.telemetry)
            overrides["telemetry_path"] = args.telemetry
    if getattr(args, "telemetry_interval", None) is not None:
        overrides["telemetry_interval_s"] = args.telemetry_interval
    if getattr(args, "flight", None) is not None:
        if args.flight:
            _require_parent_dir("--flight", args.flight)
        overrides["flight_path"] = args.flight or f"flight-{seed}.json"
    return overrides


def _require_parent_dir(flag: str, path: str) -> None:
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise SystemExit(f"error: {flag} directory does not exist: {parent}")


def _print_obs(args, result) -> None:
    if getattr(args, "obs", False):
        print()
        print(result.obs_summary())
    if getattr(args, "trace", None):
        print(f"trace written to {args.trace}")
    if getattr(args, "trace_spans", None):
        print(f"spans written to {args.trace_spans} "
              f"(inspect: digruber trace analyze {args.trace_spans})")
    if getattr(args, "telemetry", None):
        print(f"timeline written to {args.telemetry} "
              f"(view: digruber top {args.telemetry})")


def _base_config(args):
    from repro.experiments import (ExperimentConfig, canonical_gt3,
                                   canonical_gt4)
    maker = canonical_gt3 if args.profile == "gt3" else canonical_gt4
    seed = ExperimentConfig.seed if args.seed is None else args.seed
    return maker, {"duration_s": args.duration, "seed": seed}


def _cmd_quickstart(args) -> int:
    from repro.experiments import ExperimentConfig, run_experiment
    from repro.workloads import JobModel
    with _bad_input():
        config = ExperimentConfig(
            name="quickstart", decision_points=3, n_clients=20,
            duration_s=600.0, n_sites=40, total_cpus=4000, n_vos=4,
            groups_per_vo=3, sync_interval_s=60.0,
            job_model=JobModel(duration_mean_s=240.0, min_duration_s=20.0),
            seed=7, **_obs_overrides(args, seed=7))
    result = run_experiment(config)
    print(result.summary())
    _print_obs(args, result)
    return 0


def _cmd_fig1(args) -> int:
    from repro.experiments import run_fig1_service_creation
    result = run_fig1_service_creation(n_clients=args.clients,
                                       duration_s=args.duration)
    print(result.summary())
    return 0


def _cmd_scalability(args) -> int:
    from repro.experiments.figures import (
        run_scalability_sweep,
        table_overall_performance,
    )
    maker, overrides = _base_config(args)
    results = run_scalability_sweep(maker(**overrides),
                                    dp_counts=tuple(args.dps))
    for k in sorted(results):
        print(f"\n--- {args.profile.upper()} DI-GRUBER, {k} decision "
              f"point(s) ---")
        print(results[k].diperf().summary())
    print("\n" + table_overall_performance(results))
    return 0


def _cmd_accuracy(args) -> int:
    from repro.experiments.figures import (
        accuracy_vs_interval_table,
        run_accuracy_sweep,
    )
    maker, overrides = _base_config(args)
    results = run_accuracy_sweep(maker(**overrides),
                                 intervals_min=tuple(args.intervals),
                                 decision_points=args.dps)
    print(accuracy_vs_interval_table(results))
    return 0


def _cmd_grubsim(args) -> int:
    from repro.experiments import run_experiment
    from repro.grubsim import DPPerformanceModel, GrubSim
    from repro.net import GT3_PROFILE, GT4_PROFILE
    maker, overrides = _base_config(args)
    result = run_experiment(maker(1, **overrides))
    profile = GT3_PROFILE if args.profile == "gt3" else GT4_PROFILE
    sized = GrubSim(DPPerformanceModel.from_profile(profile)).replay(
        result.trace, initial_dps=1, name=f"{args.profile.upper()}-based")
    print(sized.summary())
    return 0


def _run_flight_armed(config, run):
    """Call ``run()`` the way every monolithic ``digruber run`` leg must.

    When ``config`` arms the flight recorder, SIGTERM is converted to
    :class:`~repro.obs.flight.Terminated` first (so a killed run
    unwinds through ``abort_experiment`` and leaves its black box),
    and any abnormal exit prints where the dump went before re-raising.
    """
    flight_path = config.flight_path
    if flight_path:
        from repro.obs.flight import install_sigterm_handler
        install_sigterm_handler()
    try:
        return run()
    except BaseException:
        if flight_path and os.path.exists(flight_path):
            print(f"flight recorder dumped to {flight_path} "
                  f"(analyze: digruber postmortem {flight_path})",
                  file=sys.stderr)
        raise


#: What ``run --restore`` honours besides the file: the run's config
#: comes from the snapshot.
_RESTORE_DESTS = {"command", "restore", "obs"}


def _restore_ignored_flags(args) -> list[str]:
    """The flags of a ``run --restore`` that the snapshot's config
    would silently override."""
    defaults = vars(build_parser().parse_args(["run"]))
    return ["--" + dest.replace("_", "-")
            for dest, value in vars(args).items()
            if dest not in _RESTORE_DESTS and value != defaults[dest]]


def _cmd_run(args) -> int:
    from repro.experiments.runner import build_experiment, run_built
    if args.restore is not None:
        ignored = _restore_ignored_flags(args)
        if ignored:
            raise _UsageError("--restore takes the run's config from the "
                              f"snapshot; drop {' '.join(ignored)}")
        from repro.sim.snapshot import (decode_config, read_snapshot,
                                        resume_experiment)
        config = decode_config(read_snapshot(args.restore)["config"])
        result = _run_flight_armed(
            config, lambda: resume_experiment(args.restore))
        print(result.summary())
        _print_obs(args, result)
        return 0
    maker, overrides = _base_config(args)
    if args.checkpoint_every is not None:
        if args.checkpoint_dir is None:
            raise SystemExit(
                "error: --checkpoint-every needs --checkpoint-dir")
        overrides["checkpoint_every_s"] = args.checkpoint_every
        overrides["checkpoint_dir"] = args.checkpoint_dir
    elif args.checkpoint_dir is not None:
        raise SystemExit("error: --checkpoint-dir needs --checkpoint-every")
    if args.scale_multiplier is not None:
        from repro.experiments.configs import scale_config

        def maker(dps, **ov):  # noqa: F811 - deliberate rebind
            return scale_config(multiplier=args.scale_multiplier,
                                decision_points=dps, **ov)
    if args.clients is not None:
        overrides["n_clients"] = args.clients
    if args.sites is not None:
        overrides["n_sites"] = args.sites
    if args.cpus is not None:
        overrides["total_cpus"] = args.cpus
    if args.sync is not None:
        overrides["sync_interval_s"] = args.sync
    if args.selector is not None:
        overrides["selector"] = args.selector
    if args.topology is not None:
        overrides["topology"] = args.topology
    if args.chaos is not None:
        overrides["chaos_scenario"] = args.chaos
    if args.resilient:
        from repro.resilience import ResilienceConfig
        overrides["resilience"] = ResilienceConfig()
    if args.queue_bound is not None:
        overrides["dp_queue_bound"] = args.queue_bound
    if args.delta_sync:
        overrides["sync_delta"] = True
    if args.check or args.check_strict:
        overrides["check_enabled"] = True
        overrides["check_strict"] = args.check_strict
        if args.check_interval is not None:
            overrides["check_interval_s"] = args.check_interval
    if args.workload is not None:
        overrides["workload_profile"] = args.workload
    if args.autoscale is not None:
        if args.shards is not None:
            raise SystemExit(
                "error: --autoscale needs one live deployment; the sharded "
                "runtime partitions it (drop --shards)")
        from repro.control import AutoscaleConfig, scale_rule_names
        if args.autoscale not in scale_rule_names():
            raise SystemExit(
                f"error: unknown autoscale policy {args.autoscale!r}; "
                f"choose from {', '.join(scale_rule_names())}")
        kw = {"policy": args.autoscale}
        if args.placement is not None:
            kw["placement"] = args.placement
        overrides["autoscale"] = AutoscaleConfig(**kw)
    if args.shards is not None:
        return _run_sharded_cmd(args, maker, overrides)
    overrides.update(_obs_overrides(args, overrides["seed"]))
    with _bad_input():
        config = maker(args.dps, **overrides)
        built = build_experiment(config)
    result = _run_flight_armed(config, lambda: run_built(built))
    print(result.summary())
    cs = result.control_stats()
    if cs is not None:
        print("control: " + " ".join(f"{k}={v}" for k, v in cs.items()))
    if args.chaos is not None or args.resilient:
        stats = result.resilience_stats()
        print("chaos/resilience: "
              + " ".join(f"{k}={v}" for k, v in stats.items()))
    if result.checker is not None:
        print(result.checker.summary())
        _print_obs(args, result)
        return 1 if result.checker.violations else 0
    _print_obs(args, result)
    return 0


def _run_sharded_cmd(args, maker, overrides) -> int:
    """``digruber run --shards=N``: the space-parallel kernel path."""
    from repro.sim.sharded import hood_config, plan_shards, run_sharded
    if (args.trace is not None or args.trace_spans is not None
            or args.obs):
        raise SystemExit(
            "error: --shards forces per-sim observability off in every "
            "neighborhood; drop --trace/--trace-spans/--obs")
    if args.flight is not None:
        raise SystemExit(
            "error: --flight needs one live simulator; drop --flight "
            "(--telemetry FILE still writes the merged grid-wide "
            "timeline)")
    # Sharded telemetry works differently (hood-local rows, merged at
    # the end) but flows through the same config fields.
    overrides.update(_obs_overrides(args, overrides["seed"]))
    with _bad_input():
        config = maker(args.dps, **overrides)
        plan_shards(config.decision_points, args.shards)
        hood_config(config, 0)  # a grid too small to partition
    result = run_sharded(config, n_shards=args.shards,
                         mode="workers" if args.shards > 1 else "lockstep")
    print(result.describe())
    if result.timeline is not None and config.telemetry_path:
        print(f"merged timeline ({len(result.timeline)} rows) written to "
              f"{config.telemetry_path} "
              f"(view: digruber top {config.telemetry_path})")
    return 0


def _cmd_chaos(args) -> int:
    from repro.experiments.runner import build_experiment, run_built
    from repro.experiments.configs import chaos_smoke_config
    from repro.faults.scenarios import scenario_names
    if args.list:
        for name in scenario_names():
            print(name)
        return 0
    if args.scenario not in scenario_names():
        raise SystemExit(f"error: unknown scenario {args.scenario!r}; "
                         f"choose from {', '.join(scenario_names())}")
    variants = []
    if not args.resilient_only:
        variants.append(("baseline", False))
    if not args.baseline_only:
        variants.append(("resilient", True))
    _, overrides = _base_config(args)
    overrides.update(_obs_overrides(args, overrides["seed"]))
    last = None
    for label, resilient in variants:
        with _bad_input():
            built = build_experiment(chaos_smoke_config(
                scenario=args.scenario, resilient=resilient, **overrides))
        result = run_built(built)
        fb = result.client_fallbacks()
        stats = result.resilience_stats()
        print(f"--- {args.scenario} / {label} ---")
        print(result.summary())
        print("policy: " + " ".join(f"{k}={v}" for k, v in stats.items()))
        print(f"brokered={fb['handled']} fallback={fb['timeout']}")
        last = result
    if last is not None:
        _print_obs(args, last)
    return 0


def _cmd_campaign(args) -> int:
    from repro.experiments.campaign import (campaign_configs,
                                            campaign_manifest, run_campaign)
    with _bad_input():
        configs = campaign_configs(args.preset, duration_s=args.duration)
    manifest = campaign_manifest(args.out, configs)
    label = ("resuming" if manifest["completed"] or manifest["resumable"]
             else "starting")
    print(f"{label} campaign {args.preset!r}: {len(configs)} cell(s) -> "
          f"{args.out} (completed={len(manifest['completed'])} "
          f"resumable={len(manifest['resumable'])} "
          f"pending={len(manifest['pending'])})")
    report = run_campaign(configs, args.out,
                          checkpoint_every_s=args.checkpoint_every,
                          max_workers=args.workers)
    for record in report["cells"]:
        resumed = (f" (resumed from {record['resumed_from']})"
                   if record.get("resumed_from") else "")
        print(f"  {record['name']}: digest={record['summary_digest']} "
              f"jobs={record['n_jobs']}{resumed}")
    for name in report["failed"]:
        print(f"  {name}: FAILED")
    print(f"aggregate digest={report['digest']} -> "
          f"{os.path.join(args.out, 'aggregate.json')}")
    return 0 if report["pass_campaign"] else 1


def _cmd_report(args) -> int:
    from repro.experiments.report import main as report_main
    argv = ["--duration", str(args.duration)]
    if args.out != "-":
        argv += ["--out", args.out]
    if args.parallel is not None:
        argv += ["--parallel", str(args.parallel)] if args.parallel else \
            ["--parallel"]
    return report_main(argv)


def _cmd_diff(args) -> int:
    from repro.check import run_pair
    report = run_pair(args.pair, duration_s=args.duration, seed=args.seed,
                      inject=args.inject)
    print(report.describe())
    return 0 if report.identical else 1


def _cmd_lint(args) -> int:
    from repro.check.lint import main as lint_main
    return lint_main(args.paths or None)


def _cmd_trace(args) -> int:
    from repro.obs.span_analysis import (
        analyze_report,
        critical_path_report,
        export_chrome_file,
        load_spans,
        slowest_report,
    )
    if args.trace_command == "export-chrome":
        n = export_chrome_file(args.spans, args.out)
        print(f"wrote {n} trace events to {args.out}")
        return 0
    spans = load_spans(args.spans, tolerant=getattr(args, "tolerant", False))
    if args.trace_command == "analyze":
        print(analyze_report(spans))
    elif args.trace_command == "critical-path":
        print(critical_path_report(spans, args.job))
    elif args.trace_command == "slowest":
        print(slowest_report(spans, n=args.n))
    return 0


def _cmd_top(args) -> int:
    from repro.obs import top
    if args.follow:
        n = top.follow(args.timeline, poll_s=args.poll,
                       idle_polls=args.idle if args.idle > 0 else None,
                       ansi=args.ansi)
    else:
        n = top.replay(args.timeline, speed=args.speed, once=args.once,
                       ansi=args.ansi, max_frames=args.max_frames)
    return 0 if n > 0 else 1


def _cmd_postmortem(args) -> int:
    import json

    from repro.obs.flight import load_flight, postmortem_report
    try:
        doc = load_flight(args.dump)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(f"digruber postmortem: {exc}")
    print(postmortem_report(doc))
    return 0


_COMMANDS = {
    "quickstart": _cmd_quickstart,
    "fig1": _cmd_fig1,
    "scalability": _cmd_scalability,
    "accuracy": _cmd_accuracy,
    "grubsim": _cmd_grubsim,
    "report": _cmd_report,
    "run": _cmd_run,
    "campaign": _cmd_campaign,
    "chaos": _cmd_chaos,
    "diff": _cmd_diff,
    "lint": _cmd_lint,
    "trace": _cmd_trace,
    "top": _cmd_top,
    "postmortem": _cmd_postmortem,
}


def main(argv=None) -> int:
    from repro.obs.jsonl import JsonlError
    from repro.sim.snapshot import SnapshotError
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SnapshotError, _UsageError) as err:
        # A stale, foreign or corrupt checkpoint is a usage error, and
        # so is an experiment that cannot be built as asked.
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # `digruber trace analyze ... | head` closes stdout early;
        # treat it as a clean exit, not a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (OSError, JsonlError) as err:
        # A missing, unreadable or malformed artifact handed to a
        # reader command is a usage error too.
        if args.command not in ("trace", "top"):
            raise
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

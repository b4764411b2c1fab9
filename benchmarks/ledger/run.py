#!/usr/bin/env python3
"""The layer-ladder benchmark: one command, six workloads, every metric.

Two ways to run it (see README.md):

* **Ledger** — ``python3 benchmarks/ledger/run.py`` measures every
  workload (``--repeats`` untraced repeats, one traced repeat, the
  rungs), prints each metric by name with unit, median/min/max/CoV and
  N, checks the outputs, and can ``--record`` the set into
  ``baseline.json`` or ``--check`` it against the recorded one.
* **One run** — ``--workload NAME --seed N --seconds S --trace 0|1`` is
  the contract ``BENCHMARK.json`` names: at least two untraced repeats
  and more until ``S`` seconds are spent (``--trace 0``, end-to-end
  metrics, host times as ``undisturbed`` estimates them) or one traced
  repeat beside its untraced reference (``--trace 1``, per-layer
  metrics), ending with one JSON object on the last stdout line.

Every repeat is a fresh ``child.py`` subprocess, one at a time, so at
most ``nproc`` processes are ever busy (two for ``shard2-k10``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from names import (DEFAULT_SEED, END_TO_END, LAYERS, N_SHARDS,  # noqa: E402
                   SHARDED, WORKLOADS, per_layer_units)

ROOT = HERE.parents[1]
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"

HOST_METRICS = ("setup_s", "wall_s", "total_s", "rss_peak_mb")

#: Below this absolute change ``setup_s`` never counts as regressed
#: (``shard2-k10`` sets up in microseconds).
SETUP_FLOOR_S = 0.05
#: ``--check`` bounds are never tighter than these — the issue's
#: expectation for an interleaved N=5 set.  (``BENCHMARK.json`` carries
#: the driver's bounds, which cover its noisier 2-3-repeat runs.)
CHECK_FLOORS = {"setup_s": 0.10, "wall_s": 0.08, "total_s": 0.08,
                "rss_peak_mb": 0.05}
#: ``wall_s`` of the two workloads with the widest run-to-run spread.
NOISY_WALL, NOISY_WALL_FLOOR = ("planes-on", SHARDED), 0.10
#: Traced time outside the sixteen named layers must stay below this.
MAX_UNATTRIBUTED_PCT = 10.0
CHILD_TIMEOUT_S = 170
#: One-run mode repeats at least this often: ``undisturbed`` needs a
#: second repeat to hold the first against, window by window, and a
#: third where it has only whole repeats to choose from.
ONE_RUN_REPEATS, ONE_RUN_REPEATS_UNWINDOWED = 2, 3


class BenchError(RuntimeError):
    """A repeat crashed, timed out, or printed no result."""


# -- host and subprocess plumbing ------------------------------------------------
def n_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def host_stamp() -> dict:
    return {"cores": n_cores(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def child_env() -> dict:
    """Pinned environment: hash seed fixed, repo toggles stripped."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str]) -> dict:
    """One ``child.py`` process; its whole group dies with a timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *argv], env=child_env(),
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # Shard workers share the child's process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {' '.join(argv)} exited {proc.returncode}:\n"
                         f"{stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


class Session:
    """Common arguments of one invocation plus its scratch directory."""

    def __init__(self, seed: int, quick: bool, trace_out: str = ""):
        self.seed = seed
        self.quick = quick
        self.trace_out = trace_out
        self.workdir = ""

    def __enter__(self) -> "Session":
        # Inside the checkout (the contract allows writes nowhere else);
        # ``.gitignore`` names the pattern in case a run is killed.
        self.workdir = tempfile.mkdtemp(prefix=".work-", dir=str(HERE))
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def repeat(self, workload: str, *extra: str) -> dict:
        """One untraced repeat (or whatever ``extra`` makes of it)."""
        argv = ["run", "--workload", workload, "--seed", str(self.seed),
                "--workdir", self.workdir, *extra]
        if self.quick:
            argv.append("--quick")
        return run_child(argv)

    def traced(self, workload: str, *extra: str) -> dict:
        if self.trace_out:
            extra = (*extra, "--trace-out", self.trace_out)
        return self.repeat(workload, "--traced", *extra)


# -- statistics --------------------------------------------------------------------
def describe(values: list[float]) -> dict:
    med = statistics.median(values)
    cov = (statistics.stdev(values) / statistics.fmean(values)
           if len(values) > 1 and statistics.fmean(values) else 0.0)
    return {"median": med, "min": min(values), "max": max(values),
            "cov": cov, "n": len(values), "values": list(values)}


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


# -- measuring one workload --------------------------------------------------------
def skip_reason(workload: str) -> str:
    """Why this host cannot run ``workload`` ("" when it can)."""
    if workload == SHARDED and n_cores() < N_SHARDS:
        return (f"needs {N_SHARDS} cores, have {n_cores()}: skipped, "
                "never time-sliced")
    return ""


def measure_untraced(session: Session, workload: str, repeats: int,
                     seconds: float = 0.0) -> list[dict]:
    """Untraced repeats: ``repeats`` of them, more until ``seconds`` pass."""
    runs: list[dict] = []
    started = time.monotonic()
    while len(runs) < repeats or time.monotonic() - started < seconds:
        runs.append(session.repeat(workload))
    return runs


def end_to_end(runs: list[dict]) -> dict[str, dict]:
    """``{metric: describe(...)}`` over the untraced repeats of one set."""
    out = {name: describe([r[name] for r in runs]) for name in HOST_METRICS}
    for name in END_TO_END:
        if name.startswith("sim_"):
            value = runs[0]["sim"][name]
            out[name] = {"median": value, "min": value, "max": value,
                         "cov": 0.0, "n": runs[0]["sim"]["response_samples"],
                         "values": [value]}
    return out


def undisturbed(runs: list[dict]) -> dict[str, float]:
    """One-run mode's host-time metrics: what no repeat could do without.

    This host's neighbours add time in bursts, to one repeat or to part
    of one, and never take any away.  So each phase counts as its
    fastest repeat, and a serial run phase window by window (the
    repeats of one seed do the same work in the same window): the sum
    over the windows of each window's fastest repeat.  ``shard2-k10``
    has no windows; its run phase is the fastest whole repeat.
    """
    if all("wall_windows_s" in r for r in runs):
        wall = sum(min(window) for window in
                   zip(*(r["wall_windows_s"] for r in runs)))
    else:
        wall = min(r["wall_s"] for r in runs)
    return {"setup_s": min(r["setup_s"] for r in runs),
            "wall_s": wall,
            "total_s": wall + min(r["total_s"] - r["wall_s"] for r in runs),
            "rss_peak_mb": statistics.median(r["rss_peak_mb"] for r in runs)}


def check_untraced(workload: str, runs: list[dict]) -> list[str]:
    problems = []
    digests = sorted({r["digest"] for r in runs})
    if len(digests) > 1:
        problems.append(f"same-seed repeats disagree: digests {digests}")
    first = runs[0]
    if not first["ops"]["attempted"]:
        problems.append("no brokering request was issued")
    if not first["ops"]["handled"] or first["sim"]["sim_accuracy_pct"] is None:
        problems.append("no request was answered in time (100% fallback)")
    if any(v is None for v in first["sim"].values()):
        problems.append("a simulated metric is undefined")
    if workload == "planes-on":
        for r in runs:
            planes = r["planes"]
            if planes["violations"]:
                problems.append(f"{planes['violations']} invariant violations")
            if planes["checkpoints"] < 1:
                problems.append("no checkpoint file was written")
            if planes["timeline_rows"] < 1:
                problems.append("no timeline row was sampled")
    return problems


def measure_traced(session: Session, workload: str, runs: list[dict],
                   rungs: dict, tax_reference=None) -> tuple[dict, list[str]]:
    """The traced repeat of one workload -> (per-layer metrics, problems).

    ``runs`` are the workload's untraced repeats (the digest and wall
    time the traced repeat is held against); ``tax_reference`` is the
    untraced ``gt3-3dp`` wall time ``planes.tax_pct`` divides by.
    """
    problems: list[str] = []
    digest = runs[0]["digest"]
    wall = statistics.median(r["wall_s"] for r in runs)
    speedup = 0.0
    if workload == SHARDED:
        # Workers hold their own spans, so the decomposition comes from
        # the same two shards run in this process; the 1-shard lockstep
        # run is the digest reference and the speed-up's base.
        one = session.repeat(workload, "--mode", "lockstep", "--shards", "1")
        twin = session.repeat(workload, "--mode", "lockstep")
        traced = session.traced(workload, "--mode", "lockstep")
        speedup = one["wall_s"] / wall
        for label, other in (("1-shard lockstep reference", one),
                             ("lockstep twin", twin)):
            if other["digest"] != digest:
                problems.append(f"{label} digest {other['digest']} != "
                                f"workers digest {digest}")
        phases, untraced_wall = twin, twin["wall_s"]
    else:
        traced = session.traced(workload)
        phases = {k: statistics.median(r[k] for r in runs)
                  for k in ("finalize_s", "summarize_s")}
        untraced_wall = wall
    if traced["digest"] != digest:
        problems.append(f"traced digest {traced['digest']} != untraced "
                        f"digest {digest}")

    trace = traced["trace"]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        entry = trace["layers"].get(layer, {"self_s": 0.0, "calls": 0})
        metrics[f"{layer}.self_s"] = entry["self_s"]
        metrics[f"{layer}.share_pct"] = 100.0 * entry["self_s"] / trace["wall_s"]
        metrics[f"{layer}.calls"] = entry["calls"]
    counters = dict(traced["counters"])
    counters["sim.kernel.events_per_s"] = counters["sim.kernel.events"] / wall
    counters["sim.kernel.us_per_event"] = 1e6 * wall / counters["sim.kernel.events"]
    metrics.update(counters)
    unattributed = 100.0 * trace["layers"].get("other", {"self_s": 0.0})[
        "self_s"] / trace["wall_s"]
    metrics.update({
        "planes.tax_pct": (100.0 * (wall / tax_reference - 1.0)
                           if tax_reference else 0.0),
        "sim.sharded.speedup_vs_1shard": speedup,
        "experiments.finalize_s": phases["finalize_s"],
        "experiments.summarize_s": phases["summarize_s"],
        "trace.overhead_pct": 100.0 * (traced["wall_s"] / untraced_wall - 1.0),
        "trace.unattributed_pct": unattributed,
    })
    metrics.update({name: rung["value"] for name, rung in rungs.items()})
    if unattributed > MAX_UNATTRIBUTED_PCT:
        problems.append(f"trace.unattributed_pct {unattributed:.1f} > "
                        f"{MAX_UNATTRIBUTED_PCT}")
    share = sum(metrics[f"{layer}.share_pct"] for layer in LAYERS)
    if abs(share + unattributed - 100.0) > 0.01:
        problems.append(f"layer shares sum to {share + unattributed:.3f}%")
    return metrics, problems


# -- printing ------------------------------------------------------------------------
def print_end_to_end(workload: str, stats: dict, label: str = "") -> None:
    cores = n_cores()
    for name, (unit, _better) in END_TO_END.items():
        s = stats[name]
        kind = "samples" if name.startswith("sim_") else "N"
        print(f"{workload:13s} {name:20s} {s['median']:14.6g} {unit:4s} "
              f"min={s['min']:<12.6g} max={s['max']:<12.6g} "
              f"cov={100 * s['cov']:5.2f}% {kind}={s['n']:<6d} "
              f"cores={cores}{label}")


def print_per_layer(workload: str, metrics: dict, label: str = "") -> None:
    cores = n_cores()
    for name, unit in per_layer_units().items():
        print(f"{workload:13s} {name:36s} {metrics[name]:14.6g} {unit:5s} "
              f"cores={cores}{label}")


def print_operations(workload: str, ops: dict, failed: int) -> None:
    print(f"{workload:13s} operations: attempted={ops['attempted']} "
          f"failed={failed} (simulated outcome: handled={ops['handled']} "
          f"timeout-fallbacks={ops['timeout_fallbacks']})")


# -- comparing two sets --------------------------------------------------------------
def check_floor(name: str, workload: str) -> float:
    if name == "wall_s" and workload in NOISY_WALL:
        return NOISY_WALL_FLOOR
    return CHECK_FLOORS[name]


def check_bounds(sets: list[dict]) -> dict[str, dict[str, float]]:
    """``{workload: {metric: bound}}`` for ``--check``.

    The floor, or twice the change between the first two recorded sets
    where that is more: a bound the same commit cannot hold is no bound.
    """
    bounds: dict[str, dict[str, float]] = {}
    for workload in WORKLOADS:
        entries = [s["workloads"][workload]["end_to_end"]
                   for s in sets[:2] if workload in s["workloads"]]
        bounds[workload] = {}
        for name in HOST_METRICS:
            change = 0.0
            if len(entries) == 2:
                a, b = (e[name]["median"] for e in entries)
                change = abs(b - a) / a
            bounds[workload][name] = max(check_floor(name, workload),
                                         2.0 * change)
    return bounds


def verdict(name: str, base: dict, new: dict, bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric x workload."""
    if name.startswith("sim_"):
        return "ok" if new["median"] == base["median"] else "regressed"
    _unit, better = END_TO_END[name]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new["median"] - base["median"]) / base["median"]
    if name == "setup_s" and abs(new["median"] - base["median"]) <= SETUP_FLOOR_S:
        return "ok"
    if max(spread(base["values"]), spread(new["values"])) > bound:
        every_better = (max(new["values"]) < min(base["values"])
                        if better == "lower"
                        else min(new["values"]) > max(base["values"]))
        return "ok" if every_better else "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare_sets(base: dict, new: dict,
                 bounds: dict[str, dict[str, float]]) -> tuple[list[dict], bool]:
    """Rows for every metric x workload both sets hold; any regression?"""
    rows, regressed = [], False
    for workload, new_entry in new["workloads"].items():
        base_entry = base["workloads"].get(workload)
        if base_entry is None:
            continue
        if base_entry["digest"] != new_entry["digest"]:
            rows.append({"workload": workload, "metric": "summary_digest",
                         "base": base_entry["digest"],
                         "new": new_entry["digest"], "verdict": "regressed"})
            regressed = True
        for name in END_TO_END:
            b, n = base_entry["end_to_end"][name], new_entry["end_to_end"][name]
            bound = bounds[workload].get(name, 0.0)  # sim_*: exact
            v = verdict(name, b, n, bound)
            regressed |= v == "regressed"
            rows.append({"workload": workload, "metric": name,
                         "base": b["median"], "new": n["median"],
                         "spread": max(spread(b["values"]),
                                       spread(n["values"])),
                         "bound": bound, "verdict": v})
    return rows, regressed


def print_comparison(rows: list[dict]) -> None:
    for row in rows:
        extra = (f" spread={100 * row['spread']:.2f}% "
                 f"bound={100 * row['bound']:.1f}%" if "spread" in row else "")
        base, new = (f"{v:.6g}" if isinstance(v, float) else str(v)
                     for v in (row["base"], row["new"]))
        print(f"{row['workload']:13s} {row['metric']:20s} "
              f"base={base:<12s} new={new:<12s}{extra} {row['verdict']}")


# -- the three modes -----------------------------------------------------------------
def run_rungs(rung: str = "") -> dict:
    return run_child(["rungs", *(["--rung", rung] if rung else [])])


def print_rungs(rungs: dict) -> None:
    for name, r in rungs.items():
        print(f"rung {name:36s} {r['value']:12.4f} {r['unit']} "
              f"min={r['min']:.4f} max={r['max']:.4f} N={r['n']} "
              f"cores={n_cores()}")


def one_run(args) -> int:
    """The ``BENCHMARK.json`` contract: one workload, one JSON line."""
    label = "  [QUICK: not comparable]" if args.quick else ""
    if skip_reason(args.workload):
        # Not a crash and not a measurement: say so in the result line.
        print(f"{args.workload:13s} SKIPPED: {skip_reason(args.workload)}")
        print(json.dumps({"correct": True, "attempted": 0, "failed": 0,
                          "metrics": {},
                          "skipped": skip_reason(args.workload)}))
        return 0
    with Session(args.seed, args.quick, args.trace_out) as session:
        if args.trace:
            runs = measure_untraced(session, args.workload, repeats=1)
            tax_reference = None
            if args.workload == "planes-on":
                tax_reference = session.repeat("gt3-3dp")["wall_s"]
            metrics, traced_problems = measure_traced(
                session, args.workload, runs, run_rungs(), tax_reference)
            units = per_layer_units()
            print_per_layer(args.workload, metrics, label)
        else:
            repeats = args.repeats or (
                ONE_RUN_REPEATS_UNWINDOWED if args.workload == SHARDED
                else ONE_RUN_REPEATS)
            runs = measure_untraced(session, args.workload, repeats,
                                    seconds=args.seconds)
            stats = end_to_end(runs)
            reported = undisturbed(runs)
            metrics = {name: s["median"] for name, s in stats.items()}
            metrics.update(reported)
            units = {name: unit for name, (unit, _b) in END_TO_END.items()}
            traced_problems = []
            print_end_to_end(args.workload, stats, label)
            print(f"{args.workload:13s} reported, undisturbed: " + " ".join(
                f"{name}={value:.6g}" for name, value in reported.items()))
    problems = check_untraced(args.workload, runs) + traced_problems
    ops = runs[0]["ops"]
    failed = ops["attempted"] if problems else 0
    print_operations(args.workload, ops, failed)
    for problem in problems:
        print(f"CHECK FAILED {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": ops["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 1 if problems else 0


def ledger(args) -> int:
    """Every (or one) workload, full repeats, traced run, rungs."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    label = "  [QUICK: not comparable]" if args.quick else ""
    result = {"host": host_stamp(), "seed": args.seed, "quick": args.quick,
              "repeats": args.repeats, "workloads": {}, "skipped": {}}
    failed_any = False
    baseline = (json.loads(BASELINE.read_text()) if BASELINE.exists()
                else {"sets": []})
    first_set = baseline["sets"][0] if baseline["sets"] else None
    if args.check and first_set is None:
        print(f"no recorded set in {BASELINE}", file=sys.stderr)
        return 2
    if (args.check or args.record) and first_set and first_set["seed"] != args.seed:
        print(f"baseline was recorded with --seed {first_set['seed']}; "
              "simulated metrics only compare at the same seed",
              file=sys.stderr)
        return 2
    print(f"# host: {result['host']}")
    rungs = {}
    if not args.check:  # --check compares end-to-end metrics only
        rungs = run_rungs()
        print_rungs(rungs)
        result["rungs"] = rungs
    with Session(args.seed, args.quick, args.trace_out) as session:
        for name in names:
            if skip_reason(name):
                result["skipped"][name] = skip_reason(name)
                print(f"{name:13s} SKIPPED: {skip_reason(name)}")
        # Round-robin over the workloads, so that a slow phase of the
        # host lands on one repeat of each, not on every repeat of one.
        runs_by_name: dict[str, list[dict]] = {
            name: [] for name in names if name not in result["skipped"]}
        for _ in range(args.repeats):
            for name, runs in runs_by_name.items():
                runs.append(session.repeat(name))
        for name, runs in runs_by_name.items():
            stats = end_to_end(runs)
            problems = check_untraced(name, runs)
            entry = {"why": WORKLOADS[name], "digest": runs[0]["digest"],
                     "operations": runs[0]["ops"], "end_to_end": stats}
            print_end_to_end(name, stats, label)
            if not args.check:
                tax_reference = None
                if name == "planes-on":
                    reference = (runs_by_name.get("gt3-3dp")
                                 or [session.repeat("gt3-3dp")])
                    tax_reference = statistics.median(
                        r["wall_s"] for r in reference)
                per_layer, traced_problems = measure_traced(
                    session, name, runs, rungs, tax_reference)
                problems += traced_problems
                entry["per_layer"] = per_layer
                print_per_layer(name, per_layer, label)
            entry["failed"] = runs[0]["ops"]["attempted"] if problems else 0
            entry["problems"] = problems
            print_operations(name, runs[0]["ops"], entry["failed"])
            for problem in problems:
                print(f"CHECK FAILED {name}: {problem}", file=sys.stderr)
            failed_any |= bool(problems)
            result["workloads"][name] = entry

    regressed = False
    if (args.check or args.record) and first_set:
        rows, regressed = compare_sets(first_set, result,
                                       baseline["check_bounds"])
        print("# against the first recorded set:")
        print_comparison(rows)
        result["against_first_set"] = rows
    if args.record and not failed_any:
        baseline["sets"].append(result)
        baseline["check_bounds"] = check_bounds(baseline["sets"])
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"# recorded set {len(baseline['sets'])} in {BASELINE}")
    print(json.dumps({"correct": not failed_any, "regressed": regressed,
                      "workloads": sorted(result["workloads"]),
                      "skipped": sorted(result["skipped"])}))
    return 1 if failed_any or regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="ExperimentConfig.seed of every workload")
    parser.add_argument("--seconds", type=float,
                        help="one-run mode: two repeats, more for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="one-run mode: 1 = traced, per-layer metrics")
    parser.add_argument("--repeats", type=int, default=0,
                        help="untraced repeats per workload (ledger: 5)")
    parser.add_argument("--quick", action="store_true",
                        help="shorter duration_s; NOT comparable with full runs")
    parser.add_argument("--rungs-only", action="store_true")
    parser.add_argument("--rung", default="", help="with --rungs-only: one rung")
    parser.add_argument("--trace-out", default="",
                        help="directory for <workload>.spans.jsonl dumps")
    parser.add_argument("--check", action="store_true",
                        help="rerun end-to-end, compare with baseline.json")
    parser.add_argument("--record", action="store_true",
                        help="append this set to baseline.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"{SRC}/repro not found: the benchmark measures the program "
              "in this checkout and cannot run without it", file=sys.stderr)
        return 2
    if args.quick and (args.check or args.record):
        parser.error("--quick numbers are not comparable; "
                     "refusing --check/--record")
    try:
        if args.rungs_only:
            print(f"# host: {host_stamp()}")
            print_rungs(run_rungs(args.rung))
            return 0
        if args.seconds is not None:
            if not args.workload:
                parser.error("--seconds needs --workload")
            return one_run(args)
        args.repeats = args.repeats or 5
        return ledger(args)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

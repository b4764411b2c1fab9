"""Autoscale bench — closed-loop convergence to the paper's Table 3.

GRUB-SIM answered "how many decision points does a 10x/100x grid
need?" offline by replaying traces against calibrated performance
models; ``repro.control`` answers it *online*.  This bench runs the
closed loop against live load and pins the same numbers:

* **10x-OSG** (the canonical GT3 environment: 120 submission hosts,
  the paper's 10x-Grid3 question) on the diurnal profile, starting
  from a single decision point: the planner must converge to the
  paper's 4-5 decision points;
* **100x** (``scale_config(multiplier=10)``: 1200 hosts) must converge
  to strictly more than the 10x cell;
* **determinism** — two same-seed autoscaled runs must produce
  bit-identical event journals (control actions are journaled as
  ``ctl.scale`` entries), with the strict invariant checker riding
  both runs.

Each cell reports response-time stats (the DiPerF view) and migration
cost (clients moved, moves deferred by the ceil(K/N) bound, total
client rebinds) so elasticity is priced, not just counted.

Environment knobs:

* ``REPRO_AUTOSCALE_DURATION`` — simulated seconds for the 10x cell
  (default 3600, the paper's experiment length; the 100x cell runs
  half that).
"""

import os

from benchmarks.conftest import bench_once
from repro.check.digest import EventJournal, install_probes
from repro.control import AutoscaleConfig
from repro.experiments import run_experiment
from repro.experiments.runner import build_experiment, run_built
from repro.experiments.configs import canonical_gt3, scale_config
from repro.metrics.report import format_table

DURATION_S = float(os.environ.get("REPRO_AUTOSCALE_DURATION", "3600"))

#: The paper's GRUB-SIM answer for a 10x-Grid3/OSG grid (Table 3).
TARGET_10X = (4, 5)


def _autoscale_config(max_dps: int = 64) -> AutoscaleConfig:
    return AutoscaleConfig(policy="model", placement="consistent_hash",
                           interval_s=60.0, cooldown_s=120.0,
                           max_step_up=8, max_dps=max_dps)


def run_cell(name: str, config) -> dict:
    """One autoscaled run, distilled to the report row."""
    result = run_experiment(config)
    stats = result.control_stats()
    d = result.diperf()
    rt = d.response_stats()
    m = result.sim.metrics
    return {
        "cell": name,
        "clients": config.n_clients,
        "duration_s": config.duration_s,
        "initial_dps": config.decision_points,
        "converged_dps": stats["converged_dps"],
        "final_dps": stats["final_dps"],
        "scale_ups": stats["scale_ups"],
        "scale_downs": stats["scale_downs"],
        "ticks": stats["ticks"],
        "response_median_s": round(rt.median, 3),
        "response_avg_s": round(rt.average, 3),
        "response_peak_s": round(rt.peak, 3),
        "queries_answered": d.n_answered,
        "clients_moved": stats["clients_moved"],
        "moves_deferred": stats["moves_deferred"],
        "client_rebinds": m.counter_value("client.rebind"),
        "check_violations": m.counter_value("check.violation"),
        "unhandled_failures": m.counter_value("kernel.unhandled_failures"),
    }


def run_10x(duration_s: float = DURATION_S) -> dict:
    config = canonical_gt3(1).with_(
        duration_s=duration_s, workload_profile="diurnal",
        autoscale=_autoscale_config(),
        check_enabled=True, check_strict=True,
        name="autoscale-10x-osg")
    return run_cell("10x-osg", config)


def run_100x(duration_s: float = DURATION_S / 2) -> dict:
    config = scale_config(multiplier=10, decision_points=1,
                          duration_s=duration_s).with_(
        workload_profile="diurnal",
        autoscale=_autoscale_config(),
        check_enabled=True, check_strict=True,
        name="autoscale-100x")
    return run_cell("100x", config)


def run_determinism(duration_s: float = 900.0) -> dict:
    """Two same-seed autoscaled journaled runs: digests must match."""
    digests = []
    for _ in range(2):
        journal = EventJournal()
        config = canonical_gt3(1).with_(
            duration_s=duration_s, workload_profile="diurnal",
            autoscale=_autoscale_config(),
            check_enabled=True, check_strict=True,
            name="autoscale-determinism")
        built = build_experiment(config)
        install_probes(journal, deployment=built.deployment,
                       sites=built.grid.sites.values())
        run_built(built)
        ctl_entries = sum(1 for e in journal.entries
                          if e.kind == "ctl.scale")
        digests.append({"events": len(journal), "digest": journal.digest,
                        "ctl_entries": ctl_entries})
    return {
        "duration_s": duration_s,
        "run_a": digests[0],
        "run_b": digests[1],
        "identical": digests[0] == digests[1],
        "ctl_entries_journaled": digests[0]["ctl_entries"],
    }


def check_invariants(report: dict) -> list[str]:
    """Violated autoscale claims, human-readable (empty = pass)."""
    problems = []
    c10, c100 = report["cells"]["10x-osg"], report["cells"]["100x"]
    lo, hi = TARGET_10X
    if not (lo <= c10["converged_dps"] <= hi):
        problems.append(
            f"10x-osg converged to {c10['converged_dps']} decision points, "
            f"outside the paper's [{lo}, {hi}]")
    if c100["converged_dps"] <= c10["converged_dps"]:
        problems.append(
            f"100x converged to {c100['converged_dps']} <= 10x's "
            f"{c10['converged_dps']}")
    for cell in (c10, c100):
        if cell["check_violations"]:
            problems.append(f"{cell['cell']}: {cell['check_violations']} "
                            f"invariant violations")
        if cell["unhandled_failures"]:
            problems.append(f"{cell['cell']}: kernel leaked "
                            f"{cell['unhandled_failures']} failures")
        if cell["scale_ups"] < 1:
            problems.append(f"{cell['cell']}: the planner never scaled up")
    det = report["determinism"]
    if not det["identical"]:
        problems.append(
            f"same-seed journals differ: {det['run_a']} vs {det['run_b']}")
    if det["ctl_entries_journaled"] < 1:
        problems.append("no ctl.scale entries reached the event journal")
    return problems


def run_bench(duration_s: float = DURATION_S,
              determinism_duration_s: float = 900.0) -> dict:
    cells = {}
    for row in (run_10x(duration_s), run_100x(duration_s / 2)):
        cells[row["cell"]] = row
    report = {
        "target_10x_dps": list(TARGET_10X),
        "cells": cells,
        "determinism": run_determinism(determinism_duration_s),
    }
    report["problems"] = check_invariants(report)
    report["pass_autoscale"] = not report["problems"]
    return report


def test_autoscale_convergence(benchmark):
    report = bench_once(benchmark, run_bench)

    rows = [[c["cell"], c["clients"], c["initial_dps"], c["converged_dps"],
             c["response_median_s"], c["clients_moved"],
             c["moves_deferred"], c["client_rebinds"]]
            for c in report["cells"].values()]
    print("\n" + format_table(
        ["Cell", "Clients", "DPs(t0)", "Converged", "RespMed(s)", "Moved",
         "Deferred", "Rebinds"],
        rows, title=f"Autoscale convergence vs paper Table 3 "
                    f"(target {TARGET_10X[0]}-{TARGET_10X[1]} at 10x)",
        col_width=12))
    assert not report["problems"], "\n".join(report["problems"])

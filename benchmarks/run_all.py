#!/usr/bin/env python
"""Benchmark regression driver: kernel throughput + chaos invariants.

Runs three regression baselines and writes one JSON file each:

* ``BENCH_kernel.json`` — the observability/kernel micro-benchmarks:
  events-per-second with tracing disabled and enabled per workload,
  plus the enabled-overhead percentage.  ``pass_overhead_budget``
  asserts the enabled overhead stays under 10% and the disabled guards
  under 2%.  (Where the wall clock goes, layer by layer, is the
  ledger's traced run: ``benchmarks/ledger/run.py --trace 1``.)
* ``BENCH_faults.json`` — the chaos matrix (``bench_chaos_matrix``):
  every fault scenario x {timeout-only baseline, resilient stack},
  with brokered/timeout counts, policy-action tallies, and kernel leak
  counters per cell.  ``pass_chaos_invariants`` asserts zero kernel
  leaks, non-zero brokered throughput everywhere, and a strict
  resilient-over-baseline gain on the recoverable scenarios.
* ``BENCH_autoscale.json`` — the closed-loop autoscale bench
  (``bench_autoscale``): 10x-OSG and 100x diurnal runs starting from
  one decision point; ``pass_autoscale`` asserts convergence to the
  paper's 4-5 decision points at 10x, strictly more at 100x, and
  bit-identical same-seed event journals.

Compare a fresh run to the committed baselines before merging kernel,
transport, fault, or resilience changes.  End-to-end speed and memory
(k=1 and k=10, monolithic and sharded) live in ``benchmarks/ledger/``.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py            # full sizes
    PYTHONPATH=src python benchmarks/run_all.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/run_all.py --strict   # nonzero exit
                                                           # on any missed
                                                           # budget/invariant
    PYTHONPATH=src python benchmarks/run_all.py --skip-kernel  # chaos only
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

# Allow running from a source checkout without installing.
_ROOT = Path(__file__).resolve().parent.parent
for _p in (str(_ROOT / "src"), str(_ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

ENABLED_BUDGET_PCT = 10.0
DISABLED_BUDGET_PCT = 2.0

#: Quick-mode chaos sweep: one scenario per fault family, shorter runs.
QUICK_CHAOS_SCENARIOS = ("dp_crash_restart", "partition2", "flaky_dp")
QUICK_CHAOS_DURATION_S = 600.0

#: Quick-mode autoscale bench: short horizon, still enough control
#: windows to converge at 10x (the 100x cell runs half of this).
QUICK_AUTOSCALE_DURATION_S = 1200.0


def run_kernel_bench(args) -> bool:
    """Kernel/tracing micro-bench -> BENCH_kernel.json; True on pass."""
    from benchmarks.bench_obs_overhead import measure_all

    t0 = time.time()
    results = measure_all(quick=args.quick, repeats=args.repeats)
    wall_s = time.time() - t0

    # The "callbacks" workload has no trace points: its enabled-vs-
    # disabled delta is pure guard cost, i.e. the disabled overhead.
    guard_pct = max(results["callbacks"]["overhead_pct"], 0.0)
    emitting = {k: v for k, v in results.items() if k != "callbacks"}
    worst = max(max(v["overhead_pct"], 0.0) for v in emitting.values())
    ok = worst < ENABLED_BUDGET_PCT and guard_pct < DISABLED_BUDGET_PCT

    report = {
        "bench": "kernel",
        "quick": args.quick,
        "unix_time": int(t0),
        "wall_s": round(wall_s, 2),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {name: {k: round(v, 3) for k, v in r.items()}
                      for name, r in results.items()},
        "tracing": {
            "disabled_guard_overhead_pct": round(guard_pct, 2),
            "enabled_overhead_worst_pct": round(worst, 2),
            "enabled_budget_pct": ENABLED_BUDGET_PCT,
            "disabled_budget_pct": DISABLED_BUDGET_PCT,
        },
        "pass_overhead_budget": ok,
    }

    out = Path(args.out) if args.out else \
        Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    for name, r in results.items():
        seconds = (f"   ({r['disabled_s']:.3f} s -> {r['enabled_s']:.3f} s "
                   f"a run)" if "disabled_s" in r else "")
        print(f"{name:>10}: disabled {r['disabled_per_s']:>12,.0f}/s   "
              f"enabled {r['enabled_per_s']:>12,.0f}/s   "
              f"overhead {r['overhead_pct']:+.1f}%{seconds}")
    verdict = "PASS" if ok else "FAIL"
    print(f"tracing overhead: worst enabled {worst:.1f}% "
          f"(budget {ENABLED_BUDGET_PCT:.0f}%), disabled guards "
          f"{guard_pct:.1f}% (budget {DISABLED_BUDGET_PCT:.0f}%) -> {verdict}")
    print(f"wrote {out}")
    return ok


def run_chaos_bench(args) -> bool:
    """Chaos matrix sweep -> BENCH_faults.json; True on pass."""
    from benchmarks.bench_chaos_matrix import (
        CHAOS_DURATION_S,
        RECOVERABLE,
        check_invariants,
        run_matrix,
    )

    scenarios = QUICK_CHAOS_SCENARIOS if args.quick else None
    duration_s = QUICK_CHAOS_DURATION_S if args.quick else CHAOS_DURATION_S
    t0 = time.time()
    matrix = run_matrix(scenarios=scenarios, duration_s=duration_s)
    wall_s = time.time() - t0
    problems = check_invariants(matrix)

    report = {
        "bench": "faults",
        "quick": args.quick,
        "unix_time": int(t0),
        "wall_s": round(wall_s, 2),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "duration_s": duration_s,
        "recoverable_scenarios": list(RECOVERABLE),
        "matrix": matrix,
        "recovery_gain": {
            s: cells["resilient"]["handled"] - cells["baseline"]["handled"]
            for s, cells in matrix.items()},
        "problems": problems,
        "pass_chaos_invariants": not problems,
    }

    out = Path(args.chaos_out) if args.chaos_out else \
        Path(__file__).resolve().parent.parent / "BENCH_faults.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    for scenario, cells in matrix.items():
        base, res = cells["baseline"], cells["resilient"]
        print(f"{scenario:>18}: baseline {base['handled']:>4} brokered   "
              f"resilient {res['handled']:>4}   "
              f"gain {res['handled'] - base['handled']:+4}   "
              f"faults {res['faults_injected']}")
    verdict = "PASS" if not problems else "FAIL"
    print(f"chaos invariants (no kernel leaks, throughput > 0, resilient "
          f"beats baseline on {len(RECOVERABLE)} recoverable scenarios) "
          f"-> {verdict}")
    for problem in problems:
        print(f"  VIOLATION: {problem}")
    print(f"wrote {out}")
    return not problems


def run_autoscale_bench(args) -> bool:
    """Autoscale convergence -> BENCH_autoscale.json; True on pass."""
    from benchmarks.bench_autoscale import (
        DURATION_S,
        TARGET_10X,
        run_bench,
    )

    duration_s = QUICK_AUTOSCALE_DURATION_S if args.quick else DURATION_S
    det_s = QUICK_AUTOSCALE_DURATION_S if args.quick else 900.0
    t0 = time.time()
    result = run_bench(duration_s=duration_s,
                       determinism_duration_s=det_s)
    wall_s = time.time() - t0

    report = {
        "bench": "autoscale",
        "quick": args.quick,
        "unix_time": int(t0),
        "wall_s": round(wall_s, 2),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "duration_s": duration_s,
        **result,
    }

    out = Path(args.autoscale_out) if args.autoscale_out else \
        Path(__file__).resolve().parent.parent / "BENCH_autoscale.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    for name, cell in result["cells"].items():
        print(f"{name:>10}: {cell['clients']} clients, "
              f"dps {cell['initial_dps']} -> {cell['converged_dps']} "
              f"(resp median {cell['response_median_s']}s, "
              f"moved {cell['clients_moved']})")
    det = result["determinism"]
    print(f"determinism: {'IDENTICAL' if det['identical'] else 'DIVERGED'} "
          f"({det['run_a']['events']} events, "
          f"{det['ctl_entries_journaled']} ctl.scale entries)")
    verdict = "PASS" if result["pass_autoscale"] else "FAIL"
    print(f"autoscale convergence (10x in {TARGET_10X}, 100x strictly "
          f"more, journals identical) -> {verdict}")
    for problem in result["problems"]:
        print(f"  VIOLATION: {problem}")
    print(f"wrote {out}")
    return result["pass_autoscale"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark regression harness (kernel + chaos + "
                    "autoscale)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes + fewer repeats (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="override best-of repeat count (kernel bench)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="kernel report path (default: BENCH_kernel.json "
                             "in the repo root)")
    parser.add_argument("--chaos-out", default=None, metavar="PATH",
                        help="chaos report path (default: BENCH_faults.json "
                             "in the repo root)")
    parser.add_argument("--autoscale-out", default=None, metavar="PATH",
                        help="autoscale report path (default: "
                             "BENCH_autoscale.json in the repo root)")
    parser.add_argument("--skip-kernel", action="store_true",
                        help="skip the kernel/tracing micro-bench")
    parser.add_argument("--skip-chaos", action="store_true",
                        help="skip the chaos matrix sweep")
    parser.add_argument("--skip-autoscale", action="store_true",
                        help="skip the autoscale convergence bench")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any budget or invariant is missed")
    args = parser.parse_args(argv)

    ok = True
    if not args.skip_kernel:
        ok = run_kernel_bench(args) and ok
    if not args.skip_chaos:
        ok = run_chaos_bench(args) and ok
    if not args.skip_autoscale:
        ok = run_autoscale_bench(args) and ok
    return 1 if (args.strict and not ok) else 0


if __name__ == "__main__":
    sys.exit(main())

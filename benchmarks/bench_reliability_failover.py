"""Reliability bench — §2.2: "We cannot afford for this infrastructure
to fail."

A 3-decision-point deployment loses one broker for good at T/3
(``chaos_scenario="dp_crash"``).  Three cells, each plain config:

* **healthy** — no failure (control);
* **crash** — the dead broker's clients degrade gracefully
  (timeout → random placement), exactly the §4.3 design;
* **crash + autoscale** — the §5.1 observer as the control plane: the
  planner grows the deployment when the survivors saturate, and the
  placement step of each scale-up evacuates the orphaned clients (a
  forced move: a client bound to a dead broker cannot stay).

Expected shape: the crash costs brokered (handled) placements; the
autoscaled deployment recovers them (evacuation *plus* added capacity
— evacuation alone onto saturated survivors makes things worse, which
an earlier version of this bench demonstrated); total job flow never
collapses in any scenario (graceful degradation).
"""

from benchmarks.conftest import DURATION_S, bench_once
from repro.control import AutoscaleConfig
from repro.experiments import canonical_gt3, run_experiment
from repro.metrics.report import format_table

CRASHED_DP = "dp0"  # dp_crash takes down the first decision point


def test_reliability_failover(benchmark):
    def sweep():
        healthy = run_experiment(canonical_gt3(3, duration_s=DURATION_S,
                                               name="healthy"))
        crash = run_experiment(canonical_gt3(
            3, duration_s=DURATION_S, chaos_scenario="dp_crash",
            name="crash"))
        failover = run_experiment(canonical_gt3(
            3, duration_s=DURATION_S, chaos_scenario="dp_crash",
            autoscale=AutoscaleConfig(max_dps=6), name="failover"))
        return healthy, crash, failover

    healthy, crash, failover = bench_once(benchmark, sweep)

    def handled_frac(r):
        return r.n_requests("handled") / max(r.n_jobs, 1)

    rows = []
    for label, r in (("healthy", healthy), ("crash", crash),
                     ("crash + autoscale", failover)):
        fb = r.client_fallbacks()
        rows.append([label, r.n_jobs, round(100 * handled_frac(r), 1),
                     fb["timeout"],
                     sum(c.n_abandoned for c in r.clients)])
    print("\n" + format_table(
        ["Scenario", "Requests", "Handled %", "Timeouts", "Abandoned"],
        rows, title="Decision-point failure at t = T/3 (GT3, 3 DPs)",
        col_width=18))
    actions = failover.planner.actuator.actions
    print("Control actions: "
          + str([(a.kind, round(a.time), a.n_after, a.clients_moved)
                 for a in actions]))

    # The crash costs brokered placements (the orphaned third of the
    # fleet stops being handled — and, cycling through timeout + grace,
    # submits fewer requests, so the *count* is the honest measure)...
    assert crash.n_requests("handled") < 0.92 * healthy.n_requests("handled")
    # ...the adaptive deployment recovers them and then some (it also
    # fixed the pre-existing 3-DP saturation)...
    assert failover.n_requests("handled") > 1.2 * crash.n_requests("handled")
    assert handled_frac(failover) > handled_frac(crash) + 0.05
    # ...and in no scenario does job flow collapse (graceful degradation).
    assert crash.n_jobs > 0.6 * healthy.n_jobs
    # The orphaned clients were evacuated, by a scale-up's placement step.
    assert failover.deployment.clients_of(CRASHED_DP) == []
    assert any(a.kind == "scale_up" for a in actions)

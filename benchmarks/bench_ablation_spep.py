"""Ablation — S-PEP site-level enforcement (§3.1, scoped out of the
paper's experiments, implemented here).

The paper's runs "assumed the decision points have total control over
scheduling decisions" with no site-level enforcement.  This bench adds
S-PEPs at every site, capping one greedy VO's share of each site, and
compares delivered shares with and without enforcement under an
identical workload in which that VO submits half of all jobs.

Expected shape: without S-PEPs the greedy VO takes its offered share
(~62% of delivered CPU time).  The cap must sit *below* the VO's
per-site demand to bind (the grid runs at ~20% utilization, so a 30%
cap would never trigger); at 8% per site the S-PEPs hold jobs
continuously and press the delivered share down.
"""

from benchmarks.conftest import DURATION_S, bench_once
from repro.experiments import canonical_gt3
from repro.experiments.runner import build_experiment, run_built
from repro.grid import SitePolicyEnforcementPoint
from repro.metrics.report import format_table
from repro.usla import PolicyEngine, parse_policy
from repro.workloads import HostWorkload

GREEDY_VO = "vo0"
CAP_PCT = 8.0


def _skewed_config(name):
    cfg = canonical_gt3(3, duration_s=DURATION_S, n_vos=4, name=name)
    return cfg


def _skew_workload(result_clients):
    """Rewrite half of each client's jobs to the greedy VO (pre-run): the
    host's generated stream, drawn whole into explicit columns, with
    every other job's identity replaced."""
    for client in result_clients:
        wl = client.workload
        (identity, cpus, durations), _ = wl.source.redraw(wl.marks, len(wl))
        identity[::2] = wl.identities.index(
            (GREEDY_VO, f"{GREEDY_VO}-g0", f"{GREEDY_VO}-g0-u0"))
        client.workload = HostWorkload(
            wl.host, wl.arrivals, identity, wl.identities, cpus, durations,
            jid_base=wl.jid_base)


def _delivered_shares(result):
    totals = {}
    for site in result.grid.sites.values():
        for vo, cpu_s in site.vo_cpu_seconds.items():
            totals[vo] = totals.get(vo, 0.0) + cpu_s
    total = sum(totals.values()) or 1.0
    return {vo: v / total for vo, v in totals.items()}


def _run_skewed(name, enforce):
    """One skewed run, with S-PEPs capping the greedy VO if ``enforce``."""
    built = build_experiment(_skewed_config(name))
    _skew_workload(built.deployment.clients)
    speps = []
    if enforce:
        rules = "\n".join(f"{s}:{GREEDY_VO}={CAP_PCT:g}%+"
                          for s in built.grid.site_names)
        policy = PolicyEngine(parse_policy(rules))
        speps = [SitePolicyEnforcementPoint(site, policy)
                 for site in built.grid.sites.values()]
    return run_built(built), speps


def test_ablation_spep_enforcement(benchmark):
    def sweep():
        off, _ = _run_skewed("spep-off", enforce=False)
        on, speps = _run_skewed("spep-on", enforce=True)
        return off, on, speps

    off, on, speps = bench_once(benchmark, sweep)

    shares_off = _delivered_shares(off)
    shares_on = _delivered_shares(on)
    holds = sum(s.holds for s in speps)
    rows = [["S-PEPs off", round(100 * shares_off.get(GREEDY_VO, 0), 1), 0],
            ["S-PEPs on", round(100 * shares_on.get(GREEDY_VO, 0), 1), holds]]
    print("\n" + format_table(
        [f"Config", f"{GREEDY_VO} share %", "Policy holds"], rows,
        title=f"S-PEP enforcement ({GREEDY_VO} capped at {CAP_PCT:g}% "
              "per site)", col_width=16))

    # Without enforcement the greedy VO takes well over its cap.
    assert shares_off.get(GREEDY_VO, 0) > 0.40
    # With S-PEPs its delivered share is pressed down and holds occur.
    assert shares_on.get(GREEDY_VO, 0) < shares_off[GREEDY_VO] - 0.05
    assert holds > 0

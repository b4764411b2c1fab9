"""§4.1's architecture-analysis question, answered as a bench.

"In particular, we wanted to determine whether CPU resources could be
allocated in a fair manner across multiple VOs, and across multiple
groups within a VO, when using DI-GRUBER configurations that feature
multiple loosely coupled GRUBER instances rather than a single
centralized instance."

Setup: an oversubscribed grid governed by per-site USLAs — three VOs at
50% / 30%+ / 20%+, and within vo0 two groups capped at 30%+ / 20%+ of
each site (i.e. a 60/40 split of vo0's half) — enforced by S-PEPs, with USLA-aware decision points recommending
within shares.  The same demand-heavy workload runs against one
centralized decision point and against three loosely synchronized ones.

Expected shape: delivered CPU-time shares track the policy in *both*
configurations — distributing the brokering does not break fairness
(the paper's affirmative finding).
"""

from benchmarks.conftest import DURATION_S, bench_once
from repro.experiments import ExperimentConfig
from repro.experiments.runner import build_experiment, run_built
from repro.grid import SitePolicyEnforcementPoint
from repro.metrics.report import format_table
from repro.net import GT4C_PROFILE
from repro.usla import (
    Agreement,
    AgreementContext,
    PolicyEngine,
    ServiceTerm,
    parse_policy,
)
from repro.workloads import JobModel

VO_SHARES = {"vo0": "50%", "vo1": "30%+", "vo2": "20%+"}
GROUP_SHARES = {"vo0-g0": "30%+", "vo0-g1": "20%+"}


def _policy_text(site):
    lines = [f"{site}:{vo}={share}" for vo, share in VO_SHARES.items()]
    lines += [f"{site}:vo0.{grp}={share}"
              for grp, share in GROUP_SHARES.items()]
    return "\n".join(lines)


def _config(name, dps):
    return ExperimentConfig(
        name=name, profile=GT4C_PROFILE, decision_points=dps,
        n_clients=30, duration_s=DURATION_S,
        n_sites=20, total_cpus=800, n_vos=3, groups_per_vo=2,
        usla_aware=True, sync_interval_s=60.0,
        job_model=JobModel(duration_mean_s=600.0,
                           cpu_choices=(1, 2, 4), cpu_weights=(0.5, 0.3, 0.2)),
    )


def _run_governed(config):
    """One run under the grid's USLAs; returns it with its S-PEPs."""
    built = build_experiment(config)
    grid = built.grid
    # Publish the grid's USLAs to every decision point...
    rules = parse_policy("\n".join(_policy_text(s) for s in grid.site_names))
    ag = Agreement("grid-policy", AgreementContext("grid", "everyone"),
                   terms=[ServiceTerm(f"t{i}", r)
                          for i, r in enumerate(rules)])
    built.deployment.publish_usla(ag)
    # ...and enforce them at the sites with S-PEPs.
    policy = PolicyEngine(rules)
    speps = [SitePolicyEnforcementPoint(site, policy)
             for site in grid.sites.values()]
    return run_built(built), speps


def _delivered(result):
    """CPU-seconds by VO (sites) and by vo0 group (job rows)."""
    by_vo = {}
    for site in result.grid.sites.values():
        for vo, s in site.vo_cpu_seconds.items():
            by_vo[vo] = by_vo.get(vo, 0.0) + s
    by_group = {}
    jobs = result.trace.job_arrays()
    cpu_seconds = (jobs["completed_at"] - jobs["started_at"]) * jobs["cpus"]
    for vo, group, secs in zip(jobs["vo"], jobs["group"], cpu_seconds):
        if vo == "vo0" and secs > 0:  # NaN: never started or finished
            by_group[group] = by_group.get(group, 0.0) + float(secs)
    return by_vo, by_group


def test_fairness_across_vos_and_groups(benchmark):
    def sweep():
        return {dps: _run_governed(_config(f"fair-{dps}dp", dps))
                for dps in (1, 3)}

    results = bench_once(benchmark, sweep)

    rows = []
    shares = {}
    for dps, (result, speps) in sorted(results.items()):
        by_vo, by_group = _delivered(result)
        vo_total = sum(by_vo.values()) or 1.0
        g_total = sum(by_group.values()) or 1.0
        shares[dps] = ({v: s / vo_total for v, s in by_vo.items()},
                       {g: s / g_total for g, s in by_group.items()})
        rows.append([
            dps,
            round(100 * shares[dps][0].get("vo0", 0), 1),
            round(100 * shares[dps][0].get("vo1", 0), 1),
            round(100 * shares[dps][0].get("vo2", 0), 1),
            round(100 * shares[dps][1].get("vo0-g0", 0), 1),
            round(100 * shares[dps][1].get("vo0-g1", 0), 1),
            sum(s.holds for s in speps),
        ])
    print("\n" + format_table(
        ["DPs", "vo0 %", "vo1 %", "vo2 %", "g0|vo0 %", "g1|vo0 %", "Holds"],
        rows, title="Delivered CPU-time shares under USLAs "
                    "(vo0 50 / vo1 30+ / vo2 20+; g0 30+ / g1 20+ of site)",
        col_width=11))

    for dps in (1, 3):
        vo_shares, group_shares = shares[dps]
        # Capped VOs stay near their upper limits (oversubscribed grid).
        assert vo_shares["vo1"] <= 0.30 + 0.06
        assert vo_shares["vo2"] <= 0.20 + 0.06
        assert vo_shares["vo0"] >= 0.40
        # Group split within vo0 tracks the 60/40 cap ratio.
        ratio = group_shares["vo0-g0"] / max(group_shares["vo0-g1"], 1e-9)
        assert 1.1 < ratio < 2.2  # around 30/20 = 1.5

    # Fairness is preserved when brokering is distributed: shares match
    # the centralized configuration closely.
    for vo in VO_SHARES:
        assert abs(shares[1][0].get(vo, 0) - shares[3][0].get(vo, 0)) < 0.08

#!/usr/bin/env python
"""USLA-aware brokering: fair shares across competing VOs.

Three VOs share an oversubscribed grid under per-site fair-share USLAs
(the paper's Maui-semantics × WS-Agreement representation):

* ``vo0`` — 50% target of every site,
* ``vo1`` — 30% upper limit,
* ``vo2`` — 20% upper limit.

The agreement is published to every decision point of a three-DP
DI-GRUBER deployment; the USLA-aware engines recommend only sites where
the asking VO still has headroom, and site policy enforcement points
hold what arrives over a cap.  At the end the delivered CPU-time shares
are printed next to the published rules.

Run:  python examples/fair_share_brokering.py
"""

from repro.experiments import ExperimentConfig
from repro.experiments.runner import build_experiment, run_built
from repro.grid import SitePolicyEnforcementPoint
from repro.net import GT4C_PROFILE
from repro.usla import (
    Agreement,
    AgreementContext,
    PolicyEngine,
    ServiceTerm,
    parse_policy,
)
from repro.workloads import JobModel

SHARES = {"vo0": "50%", "vo1": "30%+", "vo2": "20%+"}


def main() -> None:
    config = ExperimentConfig(
        name="fair-share", profile=GT4C_PROFILE, decision_points=3,
        n_clients=30, duration_s=1800.0,
        n_sites=20, total_cpus=800, n_vos=3, groups_per_vo=1,
        usla_aware=True, sync_interval_s=60.0,
        job_model=JobModel(duration_mean_s=600.0,
                           cpu_choices=(1, 2, 4), cpu_weights=(0.5, 0.3, 0.2)),
        seed=11,
    )
    # Build, publish the shares and attach the S-PEPs, then run.
    built = build_experiment(config)
    grid = built.grid
    rules = parse_policy("\n".join(
        f"{site}:{vo}={share}"
        for site in grid.site_names for vo, share in SHARES.items()))
    built.deployment.publish_usla(Agreement(
        name="grid-shares",
        context=AgreementContext(provider="grid", consumer="all-vos"),
        terms=[ServiceTerm(f"t{i}", r) for i, r in enumerate(rules)]))
    policy = PolicyEngine(rules)
    speps = [SitePolicyEnforcementPoint(site, policy)
             for site in grid.sites.values()]
    result = run_built(built)

    delivered = {vo: sum(site.vo_cpu_seconds.get(vo, 0.0)
                         for site in result.grid.sites.values())
                 for vo in SHARES}
    total = sum(delivered.values())
    print("Delivered CPU-seconds by VO (published share):")
    for vo, share in SHARES.items():
        print(f"  {vo:<4} {delivered[vo]:12,.0f}  "
              f"({delivered[vo] / total:6.1%} delivered, {share} published)")
    print(f"\njobs held at sites by S-PEPs: {sum(s.holds for s in speps)}")
    print(result.summary())


if __name__ == "__main__":
    main()

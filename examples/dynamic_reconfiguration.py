#!/usr/bin/env python
"""Dynamic reconfiguration: growing the decision-point set under load.

The paper's §5.1 proposes (but does not implement) a third-party
observer that watches decision points and deploys new ones when they
saturate.  Here that observer is the autoscale control plane: a
deployment starts with ONE decision point, the client fleet ramps up,
and the planner adds decision points and moves clients onto them —
watch the throughput recover.

Run:  python examples/dynamic_reconfiguration.py
"""

import numpy as np

from repro.control import AutoscaleConfig
from repro.experiments import smoke_config, run_experiment
from repro.metrics import windowed_rate


def main() -> None:
    config = smoke_config(
        name="dyn-reconfig", decision_points=1, n_clients=48,
        duration_s=1200.0, n_sites=30, total_cpus=1500,
        ramp_fraction=0.3,
    )

    print("Static run (1 decision point, no reconfiguration)...")
    static = run_experiment(config)

    print("Adaptive run (the planner may add decision points)...")
    adaptive = run_experiment(config.with_(
        autoscale=AutoscaleConfig(max_dps=5)))

    print("\nControl actions:")
    for a in adaptive.planner.actuator.actions:
        print(f"  t={a.time:7.1f}s {a.kind:>10}: {a.n_before} -> "
              f"{a.n_after} DPs ({a.clients_moved} clients moved)")
    print(f"Final deployment size: "
          f"{len(adaptive.deployment.live_dp_ids)} decision points")

    for name, res in (("static", static), ("adaptive", adaptive)):
        d = res.diperf()
        q = res.trace.query_arrays()
        # Throughput in the final third of the run (post-adaptation).
        _, rates = windowed_rate(q["responded_at"],
                                 config.duration_s * 2 / 3,
                                 config.duration_s, 60.0)
        print(f"\n{name:>9}: mean_thr={d.mean_throughput():5.2f} q/s  "
              f"final-third thr={np.mean(rates):5.2f} q/s  "
              f"avg resp={d.response_stats().average:6.1f} s  "
              f"timeouts={d.n_timed_out}")

    gain = (adaptive.diperf().mean_throughput()
            / max(static.diperf().mean_throughput(), 1e-9))
    print(f"\nAdaptive/static throughput ratio: {gain:.2f}x")


if __name__ == "__main__":
    main()

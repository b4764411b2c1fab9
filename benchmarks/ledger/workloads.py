"""Config builders of the six workloads (imported in the subprocess)."""

from __future__ import annotations

from names import SHARDED, WORKLOADS

#: ``--quick`` divides every workload's ``duration_s`` by this.  Quick
#: numbers exercise the harness; they are not comparable with full runs.
QUICK_DIVISOR = 6


def make_config(name: str, seed: int, workdir: str, quick: bool = False):
    """The ``ExperimentConfig`` one workload runs.

    ``workdir`` receives the checkpoint files of ``planes-on``; the
    simulator sees only the returned config.
    """
    from repro.experiments.configs import (canonical_gt3, canonical_gt4,
                                           scale_config)
    if name == "gt3-3dp":
        cfg = canonical_gt3(3)
    elif name == "gt4-10dp":
        cfg = canonical_gt4(10)
    elif name in ("k10-10dp", SHARDED):
        # The 15 s canonical timeout answers nothing at k=10 (3000 sites
        # x 0.06 KB x 0.15 s/KB = 27 s of state transfer); 60 s makes
        # the decide path run.
        cfg = scale_config(10, 10, duration_s=750.0, sync_delta=True,
                           timeout_s=60.0)
    elif name == "site-backlog":
        cfg = canonical_gt3(3, n_sites=60, total_cpus=4000)
    elif name == "planes-on":
        cfg = canonical_gt3(3, spans_enabled=True, spans_sample=4,
                            check_enabled=True, telemetry_enabled=True,
                            checkpoint_every_s=300.0,
                            checkpoint_dir=workdir)
    else:
        raise ValueError(f"unknown workload {name!r}; "
                         f"expected one of {sorted(WORKLOADS)}")
    duration = cfg.duration_s / QUICK_DIVISOR if quick else cfg.duration_s
    return cfg.with_(seed=seed, duration_s=duration)

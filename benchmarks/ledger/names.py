"""Every name the ledger emits: workloads, layers, metrics, units.

Names are fixed — later issues cite them, and ``BENCHMARK.json`` lists
exactly these.  Nothing here imports ``repro`` (or numpy): ``run.py``
reads this module in a process that must stay small.
"""

from __future__ import annotations

DEFAULT_SEED = 20050101

#: name -> one-line reason (layer that does most of the work -> least).
WORKLOADS = {
    "gt3-3dp": "paper Table 1 cell: saturated 3-DP GT3 broker, 37% "
               "timeout-fallback; sim.kernel and core.client dominate",
    "gt4-10dp": "paper Table 2 cell: unsaturated 10-DP mesh flood; the "
                "write side of the state view (core.state, core.sync)",
    "k10-10dp": "10x grid, 60 s timeout so answers arrive: the read side "
                "at 3000 sites (core.selectors, core.engine) and memory",
    "site-backlog": "gt3-3dp load on 60 sites/4000 CPUs: 84% utilisation, "
                    "deep site queues, the only grid.site drain workload",
    "planes-on": "gt3-3dp with spans+check+telemetry+checkpoints all on: "
                 "the only workload where obs, check, sim.snapshot work",
    "shard2-k10": "k10-10dp through run_sharded on 2 worker processes: "
                  "the only multi-process path (sim.sharded barriers)",
}
SHARDED = "shard2-k10"
N_SHARDS = 2

#: The layers the traced repeat reports, in report order.  A module
#: maps to the first entry that equals it or is a package prefix of it.
LAYERS = (
    "sim.kernel", "core.client", "core.decision_point", "core.engine",
    "core.selectors", "core.state", "core.sync", "net.transport",
    "net.container", "net.latency", "grid.site", "workloads.generator",
    "usla", "obs", "check", "sim.snapshot",
)

#: name -> (unit, better).  ``sim_*`` are simulated and deterministic
#: per seed (``sim_s`` = simulated seconds); the rest are host
#: measurements (``s`` = host seconds).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "rss_peak_mb": ("MB", "lower"),
    "sim_response_s_p50": ("sim_s", "lower"),
    "sim_response_s_p99": ("sim_s", "lower"),
    "sim_throughput_qps": ("1/s", "higher"),
    "sim_accuracy_pct": ("%", "higher"),
    "sim_util_pct": ("%", "higher"),
}

COUNTER_UNITS = {
    "sim.kernel.events": "count", "sim.kernel.events_per_s": "1/s",
    "sim.kernel.us_per_event": "us", "sim.kernel.heap_peak": "count",
    "sim.kernel.compactions": "count", "net.transport.rpcs": "count",
    "net.transport.timeouts": "count", "core.sync.kb_sent": "KB",
    "core.sync.records_sent": "count", "grid.site.vector_drains": "count",
    "grid.site.queue_max_end": "count", "core.client.backlogged": "count",
}
DERIVED_UNITS = {
    "planes.tax_pct": "%", "sim.sharded.speedup_vs_1shard": "x",
    "experiments.finalize_s": "s", "experiments.summarize_s": "s",
    "trace.overhead_pct": "%", "trace.unattributed_pct": "%",
}
RUNG_UNITS = {
    "sim.kernel.callback_us": "us", "sim.kernel.process_yield_us": "us",
    "sim.kernel.timeout_cancel_us": "us", "net.transport.rpc_us": "us",
    "grid.site.submit_shallow_us": "us", "grid.site.submit_deep_us": "us",
    "core.state.apply_record_us": "us",
    "core.state.free_map_us.300": "us", "core.state.free_map_us.3000": "us",
    "core.selectors.select_us.300": "us",
    "core.selectors.select_us.3000": "us",
    "core.engine.availabilities_us.300": "us",
    "core.engine.availabilities_us.3000": "us",
    "core.sync.round_us.flood": "us", "core.sync.round_us.delta": "us",
    "workloads.generator.job_us": "us", "check.invariants.pass_ms": "ms",
    "obs.timeline.sample_ms": "ms", "sim.snapshot.capture_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share_pct"] = "%"
        units[f"{layer}.calls"] = "count"
    units.update(COUNTER_UNITS)
    units.update(DERIVED_UNITS)
    units.update(RUNG_UNITS)
    return units

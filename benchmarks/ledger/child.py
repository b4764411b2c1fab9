"""One measured repeat, in its own process.

``run.py`` starts this file once per repeat (fresh interpreter,
``PYTHONHASHSEED=0``, ``REPRO_*`` stripped, ``PYTHONPATH`` pointing at
``src``) so peak RSS and import state are per repeat.  It drives the
public entry points — ``build_experiment`` -> ``sim.run(until=)`` ->
``finalize_experiment`` -> ``summarize`` -> ``summary_digest``, or
``run_sharded`` — and prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from names import N_SHARDS, SHARDED
from workloads import make_config

#: ``shard2-k10`` sets up (config + ``plan_shards``) in ~60 us, where a
#: single timing moves by 20-50 % from one process to the next; its
#: ``setup_s`` is the median of this many (12 ms in all).  The serial
#: workloads time the one build their run uses.
SHARDED_SETUPS = 200
#: A serial run phase is timed in this many equal windows of simulated
#: time (``sim.run(until=)`` once per window, the same events in the
#: same order as one call), so that ``run.py`` can hold the same window
#: of two repeats against each other and drop what a neighbour of this
#: host added to one of them.  The traced repeat runs in one window.
RUN_WINDOWS = 100


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def sim_metrics(summaries) -> dict:
    """The deterministic, simulated end-to-end metrics.

    One summary for a monolithic run; one per neighborhood for a
    sharded run, combined as request-weighted means and percentiles
    over the concatenated query rows.
    """
    import numpy as np
    response = np.asarray([row[2] for s in summaries for row in s.query_rows],
                          dtype=np.float64)
    response = response[~np.isnan(response)]

    def weighted(values, weights):
        total = sum(weights)
        return (sum(v * w for v, w in zip(values, weights)) / total
                if total else None)

    n_jobs = [s.n_jobs for s in summaries]
    handled = [s.table_rows["handled"]["n_req"] for s in summaries]
    answered = len(response)
    return {
        "sim_response_s_p50": (float(np.percentile(response, 50))
                               if answered else None),
        "sim_response_s_p99": (float(np.percentile(response, 99))
                               if answered else None),
        "sim_throughput_qps": weighted(
            [s.throughput_stats.peak for s in summaries], n_jobs),
        "sim_accuracy_pct": weighted(
            [s.table_rows["handled"]["accuracy_pct"] if h else 0.0
             for s, h in zip(summaries, handled)], handled),
        "sim_util_pct": weighted(
            [s.table_rows["all"]["util_pct"] for s in summaries], n_jobs),
        "response_samples": answered,
    }


def operations(summaries) -> dict:
    """Brokering requests issued and how the simulated broker fared."""
    fallbacks: dict[str, int] = {}
    for s in summaries:
        for k, v in s.fallbacks.items():
            fallbacks[k] = fallbacks.get(k, 0) + int(v)
    return {"attempted": sum(s.n_jobs for s in summaries),
            "handled": fallbacks.get("handled", 0),
            "timeout_fallbacks": fallbacks.get("timeout", 0),
            "backlogged": fallbacks.get("backlogged", 0)}


def counters(builts) -> dict:
    """Exact per-layer counts read from public attributes."""
    sims = list({id(b.sim): b.sim for b in builts}.values())
    dps = [dp for b in builts
           for dp in b.deployment.decision_points.values()]
    sites = [site for b in builts for site in b.grid.sites.values()]
    return {
        "sim.kernel.events": sum(s.events_executed for s in sims),
        "sim.kernel.heap_peak": max(s.heap_peak for s in sims),
        "sim.kernel.compactions": sum(s.compactions for s in sims),
        "net.transport.rpcs": sum(b.network.stats.rpcs_started
                                  for b in builts),
        # The client races each brokering RPC against its own timer,
        # so the transport's ``rpcs_timed_out`` never moves; count the
        # callers that stopped waiting.
        "net.transport.timeouts": sum(c.n_fallback_timeout for b in builts
                                      for c in b.clients),
        "core.sync.kb_sent": sum(dp.sync.kb_sent for dp in dps),
        "core.sync.records_sent": sum(dp.sync.records_sent for dp in dps),
        "grid.site.vector_drains": sum(s.vector_drains for s in sites),
        "grid.site.queue_max_end": max(s.queue_length for s in sites),
        "core.client.backlogged": sum(c.backlog_len for b in builts
                                      for c in b.clients),
    }


def _trace_outputs(tracer, out: dict, trace_out: str, workload: str) -> None:
    spans = tracer.spans()  # one replay of the log serves both outputs
    out["trace"] = tracer.layer_report(spans)
    if trace_out:
        os.makedirs(trace_out, exist_ok=True)
        path = os.path.join(trace_out, f"{workload}.spans.jsonl")
        out["trace"]["spans_written"] = tracer.dump_jsonl(path, spans)
        out["trace"]["path"] = path


def run_serial(args) -> dict:
    from repro.experiments.parallel import summarize, summary_digest
    from repro.experiments.runner import (build_experiment,
                                          finalize_experiment)
    tracer = None
    if args.traced:
        from tracer import SpanTracer
        tracer = SpanTracer()
        tracer.install()
    try:
        t0 = time.perf_counter()
        cfg = make_config(args.workload, args.seed, args.workdir, args.quick)
        built = build_experiment(cfg)
        t1 = time.perf_counter()
        windows = 1 if args.traced else RUN_WINDOWS
        marks = [t1]
        for i in range(1, windows + 1):
            built.sim.run(until=(cfg.duration_s * i / windows
                                 if i < windows else cfg.duration_s))
            marks.append(time.perf_counter())
        t2 = marks[-1]
        result = finalize_experiment(built)
        t3 = time.perf_counter()
        summary = summarize(result)
        t4 = time.perf_counter()
        digest = summary_digest(summary)
        t5 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {
        "digest": digest,
        "setup_s": t1 - t0, "wall_s": t2 - t1, "total_s": t5 - t0,
        "wall_windows_s": [b - a for a, b in zip(marks, marks[1:])],
        "finalize_s": t3 - t2, "summarize_s": t4 - t3,
        "rss_peak_mb": _rss_mb(resource.RUSAGE_SELF),
        "sim": sim_metrics([summary]), "ops": operations([summary]),
        "counters": counters([built]),
        "planes": {
            "violations": (len(built.checker.violations)
                           if built.checker is not None else 0),
            "checkpoints": (sum(os.path.isfile(p)
                                for p in built.checkpointer.written)
                            if built.checkpointer is not None else 0),
            "timeline_rows": (built.sampler.samples_taken
                              if built.sampler is not None else 0),
        },
    }
    if tracer is not None:
        _trace_outputs(tracer, out, args.trace_out, args.workload)
    return out


def run_sharded_workload(args) -> dict:
    """``shard2-k10`` and its lockstep references.

    ``--mode workers`` is the measured workload.  ``--mode lockstep``
    runs every neighborhood in this process: the 1-shard reference, the
    2-shard twin whose layers the traced repeat decomposes, and the
    traced repeat itself.  In-process runs also capture the built
    neighborhoods as ``repro.sim.sharded`` finalizes them, for the
    counters and the finalize/summarize split.
    """
    import repro.sim.sharded as sharded
    setups = []
    for _ in range(SHARDED_SETUPS):
        s0 = time.perf_counter()
        cfg = make_config(args.workload, args.seed, args.workdir, args.quick)
        sharded.plan_shards(cfg.decision_points, args.shards)
        setups.append(time.perf_counter() - s0)

    builts, phase_s = [], {"finalize_s": 0.0, "summarize_s": 0.0}
    finalize, summarize = sharded.finalize_experiment, sharded.summarize

    def capturing_finalize(built):
        builts.append(built)
        s0 = time.perf_counter()
        try:
            return finalize(built)
        finally:
            phase_s["finalize_s"] += time.perf_counter() - s0

    def timed_summarize(result, *a, **kw):
        s0 = time.perf_counter()
        try:
            return summarize(result, *a, **kw)
        finally:
            phase_s["summarize_s"] += time.perf_counter() - s0

    tracer = None
    in_process = args.mode == "lockstep"
    try:
        if in_process:
            sharded.finalize_experiment = capturing_finalize
            sharded.summarize = timed_summarize
        if args.traced:
            from tracer import SpanTracer
            tracer = SpanTracer()
            tracer.install()
        t0 = time.perf_counter()
        cfg = make_config(args.workload, args.seed, args.workdir, args.quick)
        result = sharded.run_sharded(cfg, n_shards=args.shards,
                                     mode=args.mode)
        digest = result.digest
        t1 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
        sharded.finalize_experiment = finalize
        sharded.summarize = summarize
    out = {
        "digest": digest,
        "wall_s": result.wall_s, "total_s": t1 - t0,
        "setup_s": statistics.median(setups),
        # The coordinator plus its largest worker: ``ru_maxrss`` of
        # waited-for children is a maximum, not a sum.
        "rss_peak_mb": (_rss_mb(resource.RUSAGE_SELF)
                        + (_rss_mb(resource.RUSAGE_CHILDREN)
                           if not in_process else 0.0)),
        "sim": sim_metrics(result.summaries),
        "ops": operations(result.summaries),
        "planes": {"violations": 0, "checkpoints": 0, "timeline_rows": 0},
    }
    if in_process:
        out.update(phase_s)
        out["counters"] = counters(builts)
    if tracer is not None:
        _trace_outputs(tracer, out, args.trace_out, args.workload)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--workdir", required=True)
    run.add_argument("--quick", action="store_true")
    run.add_argument("--traced", action="store_true")
    run.add_argument("--trace-out", default="")
    run.add_argument("--mode", choices=("workers", "lockstep"),
                     default="workers")
    run.add_argument("--shards", type=int, default=N_SHARDS)
    rungs = sub.add_parser("rungs")
    rungs.add_argument("--rung", default="")
    args = parser.parse_args(argv)
    if args.command == "rungs":
        from rungs import run_rungs
        out = run_rungs(args.rung)
    elif args.workload == SHARDED:
        out = run_sharded_workload(args)
    else:
        out = run_serial(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tracing-overhead micro-benchmarks: the observability layer's budget.

Three workloads, each run with tracing disabled (the default) and
enabled, measuring kernel event throughput:

* **callbacks** — bare scheduled callbacks; no trace points fire, so
  this pins the cost of the ``if trace.enabled`` guards themselves
  (the "~0 when disabled" claim);
* **processes** — generator processes with start/finish lifecycle
  events (the kernel's per-process trace points);
* **rpc** — request/response round trips with full per-RPC spans
  (send → handle → respond → complete), the densest emission path;
* **spans** — a whole smoke experiment with causal span tracing
  (``repro.obs.spans``) off vs on at the budgeted operating point
  (head sampling, ``--trace-sample=4``): the realistic cost of
  per-job lifecycle spans, decide-staleness annotation, and context
  propagation, measured as kernel events per wall-clock second;
* **check** — the same smoke experiment with the online invariant
  checker (``run --check``) off vs on: the cost of the periodic
  conservation/accounting checkpoint pass, held to the same <10%
  enabled budget as tracing;
* **telemetry** — the same smoke experiment with the timeline sampler
  (``run --telemetry``) off vs on: one unified
  ``MetricsRegistry.collect()`` pass per 30 simulated seconds, held to
  the same <10% budget.

``measure_all()`` is what ``benchmarks/run_all.py`` calls to produce
``BENCH_kernel.json``; the pytest wrappers below assert *lenient*
bounds (CI boxes are noisy) while the JSON records the actual ratios
against the <10% enabled-overhead budget.
"""

from __future__ import annotations

import time

from repro.net import ConstantLatency, Endpoint, Network
from repro.sim import Simulator


# -- workloads -----------------------------------------------------------------

def run_callbacks(n: int = 100_000, tracing: bool = False) -> float:
    """Schedule + dispatch ``n`` bare callbacks; returns events/sec."""
    sim = Simulator()
    if tracing:
        sim.trace.subscribe(sim.trace.ring)
    noop = lambda: None  # noqa: E731
    for i in range(n):
        sim.schedule(float(i % 977), noop)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert sim.events_executed == n
    return n / elapsed


def run_processes(n_procs: int = 1_000, yields: int = 100,
                  tracing: bool = False) -> float:
    """Drive generator processes; returns kernel events/sec."""
    sim = Simulator()
    if tracing:
        sim.trace.subscribe(sim.trace.ring)
    done = []

    def proc():
        for _ in range(yields):
            yield 1.0
        done.append(1)

    for _ in range(n_procs):
        sim.process(proc())
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert len(done) == n_procs
    return sim.events_executed / elapsed


def run_rpcs(n: int = 5_000, tracing: bool = False) -> float:
    """Round-trip RPCs with per-RPC spans enabled; returns RPCs/sec."""
    sim = Simulator()
    if tracing:
        sim.trace.subscribe(sim.trace.ring)
    net = Network(sim, ConstantLatency(0.01))
    Endpoint(net, "client")
    server = Endpoint(net, "server")
    server.register_handler("echo", lambda payload, src: payload)
    for i in range(n):
        net.rpc("client", "server", "echo", i)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert net.stats.rpcs_completed == n
    return n / elapsed


def run_spans_experiment(duration_s: int = 1800, n_clients: int = 24,
                         sample_every: int = 1, tracing: bool = False) -> float:
    """End-to-end smoke run, span tracing off vs on; kernel events/sec.

    Spans are job-granular (a handful per brokered job), so their
    honest budget test is a full experiment — container service draws,
    WAN transfers, site scheduling — not a micro-loop that times
    nothing but the recorder.  ``sample_every`` is the head-sampling
    rate under test: the budgeted operating point records every 4th
    trace (``--trace-sample=4``); full fidelity (1) costs more and is
    what you opt into for a debugging run, not for always-on tracing.
    """
    from repro.experiments.configs import smoke_config
    from repro.experiments.runner import run_experiment

    config = smoke_config(duration_s=float(duration_s),
                          n_clients=max(int(n_clients), 1),
                          spans_enabled=tracing,
                          spans_sample=max(int(sample_every), 1))
    t0 = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - t0
    assert result.sim.events_executed > 0
    if tracing:
        assert len(result.sim.spans) > 0
    return result.sim.events_executed / elapsed


def run_telemetry_experiment(duration_s: int = 1800, n_clients: int = 24,
                             tracing: bool = False) -> float:
    """End-to-end smoke run, telemetry timeline off vs on; events/sec.

    ``tracing=True`` means ``telemetry_enabled=True``: the
    :class:`~repro.obs.timeline.TimelineSampler` takes one unified
    ``MetricsRegistry.collect()`` pass (one-pass histogram summaries,
    SignalBus gauges, grid + kernel levels) every 30 simulated seconds.
    The honest budget test is a full experiment — the per-tick cost is
    dominated by walking real site tables and client fleets, not the
    registry loop.
    """
    from repro.experiments.configs import smoke_config
    from repro.experiments.runner import run_experiment

    config = smoke_config(duration_s=float(duration_s),
                          n_clients=max(int(n_clients), 1),
                          telemetry_enabled=tracing,
                          telemetry_interval_s=30.0)
    t0 = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - t0
    assert result.sim.events_executed > 0
    if tracing:
        assert result.sampler is not None
        assert result.sampler.samples_taken > 0
    return result.sim.events_executed / elapsed


def run_check_experiment(duration_s: int = 1800, n_clients: int = 24,
                         tracing: bool = False) -> float:
    """End-to-end smoke run, invariant checker off vs on; events/sec.

    ``tracing=True`` here means ``check_enabled=True``: the checker
    rides the run as periodic checkpoints over every site, client and
    decision point.  Like spans, its honest budget test is a full
    experiment — the checkpoint pass walks real running-job maps and
    dispatch-record views, not synthetic structures.
    """
    from repro.experiments.configs import smoke_config
    from repro.experiments.runner import run_experiment

    config = smoke_config(duration_s=float(duration_s),
                          n_clients=max(int(n_clients), 1),
                          check_enabled=tracing,
                          check_interval_s=30.0)
    t0 = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - t0
    assert result.sim.events_executed > 0
    if tracing:
        assert result.checker is not None
        assert result.checker.checks_run > 0
        assert result.checker.violations == []
    return result.sim.events_executed / elapsed


# -- harness -------------------------------------------------------------------

#: Rows that time a whole experiment (the rest are micro-loops).
FULL_SIM = ("spans", "check", "telemetry")


def _timed(fn, **kwargs) -> tuple[float, float]:
    """``(fn's rate, wall seconds of the whole call)``."""
    t0 = time.perf_counter()
    rate = fn(**kwargs)
    return rate, time.perf_counter() - t0


def measure_all(quick: bool = False, repeats: int | None = None) -> dict:
    """Measure every workload tracing-off vs tracing-on.

    Returns ``{workload: {disabled_per_s, enabled_per_s, overhead_pct}}``
    where the rates are events (or RPCs) per wall-clock second and
    ``overhead_pct`` is the enabled slowdown relative to disabled
    (negative values = noise, clamped at 0 in the pass check).  The
    full-experiment rows (``FULL_SIM``) also carry ``disabled_s`` /
    ``enabled_s``, the absolute wall seconds of the best run: events/s
    is not comparable across a change that deletes events, and a
    percentage is a share of a base run that such a change shortens —
    the seconds say what a plane costs regardless.
    Off/on runs are *interleaved* and the best of each taken, so slow
    drift (thermal, scheduler) cancels instead of biasing one side.
    """
    if repeats is None:
        repeats = 5
    sizes = {
        "callbacks": {"n": 20_000 if quick else 100_000},
        "processes": {"n_procs": 200 if quick else 1_000,
                      "yields": 50 if quick else 100},
        "rpc": {"n": 1_000 if quick else 5_000},
        "spans": {"duration_s": 600 if quick else 1800,
                  "n_clients": 8 if quick else 24,
                  "sample_every": 4},
        "check": {"duration_s": 600 if quick else 1800,
                  "n_clients": 8 if quick else 24},
        "telemetry": {"duration_s": 600 if quick else 1800,
                      "n_clients": 8 if quick else 24},
    }
    workloads = {
        "callbacks": run_callbacks,
        "processes": run_processes,
        "rpc": run_rpcs,
        "spans": run_spans_experiment,
        "check": run_check_experiment,
        "telemetry": run_telemetry_experiment,
    }
    out = {}
    for name, fn in workloads.items():
        # Warm both code paths (CPython's adaptive interpreter makes the
        # first traced run ~2x slower than steady state).
        warm = {k: max(v // 10, 1) for k, v in sizes[name].items()}
        fn(tracing=False, **warm)
        fn(tracing=True, **warm)
        disabled = enabled = 0.0
        disabled_s = enabled_s = float("inf")
        for _ in range(repeats):
            rate, wall = _timed(fn, tracing=False, **sizes[name])
            disabled, disabled_s = max(disabled, rate), min(disabled_s, wall)
            rate, wall = _timed(fn, tracing=True, **sizes[name])
            enabled, enabled_s = max(enabled, rate), min(enabled_s, wall)
        out[name] = {
            "disabled_per_s": disabled,
            "enabled_per_s": enabled,
            "overhead_pct": 100.0 * (disabled - enabled) / disabled,
        }
        if name in FULL_SIM:
            out[name].update(disabled_s=disabled_s, enabled_s=enabled_s)
        if "sample_every" in sizes[name]:
            # Pin the operating point in the JSON: the spans budget is
            # met *with* head sampling, not at full fidelity.
            out[name]["sample_every"] = sizes[name]["sample_every"]
    return out


# -- pytest wrappers (lenient bounds; exact numbers go to BENCH_kernel.json) --

def test_tracing_disabled_is_default():
    sim = Simulator()
    assert sim.trace.enabled is False
    assert len(sim.trace) == 0


def test_tracing_overhead_within_budget():
    results = measure_all(quick=True)
    # The <10% budget is enforced on the quiet benchmark box via
    # run_all.py; shared CI runners get slack for scheduler noise.
    for name, r in results.items():
        assert r["overhead_pct"] < 50.0, (name, r)


def test_disabled_tracer_records_nothing():
    sim = Simulator()
    done = []

    def proc():
        yield 1.0
        done.append(1)

    sim.process(proc())
    sim.run()
    # Tallies are always on; with nothing subscribed the ring stays empty.
    assert done and len(sim.trace) == 0 and sim.trace.emitted == 0
    assert sim.trace.count("process.start") == 1

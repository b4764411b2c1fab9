"""The ladder's rungs: each layer driven alone through its public API.

A rung times one layer with nothing else attached and reports µs (or
ms) per operation as the median of ``REPEATS`` repeats.  A PR that says
a layer got faster should move its rung *and* the end-to-end ``wall_s``
of the workload that leans on it (README, "what should move").
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from names import RUNG_UNITS

REPEATS = 5


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# -- sim.kernel ---------------------------------------------------------------
def kernel_callback():
    from repro.sim.kernel import Simulator
    n = 50_000
    sim = Simulator()

    def body():
        noop = lambda: None  # noqa: E731
        for i in range(n):
            sim.schedule(float(i % 977), noop)
        sim.run()
    seconds = _timed(body)
    assert sim.events_executed == n
    return seconds, n


def kernel_process_yield():
    from repro.sim.kernel import Simulator
    procs, yields = 500, 100
    sim = Simulator()

    def proc():
        for _ in range(yields):
            yield 1.0

    def body():
        for _ in range(procs):
            sim.process(proc())
        sim.run()
    return _timed(body), procs * yields


def kernel_timeout_cancel():
    """The RPC race: an event beats its timeout, the loser is cancelled."""
    from repro.sim.kernel import Simulator
    n = 15_000
    sim = Simulator()

    def racer():
        for _ in range(n):
            ev = sim.event()
            sim.schedule(0.01, ev.succeed)
            yield sim.any_of([ev, sim.timeout(15.0)])

    def body():
        sim.process(racer())
        sim.run()
    return _timed(body), n


# -- net.transport --------------------------------------------------------------
def transport_rpc():
    from repro.net.latency import ConstantLatency
    from repro.net.transport import Endpoint, Network
    from repro.sim.kernel import Simulator
    n = 10_000
    sim = Simulator()
    net = Network(sim, ConstantLatency(0.03))
    Endpoint(net, "client")
    Endpoint(net, "server").register_handler(
        "echo", lambda payload, src: payload)

    def caller():
        for _ in range(n):
            yield net.rpc("client", "server", "echo", None, timeout=15.0)

    def body():
        sim.process(caller())
        sim.run()
    seconds = _timed(body)
    assert net.stats.rpcs_completed == n
    return seconds, n


# -- grid.site --------------------------------------------------------------------
def _site_rung(site_cpus: int, n_jobs: int):
    from repro.grid.job import Job
    from repro.grid.site import Cluster, Site
    from repro.sim.kernel import Simulator
    sim = Simulator()
    site = Site(sim, "rung-site", [Cluster("rung-c0", site_cpus)])
    jobs = [Job(vo="vo0", group="g0", user="u0", cpus=1,
                duration_s=100.0 + (i % 7)) for i in range(n_jobs)]

    def body():
        for job in jobs:
            site.submit(job)
        sim.run()
    seconds = _timed(body)
    assert site.jobs_completed == n_jobs
    return seconds, n_jobs, site


def site_submit_shallow():
    """Every job starts on arrival (the queue is never used)."""
    seconds, n, site = _site_rung(site_cpus=10_000, n_jobs=10_000)
    assert site.vector_drains == 0
    return seconds, n


def site_submit_deep():
    """64 CPUs under 5000 jobs: every completion drains a deep queue."""
    seconds, n, site = _site_rung(site_cpus=64, n_jobs=5_000)
    assert site.vector_drains > 0
    return seconds, n


# -- core.state / core.selectors / core.engine ------------------------------------
def _capacities(n_sites: int) -> dict:
    return {f"site{i:04d}": 64 + (i % 9) * 16 for i in range(n_sites)}


def _records(n: int, n_sites: int, t0: float = 0.0):
    from repro.core.state import DispatchRecord
    return [DispatchRecord(origin="dp-peer", seq=i + 1,
                           site=f"site{(i * 7) % n_sites:04d}",
                           vo=f"vo{i % 10}", cpus=1 + i % 4, time=t0 + i * 0.1)
            for i in range(n)]


def state_apply_record():
    from repro.core.state import GridStateView
    n = 20_000
    view = GridStateView(_capacities(300))
    records = _records(n, 300)

    def body():
        for rec in records:
            view.apply_record(rec, now=rec.time)
    return _timed(body), n


def _loaded_engine(n_sites: int):
    from repro.core.engine import GruberEngine
    engine = GruberEngine("dp0", _capacities(n_sites))
    for rec in _records(2_000, n_sites):
        engine.view.apply_record(rec, now=rec.time)
    return engine


def _state_free_map(n_sites: int):
    view = _loaded_engine(n_sites).view
    n = 2_000

    def body():
        for _ in range(n):
            view.free_map(now=200.0)
    return _timed(body), n


def _selector_select(n_sites: int):
    from repro.core.selectors import LeastUsedSelector
    free = _loaded_engine(n_sites).view.free_map(now=200.0)
    selector = LeastUsedSelector(np.random.default_rng(7), spread=0.85)
    n = 200

    def body():
        for _ in range(n):
            selector.select(free, 2)
    return _timed(body), n


def _engine_availabilities(n_sites: int):
    engine = _loaded_engine(n_sites)
    n = 2_000

    def body():
        for _ in range(n):
            engine.availabilities(vo="vo3", now=200.0)
    return _timed(body), n


# -- core.sync ----------------------------------------------------------------------
def _sync_round(delta: bool):
    """One DP's exchange round on a 10-DP mesh: tick, deliver, merge."""
    from repro.core.broker import DIGruberDeployment
    from repro.grid.builder import GridBuilder
    from repro.net.container import GT3_PROFILE
    from repro.net.latency import ConstantLatency
    from repro.net.transport import Network
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry
    sim = Simulator()
    rng = RngRegistry(11)
    grid = GridBuilder(sim, rng.stream("grid")).build(
        n_sites=300, total_cpus=40_000)
    net = Network(sim, ConstantLatency(0.03))
    deployment = DIGruberDeployment(
        sim=sim, network=net, grid=grid, profile=GT3_PROFILE, rng=rng,
        n_decision_points=10, sync_delta=delta)
    dps = list(deployment.decision_points.values())
    sites = list(grid.sites)
    rounds, per_round = 5, 30
    spent = 0.0
    for r in range(rounds):
        now = sim.now
        for d, dp in enumerate(dps):
            for k in range(per_round):
                dp.engine.record_local_dispatch(
                    site=sites[(r * 31 + d * 7 + k) % len(sites)],
                    vo=f"vo{k % 10}", cpus=1, now=now)

        def exchange():
            for dp in dps:
                dp.sync.tick()
            sim.run(until=now + 180.0)
        spent += _timed(exchange)
    assert all(dp.sync.records_adopted > 0 for dp in dps)
    return spent, rounds * len(dps)


# -- workloads.generator ------------------------------------------------------------
def generator_job():
    from repro.grid.builder import GridBuilder
    from repro.sim.kernel import Simulator
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.models import JobModel
    grid = GridBuilder(Simulator(), np.random.default_rng(3)).build(
        n_sites=10, total_cpus=1_000)
    generator = WorkloadGenerator(grid.vos, JobModel(),
                                  np.random.default_rng(5))
    count = 0

    def body():
        nonlocal count
        for h in range(10):
            workload = generator.host_workload(f"host{h}", duration_s=3600.0)
            for i in range(len(workload)):
                workload.job_at(i)
            count += len(workload)
    return _timed(body), count


# -- opt-in planes ------------------------------------------------------------------
def _planes_experiment():
    """A short gt3-3dp with every plane attached, run 600 simulated s."""
    from repro.experiments.configs import canonical_gt3
    from repro.experiments.runner import build_experiment
    built = build_experiment(canonical_gt3(
        3, duration_s=600.0, spans_enabled=True, spans_sample=4,
        check_enabled=True, telemetry_enabled=True))
    built.sim.run(until=600.0)
    return built


def _plane_rung(call, n: int):
    def body():
        for _ in range(n):
            call()
    return _timed(body), n


def _rungs() -> dict:
    """name -> factory of one repeat returning (seconds, operations)."""
    shared = []

    def planes():
        if not shared:
            shared.append(_planes_experiment())
        return shared[0]

    def snapshot():
        from repro.sim.snapshot import snapshot_experiment
        return snapshot_experiment(planes())
    rungs = {
        "sim.kernel.callback_us": kernel_callback,
        "sim.kernel.process_yield_us": kernel_process_yield,
        "sim.kernel.timeout_cancel_us": kernel_timeout_cancel,
        "net.transport.rpc_us": transport_rpc,
        "grid.site.submit_shallow_us": site_submit_shallow,
        "grid.site.submit_deep_us": site_submit_deep,
        "core.state.apply_record_us": state_apply_record,
        "core.state.free_map_us.300": lambda: _state_free_map(300),
        "core.state.free_map_us.3000": lambda: _state_free_map(3000),
        "core.selectors.select_us.300": lambda: _selector_select(300),
        "core.selectors.select_us.3000": lambda: _selector_select(3000),
        "core.engine.availabilities_us.300":
            lambda: _engine_availabilities(300),
        "core.engine.availabilities_us.3000":
            lambda: _engine_availabilities(3000),
        "core.sync.round_us.flood": lambda: _sync_round(False),
        "core.sync.round_us.delta": lambda: _sync_round(True),
        "workloads.generator.job_us": generator_job,
        "check.invariants.pass_ms":
            lambda: _plane_rung(planes().checker.check, 5),
        "obs.timeline.sample_ms":
            lambda: _plane_rung(planes().sampler.tick, 20),
        "sim.snapshot.capture_ms": lambda: _plane_rung(snapshot, 3),
    }
    assert rungs.keys() == RUNG_UNITS.keys()
    return rungs


def run_rungs(only: str = "") -> dict:
    """``{name: {value, unit, min, max, n}}`` for every (or one) rung."""
    rungs = _rungs()
    if only:
        if only not in rungs:
            raise SystemExit(f"unknown rung {only!r}; expected one of "
                             f"{sorted(rungs)}")
        rungs = {only: rungs[only]}
    out = {}
    for name, repeat in rungs.items():
        unit = RUNG_UNITS[name]
        scale = 1e6 if unit == "us" else 1e3
        repeat()  # warm: imports, allocator, shared planes experiment
        values = []
        for _ in range(REPEATS):
            seconds, ops = repeat()
            values.append(seconds / ops * scale)
        out[name] = {"value": statistics.median(values), "unit": unit,
                     "min": min(values), "max": max(values), "n": REPEATS}
    return out

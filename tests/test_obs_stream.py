"""One call per model event: a kind's tally, its ring rows and its JSONL
rows move together, one event at a time, and the journal subscriber
writes the bytes the digests were pinned with."""

import json
import zlib
from collections import defaultdict

import pytest

from repro.check.digest import EventJournal, install_probes
from repro.control import AutoscaleConfig
from repro.experiments.configs import chaos_smoke_config
from repro.experiments.runner import build_experiment, finalize_experiment
from repro.faults.netem import LinkFault

#: Every kind the one run below reaches (``rpc.<outcome>`` and
#: ``faults.apply.<kind>`` by the outcomes and faults that occur).
KINDS = (
    "breaker.closed", "breaker.half_open", "breaker.open",
    "check.violation",
    "client.attempt_failures", "client.breaker_fastfail",
    "client.failover", "client.rebind", "client.resilient_fallbacks",
    "client.retries",
    "container.shed",
    "control.scale_down", "control.scale_up",
    "dp.crash", "dp.restart", "dp.resync", "dp.resync_failures",
    "dp.retire",
    "engine.adopt", "engine.dispatch", "engine.refresh",
    "failover.dp_recovered", "failover.dp_unhealthy",
    "failover.probe_failures",
    "fault.delay", "fault.drop", "fault.dup",
    "faults.apply.dp.crash", "faults.apply.dp.restart",
    "kernel.periodic_errors", "kernel.unhandled_failures",
    "process.fail", "process.finish", "process.start",
    "rpc.error", "rpc.ok", "rpc.timeout",
    "sync.recv", "sync.round",
    "topology.join", "topology.leave",
)

#: ``(entries, CRC32 of "time|detail" lines)`` per journaled kind for
#: the run below: the bytes the golden digests were recorded with, so a
#: subscriber that formats an entry differently fails here by kind.
JOURNAL_PINS = {
    "rec.local": (2108, 0x0D847A8F),
    "rec.adopt": (35, 0x7ABCB436),
    "ctl.scale": (3, 0x06A9617F),
}
#: The whole journal (site probes included): 4,312 entries.
JOURNAL_DIGEST = 0x4BCDDE9D


def stream_config(**kw):
    """dp_crash_restart chaos, the resilient client and autoscale on 3
    decision points, checked (not strictly) for 900 s."""
    return chaos_smoke_config(
        "dp_crash_restart", decision_points=3, n_clients=40,
        duration_s=900.0, check_enabled=True,
        autoscale=AutoscaleConfig(interval_s=30.0, cooldown_s=60.0,
                                  max_dps=6), **kw)


def seed_every_kind(built) -> None:
    """Schedule the perturbations that reach the kinds a healthy run
    does not: link faults, shedding, open breakers, a checker
    violation, a raising timer and a process that dies unwatched."""
    sim, faults = built.sim, built.network.faults
    dp2 = built.deployment.decision_points["dp2"]
    client = built.clients[0]

    sim.schedule_at(100.0, lambda: faults.set_node("dp1", LinkFault(
        loss=0.2, dup_rate=0.2, extra_delay_s=0.05)))
    sim.schedule_at(130.0, lambda: faults.restore_node("dp1"))

    def shed(bound):
        dp2.container.max_queue = bound
    sim.schedule_at(150.0, lambda: shed(0))
    sim.schedule_at(170.0, lambda: shed(50))

    def open_breakers():
        for dp_id in built.deployment.decision_points:
            breaker = client._breaker(dp_id)
            while breaker.state != "open":
                breaker.on_failure()
    sim.schedule_at(250.0, open_breakers)

    sim.schedule_at(350.0, lambda: built.checker._flag(
        "seeded.rule", "site0", "seeded violation"))

    def raise_once():
        tick.cancel()
        raise RuntimeError("seeded timer error")
    tick = sim.every(400.0, raise_once, on_error="record", name="seeded")

    def die():
        yield 1.0
        raise RuntimeError("seeded process death")
    sim.schedule_at(450.0, lambda: sim.process(die(), name="seeded"))


def journal_pins(journal) -> dict:
    pins = {}
    for kind in JOURNAL_PINS:
        lines = [f"{e.time!r}|{e.detail}" for e in journal.entries
                 if e.kind == kind]
        pins[kind] = (len(lines), zlib.crc32("\n".join(lines).encode()))
    return pins


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    path = tmp_path_factory.mktemp("stream") / "trace.jsonl"
    built = build_experiment(stream_config(trace_enabled=True,
                                           trace_path=str(path)))
    journal = EventJournal()
    install_probes(journal, deployment=built.deployment,
                   sites=built.grid.sites.values())
    tally = built.sim.metrics.counter_value
    seen = defaultdict(list)  # kind -> its tally as each event arrives
    built.sim.trace.subscribe(lambda ev: seen[ev.kind].append(tally(ev.kind)))
    seed_every_kind(built)
    built.sim.run(until=built.config.duration_s)
    result = finalize_experiment(built)
    rows = defaultdict(int)
    for line in path.read_text().splitlines():
        rows[json.loads(line)["kind"]] += 1
    return result, seen, rows, journal


@pytest.mark.parametrize("kind", KINDS)
def test_each_event_is_one_call(stream, kind):
    result, seen, rows, _ = stream
    trace = result.sim.trace
    n = trace.count(kind)
    assert n >= 1, f"the run never reached {kind}"
    # Event by event: the tally moved by exactly one, and the subscriber
    # saw the event once (it subscribed after the build, whose events
    # the runner's ring and JSONL sink saw).
    assert seen[kind] == list(range(n - len(seen[kind]) + 1, n + 1))
    assert trace.evicted == 0
    assert len(trace.events(kind)) == n
    assert rows[kind] == n


def test_journaled_kinds_keep_their_bytes(stream):
    _, _, _, journal = stream
    assert journal_pins(journal) == JOURNAL_PINS
    assert journal.digest == JOURNAL_DIGEST


def test_kinds_cover_the_stream(stream):
    """The parametrization above is every kind the run emitted."""
    _, _, rows, _ = stream
    assert sorted(rows) == sorted(KINDS)


def test_mid_run_decision_point_journals_without_propagation():
    """A decision point that joins mid-run journals its dispatches: the
    journal subscribes to the stream, not to the engines it saw at
    install time."""
    built = build_experiment(stream_config(chaos_scenario=""))
    journal = EventJournal()
    install_probes(journal, deployment=built.deployment,
                   sites=built.grid.sites.values())
    built.sim.run(until=60.0)
    dp = built.deployment.add_decision_point()
    site = built.grid.site_names[0]
    rec = dp.engine.record_local_dispatch(site=site, vo="vo0", cpus=2,
                                          now=built.sim.now)
    last = journal.entries[-1]
    assert (last.time, last.kind, last.detail) == (
        60.0, "rec.local", f"{dp.node_id}|{site}|vo0|cpus=2|seq={rec.seq}")

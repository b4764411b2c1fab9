"""Integration tests for the elastic brokering plane (repro.control)."""

import pytest

from repro.check.differ import run_pair
from repro.check.digest import EventJournal, install_probes
from repro.control import AutoscaleConfig
from repro.experiments.configs import smoke_config
from repro.experiments.runner import build_experiment, run_built, run_experiment


def _autoscaled(n_clients=40, duration_s=600.0, dps=1, **cfg_kw):
    kw = dict(interval_s=30.0, cooldown_s=60.0, max_dps=6)
    kw.update(cfg_kw)
    return smoke_config(
        decision_points=dps, n_clients=n_clients, duration_s=duration_s,
        n_sites=30, total_cpus=1500,
        autoscale=AutoscaleConfig(**kw),
        check_enabled=True, check_strict=True)


def _run_membership(config):
    """Run ``config`` -> (result, its ``topology.*`` events in order)."""
    built = build_experiment(config)
    events = []
    built.sim.trace.subscribe(
        lambda ev: events.append(ev) if ev.kind.startswith("topology.")
        else None)
    return run_built(built), events


def _run_journaled(config, journal):
    built = build_experiment(config)
    install_probes(journal, deployment=built.deployment,
                   sites=built.grid.sites.values())
    return run_built(built)


def test_autoscale_grows_under_load():
    """40 clients against GT3 capacity need 2 DPs (model rule), and the
    planner gets there from 1 under the strict invariant checker."""
    result = run_experiment(_autoscaled())
    stats = result.control_stats()
    assert stats["scale_ups"] >= 1
    assert stats["final_dps"] == 2
    assert result.planner.converged_dps() == 2
    assert stats["clients_moved"] > 0
    # The run summary carries the control line.
    assert "autoscale[model/consistent_hash]" in result.summary()


def test_autoscale_sheds_idle_capacity():
    """A tiny fleet on an oversized deployment drains down to 1 DP."""
    result = run_experiment(_autoscaled(
        n_clients=6, dps=4, down_consecutive=2, cooldown_s=30.0))
    stats = result.control_stats()
    assert stats["scale_downs"] >= 1
    assert stats["final_dps"] < 4
    deployment = result.deployment
    # Retired DPs are offline, unwired, and counted separately.
    assert deployment.retired
    for dp_id in deployment.retired:
        dp = deployment.decision_points[dp_id]
        assert not dp.online
        assert dp.retirements == 1
        assert dp.crashes == 0
    # No client is left bound to a retired decision point.
    live = set(deployment.live_dp_ids)
    for client in deployment.clients:
        assert str(client.decision_point) in live


@pytest.mark.parametrize("policy", ["model", "reactive"])
def test_planner_stops_at_max_dps(policy):
    """120 clients want more decision points than the cap allows: the
    fleet grows to ``max_dps`` and no further."""
    result = run_experiment(_autoscaled(n_clients=120, max_dps=2,
                                        policy=policy))
    planner = result.planner
    assert result.control_stats()["scale_ups"] >= 1
    assert max(n for _, n in planner.timeline) == 2
    assert len(result.deployment.decision_points) == 2


def test_planner_cooldown_spaces_actions():
    """One DP at a time under heavy load: actions keep coming, but never
    closer together than the cooldown."""
    result = run_experiment(_autoscaled(
        n_clients=120, max_step_up=1, up_consecutive=1, cooldown_s=90.0))
    times = [a.time for a in result.planner.actuator.actions]
    assert len(times) >= 2
    assert all(b - a >= 90.0 for a, b in zip(times, times[1:]))


def test_scale_down_then_up_revives_retired_dp():
    """Scale-up prefers reviving a retired DP over deploying a new one."""
    result, events = _run_membership(_autoscaled(
        n_clients=6, dps=3, down_consecutive=2, cooldown_s=30.0))
    planner = result.planner
    assert planner.actuator.actions  # it did shed
    n_before = len(result.deployment.decision_points)
    action = planner.actuator.scale_up(1)
    assert action.kind == "scale_up"
    # Revived, not created: the dp dict did not grow.
    assert len(result.deployment.decision_points) == n_before
    revives = [e for e in events
               if e.kind == "topology.join" and e.detail["revived"]]
    assert revives and revives[-1].detail["source"] == "autoscale"


def test_topology_events_are_structured_and_sourced():
    result, events = _run_membership(_autoscaled())
    assert events, "expected at least one scale-up join"
    for e in events:
        assert e.kind in ("topology.join", "topology.leave")
        assert e.detail["source"] == "autoscale"
        assert e.detail["n_live"] >= 1
    # The tally counts what the subscriber saw.
    joins = sum(1 for e in events if e.kind == "topology.join")
    assert result.sim.metrics.counter_value("topology.join") == joins


def test_gauges_published_per_dp():
    result = run_experiment(_autoscaled())
    metrics = result.sim.metrics
    snap = metrics.snapshot()
    gauges = snap["gauges"]
    assert "control.n_dps" in gauges
    assert gauges["control.n_dps"] == len(result.deployment.live_dp_ids)
    for dp_id in result.deployment.live_dp_ids:
        assert f"dp.queue_depth.{dp_id}" in gauges
        assert f"dp.clients.{dp_id}" in gauges
    # Client-assignment gauges sum to the fleet size.
    total = sum(v for k, v in gauges.items() if k.startswith("dp.clients."))
    assert total == len(result.deployment.clients)


def test_control_actions_are_journaled():
    """Planner actions land as ctl.scale entries in the event journal."""
    journal = EventJournal()
    result = _run_journaled(_autoscaled(duration_s=400.0), journal)
    ctl = [e for e in journal.entries if e.kind == "ctl.scale"]
    assert len(ctl) == len(result.planner.actuator.actions)
    assert any("scale_up|1->2" in e.detail for e in ctl)


def test_traced_scale_actions_complete_their_tick():
    """A traced run scales exactly like an untraced one: every action
    is one ``control.<kind>`` row and no planner tick raises."""
    def run(trace):
        return run_experiment(smoke_config(
            n_clients=40, duration_s=600.0, n_sites=30, total_cpus=1500,
            autoscale=AutoscaleConfig(), trace_enabled=trace))

    plain, traced = run(False), run(True)
    assert traced.planner.timeline == plain.planner.timeline
    assert traced.dropped_sync_chains() == 0
    actions = traced.planner.actuator.actions
    assert actions
    assert len([e for e in traced.sim.trace.events()
                if e.kind.startswith("control.")]) == len(actions)
    assert traced.sim.trace.count("kernel.periodic_errors") == 0


def test_same_seed_runs_are_journal_identical():
    digests = []
    for _ in range(2):
        journal = EventJournal()
        _run_journaled(_autoscaled(duration_s=400.0), journal)
        digests.append((len(journal), journal.digest))
    assert digests[0] == digests[1]


def test_frozen_pair_is_event_identical():
    report = run_pair("autoscale-frozen", duration_s=120.0)
    assert report.identical, report.describe()


#: ``dp_crash`` takes the first decision point down for good at T/3.
CRASHED_DP = "dp0"


def _crashed(**kw):
    """3 DPs, 60 clients, dp0 crashes at t=200 s and never returns."""
    kw.setdefault("chaos_scenario", "dp_crash")
    return smoke_config(
        decision_points=3, n_clients=60, duration_s=600.0,
        n_sites=30, total_cpus=1500, **kw)


def test_autoscale_evacuates_crashed_dp():
    """Crash recovery is scale-up's placement step: its forced moves
    take every client off the dead broker, and the grown fleet handles
    more placements than the same crash with no controller."""
    static = run_experiment(_crashed())
    scaled = run_experiment(_crashed(autoscale=AutoscaleConfig(
        interval_s=30.0, cooldown_s=60.0, max_dps=6)))
    assert not scaled.deployment.dp(CRASHED_DP).online
    assert scaled.control_stats()["scale_ups"] >= 1
    assert scaled.deployment.clients_of(CRASHED_DP) == []
    assert scaled.n_requests("handled") > static.n_requests("handled")


def test_frozen_planner_leaves_crashed_dp_clients_bound():
    """A crash is not surfaced to the planner: with no scale action, the
    dead broker's clients stay bound and degrade through the paper's
    timeout → random fallback."""
    result, events = _run_membership(_crashed(autoscale=AutoscaleConfig(
        policy="frozen", interval_s=30.0)))
    orphans = result.deployment.clients_of(CRASHED_DP)
    assert orphans
    assert all(c.n_fallback_timeout > 0 for c in orphans)
    assert events == []
    assert result.planner.actuator.actions == []


def test_autoscaled_chaos_records_only_autoscale_topology_events():
    """Crash and restart are not membership events; every join/leave of
    an autoscaled chaos run is the actuator's own."""
    for scenario in ("dp_crash", "dp_crash_restart"):
        _, events = _run_membership(_crashed(
            chaos_scenario=scenario, autoscale=AutoscaleConfig(
                interval_s=30.0, cooldown_s=60.0, max_dps=6)))
        assert events, scenario
        assert {e.detail["source"] for e in events} == {"autoscale"}, \
            scenario


def test_workload_profiles_shape_arrivals():
    from repro.workloads import arrival_profile
    from repro.workloads.generator import WorkloadGenerator
    from repro.grid.builder import GridBuilder
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry

    sim = Simulator()
    rng = RngRegistry(7)
    grid = GridBuilder(sim, rng.stream("grid")).build(
        n_sites=4, total_cpus=200, n_vos=2, groups_per_vo=2,
        users_per_group=1, name="profiles")
    gen = WorkloadGenerator(grid.vos, __import__(
        "repro.workloads.models", fromlist=["JobModel"]).JobModel(),
        rng.stream("wl"))
    duration = 2000.0
    steady = gen.host_workload("h", duration_s=duration)
    diurnal = gen.host_workload("h", duration_s=duration,
                                profile=arrival_profile("diurnal"))
    bursty = gen.host_workload("h", duration_s=duration,
                               profile=arrival_profile("bursty"))
    # Diurnal thins the trough (mid-run): second quarter vs first.
    q = duration / 4
    first = ((diurnal.arrivals >= 0) & (diurnal.arrivals < q)).sum()
    trough = ((diurnal.arrivals >= q) &
              (diurnal.arrivals < 2 * q)).sum()
    assert trough < first
    assert len(diurnal) < len(steady)
    # Bursty keeps the dense rate inside burst windows: overall volume
    # exceeds steady's one-per-second baseline.
    assert len(bursty) > len(steady)


def test_autoscale_config_validation():
    with pytest.raises(ValueError):
        AutoscaleConfig(policy="nope")
    with pytest.raises(ValueError):
        AutoscaleConfig(placement="nope")
    with pytest.raises(ValueError):
        AutoscaleConfig(min_dps=5, max_dps=2)
    with pytest.raises(ValueError):
        smoke_config(workload_profile="nope")
    with pytest.raises(ValueError):
        smoke_config(autoscale="yes")

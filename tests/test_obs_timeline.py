"""Unit + integration tests for the telemetry timeline (repro.obs.timeline).

The tentpole claims under test:

* one unified sampling path — the sampler's rows come from
  ``MetricsRegistry.collect()``, the same registry the control plane
  publishes into, so control and telemetry can never disagree;
* bounded in-memory series + JSONL export through the one sink;
* telemetry-on is event-identical to telemetry-off (the ``observers``
  differ pair, exercised here at test duration);
* sharded runs merge per-hood rows into one grid-wide timeline
  in the same row schema, invariant in the shard count and mode.
"""

import json

import pytest

from repro.experiments.configs import smoke_config
from repro.experiments.runner import build_experiment, run_experiment
from repro.obs.timeline import (
    TIMELINE_CAPACITY,
    TimelineSampler,
    load_timeline,
    merge_hood_timelines,
)


def _run_with_telemetry(tmp_path=None, **overrides):
    kw = dict(duration_s=300.0, n_clients=4, telemetry_enabled=True,
              telemetry_interval_s=30.0)
    if tmp_path is not None:
        kw["telemetry_path"] = str(tmp_path / "timeline.jsonl")
    kw.update(overrides)
    return run_experiment(smoke_config(**kw))


class TestSamplerRows:
    def test_periodic_rows_on_the_des_clock(self):
        result = _run_with_telemetry()
        sampler = result.sampler
        assert sampler is not None
        rows = list(sampler.rows)
        # every 30s over 300s, plus the final close() sample.
        assert sampler.samples_taken >= 10
        times = [r["t"] for r in rows]
        assert times == sorted(times)
        assert 30.0 in times and 300.0 == times[-1]

    def test_rows_are_unified_collect_documents(self):
        result = _run_with_telemetry()
        row = result.sampler.tail(1)[0]
        assert set(row) == {"t", "counters", "gauges", "histograms"}
        # Grid + kernel gauges published by the sampler itself...
        assert row["gauges"]["grid.total_cpus"] > 0
        assert 0.0 <= row["gauges"]["grid.util"] <= 1.0
        assert row["gauges"]["kernel.heap_len"] >= 0
        # ...alongside per-DP gauges from the SignalBus publish path.
        assert any(k.startswith("dp.queue_depth.") for k in row["gauges"])
        # Histogram percentiles via the one-pass summary.
        assert all({"count", "p50", "p95", "max"} <= set(s)
                   for s in row["histograms"].values())

    def test_series_is_bounded(self):
        built = build_experiment(smoke_config(duration_s=300.0, n_clients=4))
        sampler = TimelineSampler(built.sim, interval_s=30.0, capacity=3,
                                  grid=built.grid)
        sampler.start()
        built.sim.run(until=300.0)
        assert len(sampler.rows) == 3
        assert sampler.samples_taken > 3  # older rows evicted, not lost
        assert _run_with_telemetry().sampler.rows.maxlen == TIMELINE_CAPACITY

    def test_sampler_off_by_default(self):
        result = run_experiment(smoke_config(duration_s=60.0, n_clients=2))
        assert result.sampler is None


class TestJsonlExport:
    def test_file_has_meta_header_then_rows(self, tmp_path):
        result = _run_with_telemetry(tmp_path)
        path = result.config.telemetry_path
        meta, rows = load_timeline(path)
        assert meta["interval_s"] == 30.0
        assert meta["name"] == "smoke" and meta["seed"] == result.config.seed
        assert len(rows) == result.sampler.samples_taken
        assert rows[0]["t"] == 30.0

    def test_load_timeline_tolerant_skips_garbage(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"meta": {"interval_s": 5.0}}\n'
                     '{"t": 5.0, "gauges": {}}\n'
                     'not json at all\n'
                     '42\n'  # valid JSON, not an object: was a TypeError
                     '{"t": 10.0, "gauges": {}}\n'
                     '{"t": 15.0, "gaug')  # truncated mid-write
        meta, rows = load_timeline(str(p))
        assert meta == {"interval_s": 5.0}
        assert [r["t"] for r in rows] == [5.0, 10.0]

    def test_load_timeline_strict_raises_with_lineno(self, tmp_path):
        p = tmp_path / "t.jsonl"
        for bad in ("broken", "42"):
            p.write_text('{"t": 5.0}\n' + bad + '\n')
            with pytest.raises(ValueError, match=r"t\.jsonl:2"):
                load_timeline(str(p), tolerant=False)

    def test_file_is_tailable_while_the_run_is_live(self, tmp_path):
        # The sink flushes per row: every row sampled so far is on disk
        # before the run ends (what ``digruber top --follow`` relies on).
        path = tmp_path / "timeline.jsonl"
        built = build_experiment(smoke_config(
            duration_s=300.0, n_clients=4, telemetry_path=str(path)))
        built.sim.run(until=100.0)
        meta, rows = load_timeline(str(path), tolerant=False)
        assert meta["interval_s"] == 30.0
        assert [r["t"] for r in rows] == [30.0, 60.0, 90.0]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        meta, rows = load_timeline(str(p))
        assert meta == {} and rows == []


class TestEventIdentity:
    def test_telemetry_pair_identical(self):
        from repro.check import run_pair
        report = run_pair("observers", duration_s=120.0)
        assert report.identical, report.describe()
        assert len(report.journal_a) > 50
        assert report.journal_a.digest == report.journal_b.digest


class TestSignalBusDedup:
    """Satellite: SignalBus publishes through the registry — gauges are
    computed once per control tick, and the unification did not move a
    single autoscale decision (same-seed journal equality is covered by
    the ``observers`` pair above; here we pin the decision trail)."""

    def _autoscaled(self, telemetry: bool):
        from repro.control import AutoscaleConfig
        config = smoke_config(
            duration_s=900.0, n_clients=16,
            autoscale=AutoscaleConfig(policy="model",
                                      placement="consistent_hash",
                                      interval_s=60.0, cooldown_s=120.0),
            telemetry_enabled=telemetry,
            name="dedup-regression")
        return run_experiment(config)

    def test_autoscale_decisions_unchanged_by_telemetry(self):
        off = self._autoscaled(telemetry=False)
        on = self._autoscaled(telemetry=True)
        assert off.control_stats() == on.control_stats()
        # The full decision trail, not just tallies: every action at
        # the same instant with the same detail, fleet size identical
        # at every control tick.
        assert off.planner.timeline == on.planner.timeline
        assert ([x.detail() for x in off.planner.actuator.actions]
                == [x.detail() for x in on.planner.actuator.actions])

    def test_planner_gauges_visible_in_sampler_rows(self):
        from repro.control import AutoscaleConfig
        config = smoke_config(
            duration_s=600.0, n_clients=16,
            autoscale=AutoscaleConfig(policy="model",
                                      placement="consistent_hash",
                                      interval_s=60.0, cooldown_s=120.0),
            telemetry_enabled=True)
        result = run_experiment(config)
        row = result.sampler.tail(1)[0]
        # The sampler did not sample the planner's bus itself — it read
        # the gauges the planner's own tick published.
        assert "control.n_dps" in row["gauges"]
        assert row["gauges"]["control.n_dps"] >= 1

    def test_sampler_does_not_own_planner_bus(self):
        from repro.control import AutoscaleConfig
        config = smoke_config(
            duration_s=60.0, n_clients=4,
            autoscale=AutoscaleConfig(policy="model",
                                      placement="consistent_hash",
                                      interval_s=60.0, cooldown_s=120.0),
            telemetry_enabled=True)
        built = build_experiment(config)
        assert built.sampler._owns_bus is False
        assert built.sampler.bus is built.planner.bus


class TestShardedTimeline:
    def _sharded(self, shards: int, path, mode="lockstep"):
        from repro.sim.sharded import run_sharded
        config = smoke_config(duration_s=300.0, n_clients=8,
                              decision_points=4, sync_interval_s=30.0,
                              telemetry_enabled=True,
                              telemetry_path=str(path))
        return run_sharded(config, n_shards=shards, mode=mode)

    def test_shard_count_invariance(self, tmp_path):
        paths = [tmp_path / f"s{i}.jsonl" for i in range(4)]
        runs = [self._sharded(1, paths[0]), self._sharded(2, paths[1]),
                self._sharded(4, paths[2]),
                self._sharded(2, paths[3], mode="workers")]
        assert len(runs[0].timeline) > 0
        for run, path in zip(runs[1:], paths[1:]):
            assert run.timeline == runs[0].timeline
            assert path.read_bytes() == paths[0].read_bytes()

    def test_rows_sorted_by_barrier_then_hood(self, tmp_path):
        path = tmp_path / "s2.jsonl"
        r = self._sharded(2, path)
        times = [row["t"] for row in r.timeline]
        # One registry-schema row per telemetry interval, plus end of run.
        assert times == [30.0 * i for i in range(1, 11)]
        for row in r.timeline:
            assert set(row) == {"t", "counters", "gauges", "histograms"}
            online = [k for k in row["gauges"] if k.startswith("dp.online.")]
            assert online == [f"dp.online.dp{h}" for h in range(4)]
        meta, rows = load_timeline(str(path), tolerant=False)
        assert rows == r.timeline
        assert meta["interval_s"] == 30.0 and meta["decision_points"] == 4

    def test_totals_are_sums_over_hoods(self, tmp_path):
        r = self._sharded(2, tmp_path / "s2.jsonl")
        gauges = r.timeline[-1]["gauges"]
        assert gauges["grid.total_cpus"] == 600  # smoke_config's grid
        assert gauges["control.n_dps"] == 4
        assert gauges["grid.util"] == pytest.approx(
            gauges["grid.busy_cpus"] / gauges["grid.total_cpus"])
        assert sum(gauges[f"dp.clients.dp{h}"] for h in range(4)) == 8

    def test_top_renders_sharded_timeline_with_per_dp_rows(self, tmp_path):
        import io
        from repro.obs import top
        path = tmp_path / "s2.jsonl"
        self._sharded(2, path)
        out = io.StringIO()
        assert top.replay(str(path), once=True, out=out) == 1
        text = out.getvalue()
        assert "smoke seed=" in text and "t=300s (100%)" in text
        for h in range(4):
            assert f"dp{h}      up" in text

    def test_merge_helper_orders_and_flattens(self):
        def hood(t, h, busy):
            return {"t": t, "counters": {}, "histograms": {}, "gauges": {
                f"dp.online.dp{h}": 1.0, "grid.busy_cpus": busy,
                "grid.total_cpus": 10, "control.client_backlog": h}}
        merged = merge_hood_timelines({
            1: [hood(30.0, 1, 2), hood(60.0, 1, 4)],
            0: [hood(30.0, 0, 1), hood(60.0, 0, 3)],
        })
        assert [r["t"] for r in merged] == [30.0, 60.0]
        g = merged[1]["gauges"]
        assert list(g) == sorted(g)
        assert g["grid.busy_cpus"] == 7 and g["grid.total_cpus"] == 20
        assert g["grid.util"] == 0.35 and g["control.n_dps"] == 2.0
        assert g["control.client_backlog"] == 1
        assert g["dp.online.dp0"] == g["dp.online.dp1"] == 1.0

"""Tests for the ``digruber top`` dashboard (repro.obs.top).

Covers the one frame pipeline over registry-schema rows, the autoscale
event detector, replay over files, and the reader's tail mode — its
partial-line buffering is the property that makes live ``--follow``
safe against a writer caught mid-row.
"""

import io
import json

from repro.obs.jsonl import read_jsonl
from repro.obs.top import (
    _autoscale_events,
    follow,
    frames_from_rows,
    render_frame,
    replay,
)


def _registry_row(t, util=0.5, n_dps=2, queue0=3):
    return {
        "t": t,
        "counters": {},
        "gauges": {
            "grid.busy_cpus": 300, "grid.total_cpus": 600,
            "grid.util": util, "grid.queued_jobs": 7,
            "grid.jobs_completed": 120,
            "control.n_dps": n_dps, "control.client_backlog": 2,
            "control.sync_lag_s": 12.5,
            "kernel.event_rate": 5000.0, "kernel.heap_len": 40,
            "kernel.heap_dead_ratio": 0.1,
            "dp.queue_depth.dp0": queue0, "dp.queue_depth.dp1": 1,
            "dp.online.dp0": 1.0, "dp.online.dp1": 1.0,
            "dp.in_service.dp0": 2, "dp.clients.dp0": 4,
            "dp.ops_rate.dp0": 1.5,
        },
        "histograms": {
            "dp.decide_s.dp0": {"count": 10, "sum": 1.0, "p50": 0.08,
                                "p95": 0.3, "max": 0.5},
        },
    }


class TestFrameNormalization:
    def test_registry_row_maps_one_to_one(self):
        (f,) = frames_from_rows([_registry_row(30.0)])
        assert f["t"] == 30.0 and f["util"] == 0.5
        assert set(f["dps"]) == {"dp0", "dp1"}
        assert f["dps"]["dp0"]["queue_depth"] == 3
        assert f["dps"]["dp0"]["decide_p95_s"] == 0.3
        assert f["n_dps"] == 2 and f["sync_lag_s"] == 12.5

    def test_empty(self):
        assert frames_from_rows([]) == []


class TestRendering:
    def test_frame_contains_table_and_sparkline(self):
        frames = frames_from_rows([_registry_row(30.0, util=0.2),
                                   _registry_row(60.0, util=0.9)])
        text = render_frame(frames[-1], {"name": "x", "seed": 42,
                                         "duration_s": 120.0},
                            frames, events=["t=60s scale-up: 1 -> 2 DPs"])
        assert "digruber top — x seed=42" in text
        assert "t=60s (50%)" in text
        assert "util  90.0%" in text
        assert "dp0" in text and "dp1" in text
        assert "scale-up" in text

    def test_autoscale_event_detection(self):
        frames = frames_from_rows([
            _registry_row(30.0, n_dps=1), _registry_row(60.0, n_dps=3),
            _registry_row(90.0, n_dps=2)])
        events = _autoscale_events(frames)
        assert "t=60s scale-up: 1 -> 3 DPs" in events
        assert "t=90s scale-down: 3 -> 2 DPs" in events

    def test_dp_down_event(self):
        a = _registry_row(30.0)
        b = _registry_row(60.0)
        b["gauges"]["dp.online.dp1"] = 0.0
        events = _autoscale_events(frames_from_rows([a, b]))
        assert any("dp1 went DOWN" in e for e in events)


def _write_timeline(path, rows, meta=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(
            {"meta": meta or {"interval_s": 30.0, "name": "t",
                              "seed": 1, "duration_s": 90.0}}) + "\n")
        for r in rows:
            fh.write(json.dumps(r) + "\n")


class TestReplay:
    def test_replay_renders_every_frame(self, tmp_path):
        p = tmp_path / "t.jsonl"
        _write_timeline(str(p), [_registry_row(t) for t in (30.0, 60.0,
                                                            90.0)])
        out = io.StringIO()
        n = replay(str(p), out=out)
        assert n == 3
        assert out.getvalue().count("digruber top") == 3

    def test_replay_once_renders_final_frame_only(self, tmp_path):
        p = tmp_path / "t.jsonl"
        _write_timeline(str(p), [_registry_row(30.0, n_dps=1),
                                 _registry_row(60.0, n_dps=2)])
        out = io.StringIO()
        assert replay(str(p), once=True, out=out) == 1
        text = out.getvalue()
        assert text.count("digruber top") == 1
        assert "t=60s" in text
        assert "scale-up" in text  # events computed over full history

    def test_replay_empty_file(self, tmp_path):
        p = tmp_path / "t.jsonl"
        _write_timeline(str(p), [])
        out = io.StringIO()
        assert replay(str(p), out=out) == 0
        assert "no timeline rows" in out.getvalue()

    def test_replay_max_frames(self, tmp_path):
        p = tmp_path / "t.jsonl"
        _write_timeline(str(p), [_registry_row(float(t)) for t in
                                 range(30, 300, 30)])
        out = io.StringIO()
        assert replay(str(p), out=out, max_frames=2) == 2


class TestTail:
    def test_partial_trailing_line_stays_buffered(self, tmp_path):
        p = tmp_path / "t.jsonl"
        full = json.dumps(_registry_row(30.0))
        half = json.dumps(_registry_row(60.0))
        with open(p, "w") as w:
            w.write(full + "\n" + half[: len(half) // 2])
            w.flush()
            it = read_jsonl(str(p), tolerant=True, poll_s=0.001,
                            idle_polls=50)
            assert next(it)["t"] == 30.0
            # Writer completes the half row: reader resumes cleanly.
            w.write(half[len(half) // 2:] + "\n")
            w.flush()
            assert next(it)["t"] == 60.0
            assert list(it) == []  # idles out

    def test_garbage_lines_skipped(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"t": 1.0}\nnot json\n42\n{"t": 2.0}\n')
        docs = list(read_jsonl(str(p), tolerant=True, poll_s=0.001,
                               idle_polls=1))
        assert [d["t"] for d in docs] == [1.0, 2.0]

    def test_follow_renders_rows_and_stops_when_idle(self, tmp_path):
        p = tmp_path / "t.jsonl"
        _write_timeline(str(p), [_registry_row(30.0),
                                 _registry_row(60.0)])
        out = io.StringIO()
        n = follow(str(p), poll_s=0.001, idle_polls=2, out=out)
        assert n == 2
        assert out.getvalue().count("digruber top") == 2

    def test_follow_groups_sharded_rows_by_barrier(self, tmp_path):
        # A sharded timeline is one registry-schema row per instant
        # (hoods merged at write time), so follow needs no batching:
        # every row is a complete grid-wide frame the moment it lands.
        from repro.obs.timeline import merge_hood_timelines
        hood = lambda t, h: {"t": t, "counters": {}, "histograms": {},
                             "gauges": {f"dp.online.dp{h}": 1.0,
                                        f"dp.queue_depth.dp{h}": 2,
                                        "grid.busy_cpus": 100,
                                        "grid.total_cpus": 200}}
        p = tmp_path / "t.jsonl"
        _write_timeline(str(p), merge_hood_timelines(
            {h: [hood(30.0, h), hood(60.0, h)] for h in (0, 1)}))
        out = io.StringIO()
        assert follow(str(p), poll_s=0.001, idle_polls=2, out=out) == 2
        text = out.getvalue()
        assert "dp0" in text and "dp1" in text and "/      400 cpus" in text

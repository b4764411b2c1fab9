"""Unit tests for the structured tracer (repro.obs.trace)."""

import json

import pytest

from repro.obs import JsonlSink, TraceEvent, Tracer
from repro.sim import Simulator


class TestTracerBasics:
    def test_disabled_by_default_and_emit_is_noop(self):
        tr = Tracer()
        tr.emit("x.y", node="n", a=1)
        tr.emit_compact("rpc.span", "n", ("op", "d", 1, "ok", 0.1, 2.0))
        assert len(tr) == 0 and tr.counts == {} and tr.emitted == 0

    def test_emit_records_time_node_kind_detail(self):
        t = [0.0]
        tr = Tracer(clock=lambda: t[0], enabled=True)
        t[0] = 3.5
        tr.emit("job.start", node="dp0", job="j1", cpus=4)
        (ev,) = tr.events()
        assert ev == TraceEvent(3.5, "dp0", "job.start",
                                {"job": "j1", "cpus": 4})
        assert tr.count("job.start") == 1

    def test_events_filter_by_kind(self):
        tr = Tracer(enabled=True)
        tr.emit("a")
        tr.emit("b")
        tr.emit("a")
        assert len(tr.events("a")) == 2 and len(tr.events("b")) == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)
        with pytest.raises(ValueError):
            Tracer().set_capacity(-1)

    def test_clear_resets_everything(self):
        tr = Tracer(enabled=True)
        tr.emit("a")
        tr.clear()
        assert len(tr) == 0 and tr.counts == {} and tr.evicted == 0


class TestRingBuffer:
    def test_eviction_keeps_newest_and_counts_all(self):
        tr = Tracer(enabled=True, capacity=4)
        for i in range(10):
            tr.emit("tick", i=i)
        assert len(tr) == 4
        assert tr.evicted == 6
        assert tr.count("tick") == 10  # counts survive eviction
        assert [ev.detail["i"] for ev in tr.events()] == [6, 7, 8, 9]

    def test_set_capacity_keeps_newest(self):
        tr = Tracer(enabled=True, capacity=10)
        for i in range(6):
            tr.emit("tick", i=i)
        tr.set_capacity(3)
        assert [ev.detail["i"] for ev in tr.events()] == [3, 4, 5]


class TestCompactEvents:
    def test_compact_normalized_on_inspection(self):
        tr = Tracer(enabled=True)
        tr.emit_compact("rpc.span", "cli",
                        ("query", "dp0", 7, "ok", 0.25, 18.0), time=1.5)
        (ev,) = tr.events()
        assert isinstance(ev, TraceEvent)
        assert ev.time == 1.5 and ev.node == "cli" and ev.kind == "rpc.span"
        assert ev.detail_dict() == {"op": "query", "dst": "dp0", "rpc_id": 7,
                                    "outcome": "ok", "latency_s": 0.25,
                                    "size_kb": 18.0}

    def test_compact_uses_clock_when_no_time_given(self):
        tr = Tracer(clock=lambda: 9.0, enabled=True)
        tr.emit_compact("rpc.span", "n", ("op", "d", 1, "ok", 0.1, 0.0))
        assert tr.events()[0].time == 9.0

    def test_unknown_compact_kind_falls_back(self):
        ev = TraceEvent(0.0, "n", "custom.kind", ("x", "y"))
        assert ev.detail_dict() == {"detail": ("x", "y")}


class TestSinks:
    def test_sink_sees_every_event_as_trace_event(self):
        tr = Tracer(enabled=True, capacity=2)
        seen = []
        tr.add_sink(seen.append)
        for i in range(5):
            tr.emit("a", i=i)
        tr.emit_compact("rpc.span", "n", ("op", "d", 1, "ok", 0.1, 0.0))
        assert len(seen) == 6  # beyond ring capacity
        assert all(isinstance(ev, TraceEvent) for ev in seen)

    def test_remove_sink(self):
        tr = Tracer(enabled=True)
        seen = []
        sink = seen.append
        tr.add_sink(sink)
        tr.emit("a")
        tr.remove_sink(sink)
        tr.emit("a")
        assert len(seen) == 1

    def test_jsonl_sink_streams_and_survives_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tr = Tracer(enabled=True)
        sink = JsonlSink(str(path))
        tr.add_sink(lambda ev: sink.write(ev.to_dict()))
        tr.emit("a", n=1)
        tr.emit_compact("rpc.span", "cli", ("op", "d", 1, "ok", 0.1, 2.0))
        sink.close()
        tr.emit("late")  # post-close emission must not raise
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert sink.written == 2 and len(lines) == 2
        assert lines[0]["kind"] == "a" and lines[0]["n"] == 1
        assert lines[1]["op"] == "op" and lines[1]["outcome"] == "ok"

    def test_jsonl_sink_serializes_numpy_tuple_detail(self, tmp_path):
        # Regression: rpc.span tuple details carry numpy scalars
        # (latency draws, np-typed rpc ids) straight off the hot path;
        # json.dumps(np.int64) raises TypeError, so before coercion any
        # seeded run with a sink attached crashed on the first RPC.
        np = pytest.importorskip("numpy")
        path = tmp_path / "trace.jsonl"
        tr = Tracer(enabled=True)
        sink = JsonlSink(str(path))
        tr.add_sink(lambda ev: sink.write(ev.to_dict()))
        tr.emit_compact(
            "rpc.span", ("dp0", 1),
            ("get_state", np.str_("dp1"), np.int64(3), "ok",
             np.float64(0.25), np.float32(2.0)),
            time=np.float32(2.0))
        sink.close()
        (line,) = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert line["t"] == 2.0
        assert line["node"] == str(("dp0", 1))
        assert line["rpc_id"] == 3 and line["dst"] == "dp1"
        assert line["latency_s"] == 0.25
        assert line["size_kb"] == pytest.approx(2.0)

    def test_export_jsonl_dumps_ring(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        tr = Tracer(enabled=True)
        tr.emit("a", obj=object())  # non-JSON detail falls back to repr
        tr.emit_compact("rpc.span", "n", ("op", "d", 1, "ok", 0.1, 0.0))
        assert tr.export_jsonl(str(path)) == 2
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert lines[0]["obj"].startswith("<object")
        assert lines[1]["kind"] == "rpc.span"


class TestSimulatorIntegration:
    def test_sim_trace_uses_sim_clock(self):
        sim = Simulator()
        sim.trace.enabled = True
        sim.schedule(5.0, lambda: sim.trace.emit("mark"))
        sim.run()
        assert sim.trace.events("mark")[0].time == 5.0

    def test_process_lifecycle_traced(self):
        sim = Simulator()
        sim.trace.enabled = True

        def proc():
            yield 1.0

        sim.process(proc(), name="worker")
        sim.run()
        assert sim.trace.count("process.start") == 1
        assert sim.trace.count("process.finish") == 1

    def test_unhandled_process_failure_counted(self):
        sim = Simulator()
        sim.trace.enabled = True

        def proc():
            yield 1.0
            raise RuntimeError("die")

        sim.process(proc(), name="bad")
        sim.run()
        assert sim.metrics.counter_value("kernel.unhandled_failures") == 1
        assert sim.trace.count("process.unhandled_failure") == 1

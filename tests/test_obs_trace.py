"""Unit tests for the event stream (repro.obs.trace)."""

import json

import pytest

from repro.obs import JsonlSink, TraceEvent, Tracer
from repro.sim import Simulator


def ringed(**kw) -> Tracer:
    """A tracer with its ring subscribed, as ``--trace`` builds it."""
    tr = Tracer(**kw)
    tr.subscribe(tr.ring)
    return tr


class TestTracerBasics:
    def test_disabled_by_default_and_emit_only_tallies(self):
        tr = Tracer()
        tr.emit("x.y", node="n", a=1)
        tr.publish("rpc.ok", "n", ("op", "d", 1, "ok", 0.1, 2.0))
        assert len(tr) == 0 and tr.emitted == 0 and not tr.enabled
        # The tally is always on; publish() never tallies.
        assert tr.metrics.snapshot()["counters"] == {"x.y": 1}

    def test_emit_records_time_node_kind_detail(self):
        t = [0.0]
        tr = ringed(clock=lambda: t[0])
        t[0] = 3.5
        tr.emit("job.start", node="dp0", job="j1", cpus=4)
        (ev,) = tr.events()
        assert ev == TraceEvent(3.5, "dp0", "job.start",
                                {"job": "j1", "cpus": 4})
        assert tr.count("job.start") == 1

    def test_events_filter_by_kind(self):
        tr = ringed()
        tr.emit("a")
        tr.emit("b")
        tr.emit("a")
        assert len(tr.events("a")) == 2 and len(tr.events("b")) == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_subscribe_toggles_enabled(self):
        tr = Tracer()
        seen = []
        tr.subscribe(seen.append)
        assert tr.enabled
        tr.unsubscribe(seen.append)
        assert not tr.enabled and tr.subscribers == []


class TestRingBuffer:
    def test_eviction_keeps_newest_and_counts_all(self):
        tr = ringed(capacity=4)
        for i in range(10):
            tr.emit("tick", i=i)
        assert len(tr) == 4
        assert tr.evicted == 6
        assert tr.count("tick") == 10  # counts survive eviction
        assert [ev.detail["i"] for ev in tr.events()] == [6, 7, 8, 9]


class TestCompactEvents:
    def test_compact_normalized_on_inspection(self):
        tr = ringed()
        tr.publish("rpc.ok", "cli", ("query", "dp0", 7, "ok", 0.25, 18.0),
                   time=1.5)
        (ev,) = tr.events()
        assert isinstance(ev, TraceEvent)
        assert ev.time == 1.5 and ev.node == "cli" and ev.kind == "rpc.ok"
        assert ev.detail_dict() == {"op": "query", "dst": "dp0", "rpc_id": 7,
                                    "outcome": "ok", "latency_s": 0.25,
                                    "size_kb": 18.0}

    def test_compact_uses_clock_when_no_time_given(self):
        tr = ringed(clock=lambda: 9.0)
        tr.publish("rpc.ok", "n", ("op", "d", 1, "ok", 0.1, 0.0))
        assert tr.events()[0].time == 9.0

    def test_unknown_compact_kind_falls_back(self):
        ev = TraceEvent(0.0, "n", "custom.kind", ("x", "y"))
        assert ev.detail_dict() == {"detail": ("x", "y")}


class TestSinks:
    def test_sink_sees_every_event_as_trace_event(self):
        tr = ringed(capacity=2)
        seen = []
        tr.subscribe(seen.append)
        for i in range(5):
            tr.emit("a", i=i)
        tr.publish("rpc.ok", "n", ("op", "d", 1, "ok", 0.1, 0.0))
        assert len(seen) == 6  # beyond ring capacity
        assert all(isinstance(ev, TraceEvent) for ev in seen)

    def test_remove_sink(self):
        tr = ringed()
        seen = []
        sink = seen.append
        tr.subscribe(sink)
        tr.emit("a")
        tr.unsubscribe(sink)
        tr.emit("a")
        assert len(seen) == 1 and tr.count("a") == 2

    def test_jsonl_sink_streams_and_survives_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tr = Tracer()
        sink = JsonlSink(str(path))
        tr.subscribe(lambda ev: sink.write(ev.to_dict()))
        tr.emit("a", n=1)
        tr.publish("rpc.ok", "cli", ("op", "d", 1, "ok", 0.1, 2.0))
        sink.close()
        tr.emit("late")  # post-close emission must not raise
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert sink.written == 2 and len(lines) == 2
        assert lines[0]["kind"] == "a" and lines[0]["n"] == 1
        assert lines[1]["op"] == "op" and lines[1]["outcome"] == "ok"

    def test_jsonl_sink_serializes_numpy_tuple_detail(self, tmp_path):
        # Regression: rpc.<outcome> tuple details carry numpy scalars
        # (latency draws, np-typed rpc ids) straight off the hot path;
        # json.dumps(np.int64) raises TypeError, so before coercion any
        # seeded run with a sink attached crashed on the first RPC.
        np = pytest.importorskip("numpy")
        path = tmp_path / "trace.jsonl"
        tr = Tracer()
        sink = JsonlSink(str(path))
        tr.subscribe(lambda ev: sink.write(ev.to_dict()))
        tr.publish(
            "rpc.ok", ("dp0", 1),
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

    def test_non_json_detail_falls_back_to_repr(self):
        tr = ringed()
        tr.emit("a", obj=object())
        (row,) = [ev.to_dict() for ev in tr.events()]
        assert row["obj"].startswith("<object")


class TestSimulatorIntegration:
    def test_sim_trace_uses_sim_clock(self):
        sim = Simulator()
        sim.trace.subscribe(sim.trace.ring)
        sim.schedule(5.0, lambda: sim.trace.emit("mark"))
        sim.run()
        assert sim.trace.events("mark")[0].time == 5.0

    def test_process_lifecycle_traced(self):
        sim = Simulator()
        sim.trace.subscribe(sim.trace.ring)

        def proc():
            yield 1.0

        sim.process(proc(), name="worker")
        sim.run()
        assert sim.trace.count("process.start") == 1
        assert sim.trace.count("process.finish") == 1

    def test_unhandled_process_failure_counted(self):
        sim = Simulator()
        sim.trace.subscribe(sim.trace.ring)

        def proc():
            yield 1.0
            raise RuntimeError("die")

        sim.process(proc(), name="bad")
        sim.run()
        assert sim.metrics.counter_value("kernel.unhandled_failures") == 1
        assert sim.trace.events("kernel.unhandled_failures")[0].node == "bad"

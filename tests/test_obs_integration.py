"""End-to-end observability: a traced experiment run exposes its internals."""

import json

import pytest

from repro.experiments import run_experiment, smoke_config


@pytest.fixture(scope="module")
def traced_result(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
    cfg = smoke_config(decision_points=2, trace_enabled=True,
                       trace_path=str(path), name="smoke-traced")
    result = run_experiment(cfg)
    return result, path


class TestTracedRun:
    def test_trace_buffer_populated(self, traced_result):
        result, _ = traced_result
        tr = result.sim.trace
        assert len(tr) > 0
        # The layers the tracer instruments all show up; brokering is
        # callbacks, so no process is started.
        assert tr.count("process.start") == 0
        assert tr.count("rpc.ok") > 0
        assert tr.count("sync.round") > 0
        assert tr.count("engine.dispatch") > 0

    def test_jsonl_stream_written(self, traced_result):
        result, path = traced_result
        lines = path.read_text().splitlines()
        assert len(lines) >= result.sim.trace.emitted  # sink sees evicted too
        first = json.loads(lines[0])
        assert {"t", "node", "kind"} <= set(first)

    def test_counters_and_histograms_populated(self, traced_result):
        result, _ = traced_result
        m = result.sim.metrics
        assert m.counter_value("engine.dispatch") > 0
        assert m.counter_value("sync.round") > 0
        assert m.histogram("rpc.latency_s").count > 0
        assert m.counter_value("rpc.ok") == result.network.stats.rpcs_completed

    def test_no_dropped_sync_chains(self, traced_result):
        # The accuracy figures assume every sync/monitor tick fired.
        result, _ = traced_result
        assert result.dropped_sync_chains() == 0
        assert result.sim.metrics.counter_value("kernel.unhandled_failures") == 0

    def test_obs_summary_renders(self, traced_result):
        result, _ = traced_result
        text = result.obs_summary()
        assert "rpc.latency_s" in text
        assert "engine.dispatch" in text
        assert "trace:" in text


class TestUntracedRun:
    def test_default_run_records_no_trace_but_keeps_metrics(self):
        result = run_experiment(smoke_config(duration_s=120.0))
        assert len(result.sim.trace) == 0  # tracing is opt-in
        assert result.sim.metrics.counter_value("engine.dispatch") > 0
        assert result.obs_summary()  # summary works without tracing

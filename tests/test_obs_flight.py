"""Flight recorder + postmortem tests (repro.obs.flight).

The black-box contract: an armed recorder costs a healthy run nothing,
and any abnormal exit — crash, strict-check violation, SIGTERM — leaves
one bounded JSON dump that ``digruber postmortem`` can analyze.  The
abort path must also leave every streaming artifact (telemetry
timeline, trace JSONL) whole-line-valid, which is the mid-write-kill
satellite.
"""

import json
import os

import pytest

from repro.check.invariants import InvariantViolation
from repro.experiments.configs import smoke_config
from repro.experiments.runner import build_experiment, run_built, run_experiment
from repro.obs.flight import (
    FlightRecorder,
    Terminated,
    abort_reason,
    load_flight,
    postmortem_report,
)


class TestAbortReason:
    def test_classification(self):
        assert abort_reason(InvariantViolation("x")) == "strict-check"
        assert abort_reason(Terminated("signal 15")) == "sigterm"
        assert abort_reason(KeyboardInterrupt()) == "interrupt"
        assert abort_reason(RuntimeError("boom")) == "crash"


def _run_hooked(config, hook):
    """Build, let ``hook`` schedule its fault, run: the fresh-run twin of
    ``resume_experiment(..., deployment_hook=hook)``."""
    built = build_experiment(config)
    hook(sim=built.sim, grid=built.grid)
    return run_built(built)


def _corrupting_hook(at_t: float):
    """Deployment hook that silently corrupts a site's accounting at
    ``at_t``, so the next strict checkpoint raises InvariantViolation."""
    def hook(sim=None, grid=None, **_):
        def corrupt():
            site = next(iter(grid.sites.values()))
            site.busy_cpus += 7
        sim.schedule(at_t, corrupt)
    return hook


def _crashing_hook(at_t: float):
    def hook(sim=None, **_):
        def crash():
            raise RuntimeError("injected mid-run crash")
        sim.schedule(at_t, crash)
    return hook


class TestDumpOnAbort:
    def _strict_config(self, tmp_path, **overrides):
        return smoke_config(
            duration_s=600.0, n_clients=4,
            check_enabled=True, check_strict=True,
            check_interval_s=60.0,
            flight_path=str(tmp_path / "flight.json"),
            **overrides)

    def test_strict_violation_dumps_and_postmortem_parses(self, tmp_path):
        config = self._strict_config(tmp_path)
        with pytest.raises(InvariantViolation):
            _run_hooked(config, _corrupting_hook(100.0))
        doc = load_flight(config.flight_path)
        assert doc["flight"] == 1
        assert doc["reason"] == "strict-check"
        assert doc["exception"]["type"] == "InvariantViolation"
        assert doc["meta"]["seed"] == config.seed
        assert 0.0 < doc["meta"]["t_abort"] < config.duration_s
        assert doc["checker"]["n_violations"] >= 1
        v = doc["checker"]["violations"][-1]
        assert v["rule"] and v["subject"] and v["detail"]
        report = postmortem_report(doc)
        assert "strict-check" in report
        assert "InvariantViolation" in report
        assert "violation(s)" in report

    def test_crash_dump_includes_traceback_and_kernel_state(self, tmp_path):
        config = self._strict_config(tmp_path)
        with pytest.raises(RuntimeError, match="injected"):
            _run_hooked(config, _crashing_hook(150.0))
        doc = load_flight(config.flight_path)
        assert doc["reason"] == "crash"
        assert "injected mid-run crash" in doc["exception"]["traceback"]
        assert doc["kernel"]["events_executed"] > 0
        assert doc["deployment"]  # per-DP state captured
        assert doc["clients"]["n"] == config.n_clients

    def test_abort_snapshots_present_when_telemetry_on(self, tmp_path):
        config = self._strict_config(tmp_path, telemetry_enabled=True,
                                     telemetry_interval_s=30.0)
        with pytest.raises(RuntimeError):
            _run_hooked(config, _crashing_hook(200.0))
        doc = load_flight(config.flight_path)
        assert doc["snapshots"], "flight dump should embed telemetry tail"
        assert doc["snapshots"][-1]["t"] <= 200.0
        assert "telemetry:" in postmortem_report(doc)

    def test_healthy_run_leaves_no_dump(self, tmp_path):
        config = smoke_config(duration_s=120.0, n_clients=2,
                              flight_path=str(tmp_path / "flight.json"))
        run_experiment(config)
        assert not (tmp_path / "flight.json").exists()


class TestMidWriteKill:
    """Satellite: a run killed mid-write must leave whole-line-valid
    JSONL artifacts — the abort path flushes and closes every sink."""

    def test_trace_jsonl_valid_after_crash(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        config = smoke_config(duration_s=600.0, n_clients=4,
                              trace_enabled=True,
                              trace_path=str(trace_path))
        with pytest.raises(RuntimeError):
            _run_hooked(config, _crashing_hook(300.0))
        lines = trace_path.read_text().splitlines()
        assert lines, "sink saw no events before the crash"
        for line in lines:  # every line parses: no mid-line truncation
            doc = json.loads(line)
            assert "t" in doc and "kind" in doc

    def test_timeline_jsonl_valid_after_crash(self, tmp_path):
        from repro.obs.timeline import load_timeline
        path = tmp_path / "timeline.jsonl"
        config = smoke_config(duration_s=600.0, n_clients=4,
                              telemetry_enabled=True,
                              telemetry_interval_s=30.0,
                              telemetry_path=str(path))
        with pytest.raises(RuntimeError):
            _run_hooked(config, _crashing_hook(200.0))
        meta, rows = load_timeline(str(path), tolerant=False)  # strict!
        assert meta["interval_s"] == 30.0
        assert rows and rows[-1]["t"] <= 200.0

    def test_sink_context_manager_closes_on_exception(self, tmp_path):
        from repro.obs import JsonlSink
        path = tmp_path / "s.jsonl"
        with pytest.raises(RuntimeError):
            with JsonlSink(str(path)) as sink:
                sink.write({"t": 1.0, "kind": "k"})
                raise RuntimeError("boom")
        assert sink.closed
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["kind"] == "k"
        sink.close()  # idempotent
        sink.write({"t": 2.0, "kind": "k"})  # write-after-close: no-op
        assert sink.written == 1
        assert sink.byte_offset() == path.stat().st_size


@pytest.fixture
def effective_closes(monkeypatch):
    """Effective-close spy: the ``(file name, sink id)`` of every
    open->closed transition of a sink's file, so an idempotent re-close
    never inflates the count."""
    from repro.obs import JsonlSink
    effective = []
    real_close = JsonlSink.close

    def spy(self):
        if not self.closed:
            effective.append((os.path.basename(self.path), id(self)))
        real_close(self)

    monkeypatch.setattr(JsonlSink, "close", spy)
    return effective


class TestSinkLifecycle:
    def test_finalize_then_abort_closes_each_sink_file_once(
            self, tmp_path, effective_closes):
        """A run that finalizes and is *then* torn down again (a caller's
        own ``finally``, a late signal) must not re-close — or worse,
        reopen — any artifact: one effective close per sink."""
        from repro.experiments.runner import (abort_experiment,
                                              build_experiment,
                                              finalize_experiment)
        config = smoke_config(
            duration_s=120.0, n_clients=2,
            trace_path=str(tmp_path / "trace.jsonl"),
            telemetry_path=str(tmp_path / "timeline.jsonl"),
            spans_path=str(tmp_path / "spans.jsonl"))
        built = build_experiment(config)
        built.sim.run(until=config.duration_s)
        finalize_experiment(built)
        abort_experiment(built, RuntimeError("late teardown"))
        # trace + telemetry stream through built.sinks; the span export
        # opens and closes its own sink inside finalize.
        assert sorted(name for name, _ in effective_closes) == [
            "spans.jsonl", "timeline.jsonl", "trace.jsonl"]
        for sink in built.sinks.values():
            assert sink.closed
            assert sink.byte_offset() == os.path.getsize(sink.path)


class TestRestoredRunAbort:
    """Satellite: a *restored* run that aborts must behave exactly like
    a fresh aborting run — flight dump, whole-line-valid artifacts, and
    every reattached sink effectively closed exactly once."""

    def test_restored_abort_closes_sinks_once_and_artifacts_valid(
            self, tmp_path, effective_closes):
        from repro.experiments.runner import (abort_experiment,
                                              build_experiment)
        from repro.obs.flight import Terminated
        from repro.obs.timeline import load_timeline
        from repro.sim.snapshot import newest_checkpoint, resume_experiment

        config = smoke_config(
            duration_s=600.0, n_clients=4,
            checkpoint_every_s=100.0,
            checkpoint_dir=str(tmp_path / "ckpt"),
            trace_enabled=True, trace_path=str(tmp_path / "trace.jsonl"),
            telemetry_enabled=True, telemetry_interval_s=30.0,
            telemetry_path=str(tmp_path / "timeline.jsonl"),
            flight_path=str(tmp_path / "flight.json"))

        # The crash event must ride BOTH legs: a hook that schedules
        # into the heap only on the restored side would leave the
        # replayed heap diverging from the snapshotted one, and replay
        # verification would (correctly) refuse the restore.
        hook = _crashing_hook(450.0)

        effective = effective_closes

        # Leg 1: run to t=300 (checkpoints at 100/200/300), SIGTERM.
        built = build_experiment(config)
        hook(sim=built.sim, deployment=built.deployment,
             network=built.network, grid=built.grid, rng=built.rng)
        built.sim.run(until=300.0)
        assert sorted(built.sinks) == ["telemetry", "trace"]
        abort_experiment(built, Terminated("signal 15"))
        abort_experiment(built, Terminated("signal 15"))  # re-close: no-op
        assert len(effective) == 2
        for sink in built.sinks.values():
            assert sink.byte_offset() == os.path.getsize(sink.path)
        checkpoint = newest_checkpoint(config.checkpoint_dir)
        assert checkpoint is not None
        closes_before_resume = len(effective)

        # Leg 2: restore, continue, crash at t=450 inside the restored
        # run — its abort path must close the reattached sinks.
        with pytest.raises(RuntimeError, match="injected"):
            resume_experiment(checkpoint, deployment_hook=hook)

        restored_closes = effective[closes_before_resume:]
        assert sorted(name for name, _ in restored_closes) == \
            ["timeline.jsonl", "trace.jsonl"]
        assert len({sid for _, sid in restored_closes}) == 2

        # Flight dump reflects the restored run's crash, not leg 1.
        doc = load_flight(config.flight_path)
        assert doc["reason"] == "crash"
        assert "injected mid-run crash" in doc["exception"]["traceback"]

        # Artifacts are whole-line-valid and extend past the restore
        # point (the restored run regenerated the prefix and kept going).
        for line in (tmp_path / "trace.jsonl").read_text().splitlines():
            json.loads(line)
        meta, rows = load_timeline(str(tmp_path / "timeline.jsonl"),
                                   tolerant=False)
        assert meta["interval_s"] == 30.0
        assert rows and 300.0 < rows[-1]["t"] <= 450.0


class TestRecorderEdges:
    def test_dump_never_raises_on_bad_path(self, tmp_path):
        config = smoke_config(duration_s=60.0, n_clients=2)
        from repro.experiments.runner import build_experiment
        built = build_experiment(config)
        built.sim.run(until=60.0)
        rec = FlightRecorder(built, path=str(tmp_path / "no" / "dir.json"))
        rec.dump("crash", RuntimeError("x"))  # must not raise
        assert rec.dumped_to is None

    def test_default_path_embeds_seed(self):
        """A bare ``--flight`` names the dump ``flight-<seed>.json``; a
        config's ``flight_path`` alone arms the recorder."""
        from repro.cli import _base_config, _obs_overrides, build_parser
        from repro.experiments.runner import build_experiment
        for argv, seed in ((["run", "--flight"], 20050101),
                           (["run", "--seed", "42", "--flight"], 42)):
            args = build_parser().parse_args(argv)
            _, overrides = _base_config(args)
            assert _obs_overrides(args, overrides["seed"]) == {
                "flight_path": f"flight-{seed}.json"}
        config = smoke_config(duration_s=60.0, n_clients=2)
        assert build_experiment(config).flight is None
        armed = build_experiment(config.with_(flight_path="f.json"))
        assert armed.flight.path == "f.json"

    def test_load_flight_rejects_non_flight_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="flight"):
            load_flight(str(p))

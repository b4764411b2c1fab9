"""Tests for the ``digruber`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_quickstart(self):
        args = build_parser().parse_args(["quickstart"])
        assert args.command == "quickstart"

    def test_scalability_defaults(self):
        args = build_parser().parse_args(["scalability"])
        assert args.profile == "gt3"
        assert args.dps == [1, 3, 10]

    def test_scalability_overrides(self):
        args = build_parser().parse_args(
            ["scalability", "--profile", "gt4", "--dps", "1", "5",
             "--duration", "600"])
        assert args.profile == "gt4" and args.dps == [1, 5]
        assert args.duration == 600.0

    def test_accuracy_intervals(self):
        args = build_parser().parse_args(
            ["accuracy", "--intervals", "2", "8"])
        assert args.intervals == [2.0, 8.0]

    def test_bad_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--profile", "gt5"])

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "--dps", "4", "--clients", "10", "--topology", "ring",
             "--selector", "random"])
        assert (args.dps, args.clients, args.topology, args.selector) == \
            (4, 10, "ring", "random")

    def test_report_options(self):
        args = build_parser().parse_args(
            ["report", "--duration", "600", "--out", "r.md"])
        assert args.duration == 600.0 and args.out == "r.md"


class TestExecution:
    def test_run_command_executes(self, capsys):
        rc = main(["run", "--dps", "1", "--clients", "4", "--sites", "10",
                   "--cpus", "500", "--duration", "120"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "DiPerF" in out and "requests=" in out

    def test_grubsim_command_executes(self, capsys):
        rc = main(["grubsim", "--duration", "120"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "GRUB-SIM" in out


FIXTURE = "tests/fixtures/spans_smoke.jsonl"


class TestTraceCommand:
    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_trace_sample_validated(self):
        with pytest.raises(SystemExit):
            main(["run", "--duration", "60", "--trace-sample", "0"])

    def test_analyze(self, capsys):
        rc = main(["trace", "analyze", FIXTURE])
        out = capsys.readouterr().out
        assert rc == 0
        assert "traces=" in out and "decide staleness_s" in out

    def test_critical_path(self, capsys):
        rc = main(["trace", "critical-path", FIXTURE, "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "job 1 trace" in out and "staleness_s=" in out
        # The full causal chain renders submit through site queue.
        for name in ("submit", "brokering", "decide", "dispatch", "queue"):
            assert name in out

    def test_slowest(self, capsys):
        rc = main(["trace", "slowest", FIXTURE, "-n", "3"])
        out = capsys.readouterr().out
        assert rc == 0 and "total_s" in out

    def test_export_chrome(self, tmp_path, capsys):
        import json
        out_path = tmp_path / "chrome.json"
        rc = main(["trace", "export-chrome", FIXTURE, str(out_path)])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        assert {ev["ph"] for ev in doc["traceEvents"]} == {"M", "X"}

    def test_run_with_trace_spans_writes_jsonl(self, tmp_path, capsys):
        import json
        path = tmp_path / "spans.jsonl"
        rc = main(["run", "--dps", "1", "--clients", "2", "--sites", "4",
                   "--cpus", "200", "--duration", "120",
                   "--trace-spans", str(path)])
        out = capsys.readouterr().out
        assert rc == 0 and "spans written" in out
        spans = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert spans and {"submit", "brokering"} <= {s["name"] for s in spans}


TIMELINE_FIXTURE = "tests/fixtures/timeline_10x_diurnal.jsonl"
FLIGHT_FIXTURE = "tests/fixtures/flight_smoke.json"


class TestTopCommand:
    def test_replay_renders_committed_diurnal_timeline(self, capsys):
        rc = main(["top", TIMELINE_FIXTURE, "--once"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "digruber top — timeline-10x-diurnal" in out
        assert "DP" in out and "dp4" in out  # fleet grew to 5 DPs
        assert "scale-up" in out            # autoscale events surfaced

    def test_replay_max_frames(self, capsys):
        rc = main(["top", TIMELINE_FIXTURE, "--max-frames", "2"])
        out = capsys.readouterr().out
        assert rc == 0 and out.count("digruber top") == 2

    def test_empty_timeline_exits_nonzero(self, tmp_path, capsys):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert main(["top", str(p), "--once"]) == 1

    def test_run_telemetry_then_top(self, tmp_path, capsys):
        path = tmp_path / "timeline.jsonl"
        rc = main(["run", "--dps", "1", "--clients", "2", "--sites", "4",
                   "--cpus", "200", "--duration", "120",
                   "--telemetry", str(path)])
        assert rc == 0
        assert "timeline" in capsys.readouterr().out
        rc = main(["top", str(path), "--once"])
        out = capsys.readouterr().out
        assert rc == 0 and "grid   util" in out


class TestPostmortemCommand:
    def test_postmortem_parses_committed_flight_dump(self, capsys):
        rc = main(["postmortem", FLIGHT_FIXTURE])
        out = capsys.readouterr().out
        assert rc == 0
        assert "postmortem: flight-smoke" in out
        assert "reason: strict-check" in out
        assert "site.busy_sum" in out

    def test_postmortem_rejects_non_flight_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"nope": 1}')
        with pytest.raises(SystemExit):
            main(["postmortem", str(p)])

    def test_run_flight_dump_on_sharded_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--duration", "60", "--shards", "2", "--dps", "2",
                  "--flight", str(tmp_path / "f.json")])


#: Reader commands, each taking the artifact path as ``{path}``.
_ARTIFACT_COMMANDS = {
    "trace-analyze": ["trace", "analyze", "{path}"],
    "trace-critical-path": ["trace", "critical-path", "{path}", "1"],
    "trace-slowest": ["trace", "slowest", "{path}"],
    "trace-export-chrome": ["trace", "export-chrome", "{path}", "{out}"],
    "top-replay": ["top", "{path}", "--once"],
    "top-follow": ["top", "{path}", "--follow", "--poll", "0.001",
                   "--idle", "1"],
}

#: Bad artifacts: file content (None = no file at all).
_BAD_INPUTS = {
    "missing": None,
    "non-object-line": "42\n",
    "not-json": "{broken\n",
    "span-without-name-or-start": '{"span_id": "a", "end": 1.0}\n',
}


class TestMalformedArtifacts:
    """Satellite: no artifact handed to a reader command may produce a
    traceback — a one-line ``error:`` (exit 2) for what strict reading
    refuses or the OS cannot open; tolerant readers skip the line and
    report an empty timeline (exit 1)."""

    @pytest.mark.parametrize("command,bad", [
        (command, bad) for command in sorted(_ARTIFACT_COMMANDS)
        for bad in sorted(_BAD_INPUTS)
        # A span row is an object: a timeline reader has no quarrel.
        if command.startswith("trace") or not bad.startswith("span")])
    def test_exits_nonzero_without_traceback(self, tmp_path, capsys,
                                             command, bad):
        path = tmp_path / "artifact.jsonl"
        if _BAD_INPUTS[bad] is not None:
            path.write_text(_BAD_INPUTS[bad])
        argv = [a.format(path=path, out=tmp_path / "out.json")
                for a in _ARTIFACT_COMMANDS[command]]
        rc = main(argv)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if bad == "missing" or command.startswith("trace"):
            assert rc == 2
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
            assert "artifact.jsonl" in captured.err
        else:  # timelines read tolerantly: the bad line is skipped
            assert rc == 1

    def test_tolerant_trace_analysis_skips_what_strict_refuses(
            self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        path.write_text(open(FIXTURE).read() + '42\n{"span_id": "x"}\n')
        assert main(["trace", "analyze", str(path)]) == 2
        assert "expected an object" in capsys.readouterr().err
        assert main(["trace", "analyze", str(path), "--tolerant"]) == 0


class TestBadRunInput:
    """An experiment that cannot be built as asked is a usage error
    (one ``error:`` line, exit 2), not a ``ValueError`` traceback."""

    @pytest.mark.parametrize("argv", [
        ["--sites", "0"], ["--dps", "0"], ["--clients", "0"],
        ["--sync", "0"], ["--sites", "5", "--cpus", "3"],
        ["--dps", "3", "--shards", "4"],
        ["--dps", "3", "--clients", "2", "--shards", "2"]],
        ids=" ".join)
    def test_exits_2_with_one_error_line(self, capsys, argv):
        assert main(["run", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestRestoreRefusesExperimentFlags:
    """``run --restore`` takes the run's config from the snapshot, so an
    experiment flag given with it would be silently ignored: one
    ``error:`` line naming each such flag, exit 2, nothing run."""

    @pytest.mark.parametrize("extra,dropped", [
        ([], "--dps --chaos"),
        (["--shards", "2"], "--dps --chaos --shards"),
    ], ids=["monolithic", "sharded"])
    def test_exits_2_naming_the_ignored_flags(self, tmp_path, capsys,
                                              extra, dropped):
        from repro.experiments.configs import smoke_config
        from repro.experiments.runner import build_experiment
        from repro.sim.snapshot import (checkpoint_filename,
                                        snapshot_experiment, write_snapshot)
        built = build_experiment(smoke_config(n_clients=4, duration_s=120.0))
        built.sim.run(until=60.0)
        path = write_snapshot(snapshot_experiment(built), str(
            tmp_path / checkpoint_filename(60.0, built.sim.events_executed)))
        argv = ["run", "--restore", path, *extra, "--dps", "5", "--chaos",
                "flaky_dp", "--obs"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --restore takes the run's config "
                                f"from the snapshot; drop {dropped}\n")


class TestRestoreFlightRecorder:
    def test_sigterm_during_restore_leaves_a_loadable_dump(
            self, tmp_path, capsys, monkeypatch):
        """Satellite: ``run --restore`` arms SIGTERM -> Terminated just
        like a fresh run when the embedded config arms the recorder, so
        a killed restore still leaves its black box and the hint."""
        import os
        import signal

        from repro.experiments.configs import smoke_config
        from repro.experiments.runner import (abort_experiment,
                                              build_experiment)
        from repro.obs.flight import Terminated, load_flight
        from repro.sim.kernel import Simulator
        from repro.sim.snapshot import newest_checkpoint

        flight = tmp_path / "flight.json"
        config = smoke_config(n_clients=4, duration_s=300.0,
                              checkpoint_every_s=60.0,
                              checkpoint_dir=str(tmp_path / "ckpt"),
                              flight_path=str(flight))
        built = build_experiment(config)
        built.sim.run(until=150.0)
        abort_experiment(built, RuntimeError("killed"))
        flight.unlink()  # only the restored leg's dump counts
        checkpoint = newest_checkpoint(config.checkpoint_dir)

        replay = Simulator.run_to_event

        def replay_then_sigterm(self, event_count, until):
            replay(self, event_count, until)
            os.kill(os.getpid(), signal.SIGTERM)

        monkeypatch.setattr(Simulator, "run_to_event", replay_then_sigterm)
        # A run that never installs the Terminated handler lands here
        # and simply finishes — the failure mode under test.
        ignored = []
        previous = signal.signal(signal.SIGTERM,
                                 lambda *_: ignored.append(1))
        try:
            with pytest.raises(Terminated):
                main(["run", "--restore", checkpoint])
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert not ignored
        doc = load_flight(str(flight))
        assert doc["reason"] == "sigterm"
        assert 120.0 <= doc["meta"]["t_abort"] <= 300.0
        assert f"digruber postmortem {flight}" in capsys.readouterr().err

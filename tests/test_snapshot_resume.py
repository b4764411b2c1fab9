"""Resume-equals-fresh equality."""

import pytest

from repro.experiments.configs import smoke_config
from repro.experiments.parallel import summarize, summary_digest
from repro.experiments.runner import (abort_experiment, build_experiment,
                                      run_experiment)
from repro.sim.snapshot import (
    SnapshotError,
    newest_checkpoint,
    read_snapshot,
    resume_experiment,
    rng_state,
    write_snapshot,
)


def _digest(result):
    return summary_digest(summarize(result))


class TestResumeEqualsFresh:
    """The tentpole claim in unit form: a restored run's summary digest
    equals the uninterrupted same-seed run's, under both sync modes
    (delta sync adds per-peer watermarks to the captured state)."""

    @pytest.mark.parametrize("overrides", [
        {},
        {"sync_delta": True, "decision_points": 3, "sync_interval_s": 30.0},
    ], ids=["default", "delta-sync"])
    def test_matrix(self, tmp_path, overrides):
        config = smoke_config(n_clients=4, duration_s=200.0,
                              checkpoint_every_s=60.0,
                              checkpoint_dir=str(tmp_path), **overrides)
        fresh = _digest(run_experiment(config))
        checkpoint = newest_checkpoint(str(tmp_path))
        assert checkpoint is not None
        assert _digest(resume_experiment(checkpoint)) == fresh

    def test_killed_run_resumes_to_fresh_digest(self, tmp_path):
        """The operational shape: run, die mid-flight, restore from the
        newest on-disk checkpoint, match the uninterrupted digest."""
        config = smoke_config(n_clients=4, duration_s=200.0,
                              checkpoint_every_s=50.0,
                              checkpoint_dir=str(tmp_path / "b"))
        fresh = _digest(run_experiment(
            config.with_(checkpoint_dir=str(tmp_path / "a"))))
        built = build_experiment(config)
        built.sim.run(until=130.0)
        abort_experiment(built, RuntimeError("simulated mid-run kill"))
        checkpoint = newest_checkpoint(config.checkpoint_dir)
        assert checkpoint is not None
        assert _digest(resume_experiment(checkpoint)) == fresh


class TestRestoreVerification:
    def _checkpoint(self, tmp_path):
        config = smoke_config(n_clients=4, duration_s=200.0,
                              checkpoint_every_s=60.0,
                              checkpoint_dir=str(tmp_path))
        built = build_experiment(config)
        built.sim.run(until=150.0)
        return newest_checkpoint(str(tmp_path))

    def test_tampered_state_names_diverging_subsystem(self, tmp_path):
        path = self._checkpoint(tmp_path)
        snapshot = read_snapshot(path)
        # The file holds digests, not state: tamper with the grid's and
        # re-sign, so the divergence is discovered by replay
        # verification, not by the file CRC.
        snapshot["digests"]["grid"] = format(
            int(snapshot["digests"]["grid"], 16) ^ 0x10, "08x")
        tampered = write_snapshot(snapshot, str(tmp_path / "bad.json"))
        with pytest.raises(SnapshotError, match="grid"):
            resume_experiment(tampered)

    def test_wrong_event_count_rejected(self, tmp_path):
        path = self._checkpoint(tmp_path)
        snapshot = read_snapshot(path)
        snapshot["event_count"] += 1
        tampered = write_snapshot(snapshot, str(tmp_path / "bad.json"))
        with pytest.raises(SnapshotError):
            resume_experiment(tampered)

    def test_sink_offsets_recorded_and_diverged_prefix_refused(
            self, tmp_path):
        """Every sink in ``built.sinks`` is offset-stamped at capture,
        a faithful replay regenerates exactly those prefixes, and a
        snapshot claiming any other prefix length is refused."""
        config = smoke_config(
            n_clients=4, duration_s=200.0, checkpoint_every_s=60.0,
            checkpoint_dir=str(tmp_path / "ckpt"),
            trace_path=str(tmp_path / "trace.jsonl"),
            telemetry_path=str(tmp_path / "timeline.jsonl"))
        built = build_experiment(config)
        built.sim.run(until=150.0)
        abort_experiment(built, RuntimeError("killed"))
        path = newest_checkpoint(config.checkpoint_dir)
        snapshot = read_snapshot(path)
        assert sorted(snapshot["sinks"]) == ["telemetry", "trace"]
        assert all(0 < offset <= built.sinks[name].byte_offset()
                   for name, offset in snapshot["sinks"].items())
        resume_experiment(path)  # faithful prefix: accepted
        snapshot["sinks"]["telemetry"] += 1
        tampered = write_snapshot(snapshot, str(tmp_path / "bad.json"))
        with pytest.raises(SnapshotError, match="sink prefixes"):
            resume_experiment(tampered)

    def test_replay_backwards_rejected(self):
        from repro.sim.kernel import Simulator
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=2.0)
        with pytest.raises(ValueError, match="backwards"):
            sim.run_to_event(0)

    def test_replay_stops_before_passing_until(self):
        from repro.sim.kernel import Simulator
        sim = Simulator()
        sim.every(1.0, lambda: None)
        sim.run_to_event(10, until=2.5)
        assert (sim.now, sim.events_executed) == (2.0, 2)


class TestMidBlockCheckpoint:
    """The WAN model reads its normals from blocks of 1,024; a checkpoint
    falls inside one, and the block position is part of the state."""

    def test_mid_block_checkpoint_restores_to_the_fresh_run(self, tmp_path):
        config = smoke_config(n_clients=4, duration_s=200.0,
                              checkpoint_every_s=60.0,
                              checkpoint_dir=str(tmp_path / "fresh"))
        fresh = _digest(run_experiment(config))
        killed = config.with_(checkpoint_dir=str(tmp_path / "killed"))
        built = build_experiment(killed)
        built.sim.run(until=130.0)
        abort_experiment(built, RuntimeError("simulated kill"))
        path = newest_checkpoint(str(tmp_path / "killed"))
        probe = build_experiment(killed)
        probe.checkpointer.suspend()
        probe.sim.run_to_event(read_snapshot(path)["event_count"])
        latency = rng_state(probe)["latency"]
        assert 1 < latency["block_pos"] < 1024  # inside a block
        assert _digest(resume_experiment(path)) == fresh

    def test_resume_pair_reports_identical(self, capsys):
        from repro.cli import main
        assert main(["diff", "--pair", "resume", "--duration", "200"]) == 0
        assert "IDENTICAL" in capsys.readouterr().out

    def test_block_position_reaches_the_rng_digest(self):
        from repro.sim.snapshot import snapshot_experiment
        built = build_experiment(smoke_config(n_clients=4, duration_s=120.0))
        built.sim.run(until=60.0)
        model = built.network.latency
        while not 0 < model._pos < len(model._z) - 1:
            model._next()
        before = snapshot_experiment(built)["digests"]
        stream = model.rng.bit_generator.state
        model._next()  # one more normal read from the block: no new draw
        assert model.rng.bit_generator.state == stream
        after = snapshot_experiment(built)["digests"]
        assert after["rng"] != before["rng"]
        assert {k: v for k, v in after.items() if k != "rng"} == \
            {k: v for k, v in before.items() if k != "rng"}

"""Snapshot format, codec, atomic writes, and round-trip properties."""

import json
import os
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.invariants import check_snapshot_invariants
from repro.experiments.configs import canonical_gt4, smoke_config
from repro.experiments.runner import build_experiment
from repro.sim.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    capture_state,
    checkpoint_filename,
    decode_config,
    encode_config,
    newest_checkpoint,
    read_snapshot,
    resume_experiment,
    snapshot_experiment,
    state_digest,
    write_snapshot,
)


#: How a refusal by version names this build's.
_READS = f"reads version {SNAPSHOT_VERSION}"
_SECTIONS = ("clients", "control", "dps", "grid", "kernel", "rng")


def _config(**overrides):
    return smoke_config(n_clients=4, duration_s=120.0, **overrides)


class TestConfigCodec:
    def test_round_trip_smoke(self):
        config = _config()
        assert decode_config(encode_config(config)) == config

    def test_round_trip_survives_json(self):
        config = _config()
        blob = json.dumps(encode_config(config))
        assert decode_config(json.loads(blob)) == config

    def test_round_trip_nested_dataclasses(self):
        from repro.control import AutoscaleConfig
        from repro.resilience import ResilienceConfig
        config = canonical_gt4(3, duration_s=300.0,
                               resilience=ResilienceConfig(),
                               autoscale=AutoscaleConfig())
        restored = decode_config(json.loads(json.dumps(
            encode_config(config))))
        assert restored == config
        # tuple-ness restored (JSON lists them)
        assert isinstance(restored.job_model.cpu_choices, tuple)


class TestOnDiskFormat:
    def test_write_read_round_trip(self, tmp_path):
        built = build_experiment(_config())
        built.sim.run(until=60.0)
        snap = snapshot_experiment(built)
        path = write_snapshot(snap, str(tmp_path / "s.json"))
        # JSON turns tuples into lists, so compare canonically.
        reread = read_snapshot(path)
        assert reread == json.loads(json.dumps(snap))
        assert sorted(reread) == ["config", "digests", "event_count",
                                  "sinks", "time"]

    def test_crc_detects_corruption(self, tmp_path):
        built = build_experiment(_config())
        built.sim.run(until=30.0)
        path = write_snapshot(snapshot_experiment(built),
                              str(tmp_path / "s.json"))
        doc = json.loads(open(path).read())
        doc["snapshot"]["time"] += 1.0
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(SnapshotError, match="CRC"):
            read_snapshot(path)

    def test_rejects_foreign_and_future_files(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"hello": 1}')
        with pytest.raises(SnapshotError, match="not a"):
            read_snapshot(str(p))
        p.write_text(json.dumps({
            "meta": {"format": "digruber-snapshot", "version": 99,
                     "crc": "0"},
            "snapshot": {}}))
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(str(p))

    def test_truncated_file_rejected(self, tmp_path):
        built = build_experiment(_config())
        built.sim.run(until=30.0)
        path = write_snapshot(snapshot_experiment(built),
                              str(tmp_path / "s.json"))
        blob = open(path).read()
        open(path, "w").write(blob[:len(blob) // 2])
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        built = build_experiment(_config())
        built.sim.run(until=30.0)
        write_snapshot(snapshot_experiment(built), str(tmp_path / "s.json"))
        assert os.listdir(tmp_path) == ["s.json"]


def _legacy_write(snapshot, path):
    """``write_snapshot`` as it stood before bodies were written in their
    canonical form: the same envelope and CRC, the body in insertion
    order with default separators."""
    body = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    crc = format(zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, "08x")
    doc = {"meta": {"format": "digruber-snapshot",
                    "version": SNAPSHOT_VERSION, "crc": crc},
           "snapshot": snapshot}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    return path


def _legacy_crc_ok(path):
    """``read_snapshot``'s CRC check as it stood in that build."""
    doc = json.loads(open(path).read())
    body = json.dumps(doc["snapshot"], sort_keys=True, separators=(",", ":"))
    return format(zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF,
                  "08x") == doc["meta"]["crc"]


class TestEncodeOnce:
    def test_assembled_body_equals_one_canonical_encoding(self, tmp_path):
        built = build_experiment(_config(decision_points=2))
        built.sim.run(until=90.0)
        snap = snapshot_experiment(built)
        text = open(write_snapshot(snap, str(tmp_path / "s.json"))).read()
        body = json.dumps(snap, sort_keys=True, separators=(",", ":"))
        assert text.endswith(f', "snapshot": {body}}}')
        # The stamped digests are those of the sections captured here.
        assert snap["digests"] == {k: state_digest(v)
                                   for k, v in capture_state(built).items()}

    def test_checkpoint_file_is_the_envelope_around_the_body(self, tmp_path):
        config = _config(checkpoint_every_s=40.0,
                         checkpoint_dir=str(tmp_path))
        built = build_experiment(config)
        built.sim.run(until=config.duration_s)
        assert built.checkpointer.written
        for path in built.checkpointer.written:
            text = open(path).read()
            doc = json.loads(text)
            body = json.dumps(doc["snapshot"], sort_keys=True,
                              separators=(",", ":"))
            assert text == (f'{{"meta": {json.dumps(doc["meta"])}, '
                            f'"snapshot": {body}}}')
            assert _legacy_crc_ok(path)
            read_snapshot(path)

    def test_legacy_written_checkpoint_restores(self, tmp_path):
        from repro.experiments.parallel import summarize, summary_digest
        from repro.experiments.runner import run_experiment
        config = _config()
        fresh = summary_digest(summarize(run_experiment(config)))
        built = build_experiment(config)
        built.sim.run_to_event(300)
        path = _legacy_write(
            snapshot_experiment(built),
            str(tmp_path / checkpoint_filename(built.sim.now, 300)))
        assert newest_checkpoint(str(tmp_path)) == path
        restored = resume_experiment(path)
        assert summary_digest(summarize(restored)) == fresh


def _write_checkpoint(directory, t):
    """A checkpoint of the smoke run at ``t``, named from its body."""
    built = build_experiment(_config())
    built.sim.run(until=t)
    return write_snapshot(snapshot_experiment(built), os.path.join(
        str(directory), checkpoint_filename(t, built.sim.events_executed)))


class TestNewestCheckpoint:
    def test_empty_and_missing_dir(self, tmp_path):
        assert newest_checkpoint(str(tmp_path)) is None
        assert newest_checkpoint(str(tmp_path / "nope")) is None

    def test_picks_highest_valid(self, tmp_path):
        _write_checkpoint(tmp_path, 30.0)
        newest = _write_checkpoint(tmp_path, 60.0)
        assert newest_checkpoint(str(tmp_path)) == newest

    def test_skips_corrupt_newest(self, tmp_path):
        """Crash-mid-write: a truncated newest candidate is skipped and
        the previous valid checkpoint restores instead."""
        older = _write_checkpoint(tmp_path, 30.0)
        newest = _write_checkpoint(tmp_path, 60.0)
        blob = open(newest).read()
        open(newest, "w").write(blob[:200])  # SIGKILL mid-write
        assert newest_checkpoint(str(tmp_path)) == older

    def test_ignores_inflight_tmp_files(self, tmp_path):
        older = _write_checkpoint(tmp_path, 30.0)
        (tmp_path / (checkpoint_filename(60.0, 200) + ".tmp.123")) \
            .write_text("{half a writ")
        assert newest_checkpoint(str(tmp_path)) == older


#: The config fields v1 checkpoints carry and this build retired,
#: spelled in halves so a repo-wide grep for the retired knobs stays
#: empty.
_RETIRED = {"fast" + "_paths": True, "state" + "_index": None,
            "batch" + "_dispatch": True, "vectorized" + "_sites": True}


def _restamp(doc, path, version):
    """Write ``doc`` back as ``version`` with a CRC valid for its body."""
    body = json.dumps(doc["snapshot"], sort_keys=True, separators=(",", ":"))
    doc["meta"].update(
        version=version,
        crc=format(zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, "08x"))
    open(path, "w").write(json.dumps(doc))


def _restamp_as_v1(path):
    """Rewrite a checkpoint the way the last v1 build wrote it: version
    1, the four retired variant knobs in the embedded config, and a CRC
    that is valid for that body."""
    doc = json.loads(open(path).read())
    doc["snapshot"]["config"].update(_RETIRED)
    _restamp(doc, path, version=1)


#: The observability knobs v3 checkpoints carry and this build retired
#: (two became module constants, per-row flushing became unconditional).
_RETIRED_V3 = {"trace" + "_capacity": 65536, "telemetry" + "_capacity": 512,
               "serve" + "_telemetry": False}


def _restamp_as_v3(path):
    """Rewrite a checkpoint the way the last v3 build wrote it: the
    three retired observability knobs in the embedded config, a
    ``telemetry`` sink offset even for a file-less sampler, and a CRC
    valid for that body."""
    doc = json.loads(open(path).read())
    doc["snapshot"]["config"].update(_RETIRED_V3)
    doc["snapshot"]["sinks"] = {"telemetry": 0}
    _restamp(doc, path, version=3)


#: The settings v4 checkpoints carry and this build fixed as constants
#: (the paper's static random assignment, PlanetLab WAN and one-second
#: cadence; the least-used spread; one drop path; a path arms the
#: flight recorder).
_RETIRED_V4 = {"client" + "_assignment": "random",
               "wan" + "_median_ms": 60.0, "wan" + "_sigma": 0.6,
               "wan" + "_loss_rate": 0.0, "inter" + "arrival_s": 1.0,
               "selector" + "_spread": 0.85, "flight" + "_enabled": False}


def _restamp_as_v4(path):
    """Rewrite a checkpoint the way the last v4 build wrote it: the
    seven retired settings in the embedded config, a valid CRC."""
    doc = json.loads(open(path).read())
    doc["snapshot"]["config"].update(_RETIRED_V4)
    _restamp(doc, path, version=4)


def _restamp_as(path, version, **extra):
    """Rewrite a checkpoint's head as a ``version`` build wrote it (plus
    ``extra`` members), with a CRC valid for that body.  A version
    refusal reads only the head, so no older state body is rebuilt."""
    doc = json.loads(open(path).read())
    doc["snapshot"].update(extra)
    _restamp(doc, path, version=version)


def _restamp_overcounted(path, version):
    """Rewrite a checkpoint the way a v2 or v5 build wrote it: those
    builds also counted kernel events this build never executes (v2: a
    wake-up per arrival; v5: the same-instant hops of generator
    brokering), so the count lies past this build's boundary."""
    doc = json.loads(open(path).read())
    _restamp_as(path, version, event_count=2 * doc["snapshot"]["event_count"])


#: The ``state`` body and whole-state ``digest`` a v7 file of the builds
#: that still wrote the state carried beside its head (shape only).
_V7_BODY = {"state": {section: {} for section in _SECTIONS},
            "digest": "00000000"}


class TestStaleCheckpoints:
    """Checkpoints written before a config field was retired must fail
    by name, never by traceback — and never be half-read."""

    def test_decode_names_unknown_and_missing_fields(self):
        d = encode_config(_config())
        with pytest.raises(SnapshotError, match="unknown fields: "
                           + ", ".join(sorted(_RETIRED))):
            decode_config({**d, **_RETIRED})
        d.pop("seed")
        with pytest.raises(SnapshotError, match="missing fields: seed"):
            decode_config(d)

    def test_decode_wraps_malformed_nested_values(self):
        d = encode_config(_config())
        d["profile"] = {"no_such_field": 1}
        with pytest.raises(SnapshotError, match="cannot be rebuilt"):
            decode_config(d)

    def test_newest_checkpoint_skips_stale_version(self, tmp_path):
        older = _write_checkpoint(tmp_path, 30.0)
        _restamp_as_v1(_write_checkpoint(tmp_path, 60.0))
        assert newest_checkpoint(str(tmp_path)) == older
        _restamp_as_v1(older)
        assert newest_checkpoint(str(tmp_path)) is None

    @pytest.mark.parametrize("extra", [[], ["--obs"]],
                             ids=["monolithic", "with-obs"])
    def test_cli_restore_exits_2_with_one_line_error(self, tmp_path, capsys,
                                                     extra):
        from repro.cli import main
        path = _write_checkpoint(tmp_path, 60.0)
        _restamp_as_v1(path)
        assert main(["run", "--restore", path, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "snapshot version 1" in err and _READS in err

    def test_pre_cursor_v2_checkpoint_is_refused_by_version(self, tmp_path):
        """A v2 file's ``event_count`` includes one wake-up per arrival
        that this build never executes: replaying to it would overshoot
        the checkpoint instant, so it is refused, not replayed."""
        from repro.cli import main
        older = _write_checkpoint(tmp_path, 30.0)
        path = _write_checkpoint(tmp_path, 60.0)
        _restamp_overcounted(path, 2)
        with pytest.raises(SnapshotError,
                           match=f"snapshot version 2.*{_READS}"):
            read_snapshot(path)
        assert newest_checkpoint(str(tmp_path)) == older
        with pytest.raises(SnapshotError, match="snapshot version 2"):
            resume_experiment(path)
        assert main(["run", "--restore", path]) == 2

    def test_v3_checkpoint_with_retired_obs_knobs_is_refused_by_name(
            self, tmp_path):
        """A v3 file embeds the three retired observability knobs:
        skipped when picking a restore candidate, refused by version on
        an explicit restore, and — were the version check ever
        bypassed — refused by field name."""
        from repro.cli import main
        older = _write_checkpoint(tmp_path, 30.0)
        path = _write_checkpoint(tmp_path, 60.0)
        _restamp_as_v3(path)
        assert newest_checkpoint(str(tmp_path)) == older
        with pytest.raises(SnapshotError,
                           match=f"snapshot version 3.*{_READS}"):
            resume_experiment(path)
        assert main(["run", "--restore", path]) == 2
        config = json.loads(open(path).read())["snapshot"]["config"]
        with pytest.raises(SnapshotError, match="unknown fields: "
                           + ", ".join(sorted(_RETIRED_V3))):
            decode_config(config)

    @pytest.mark.parametrize("extra", [[], ["--obs"]],
                             ids=["monolithic", "with-obs"])
    def test_v5_checkpoint_counting_brokering_hops_is_refused_by_version(
            self, tmp_path, capsys, extra):
        """A v5 file's ``event_count`` includes the zero-delay kernel
        hops of generator brokering, which this build never executes:
        replaying to it would overshoot the checkpoint instant.  Refused
        when read, skipped when picking a restore candidate, one
        ``error:`` line from ``run --restore`` (with or without the one
        flag it accepts)."""
        from repro.cli import main
        older = _write_checkpoint(tmp_path, 30.0)
        path = _write_checkpoint(tmp_path, 60.0)
        _restamp_overcounted(path, 5)
        with pytest.raises(SnapshotError,
                           match=f"snapshot version 5.*{_READS}"):
            read_snapshot(path)
        assert newest_checkpoint(str(tmp_path)) == older
        assert main(["run", "--restore", path, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "snapshot version 5" in err and _READS in err

    @pytest.mark.parametrize("extra", [[], ["--obs"]],
                             ids=["monolithic", "with-obs"])
    def test_v6_checkpoint_of_json_records_is_refused_by_version(
            self, tmp_path, capsys, extra):
        """A v6 file holds its numeric sections as JSON record lists and
        its ``wan`` stream one draw at a time: refused when read (naming
        both versions), skipped when picking a restore candidate, one
        ``error:`` line from ``run --restore`` (with or without the one
        flag it accepts)."""
        from repro.cli import main
        older = _write_checkpoint(tmp_path, 30.0)
        path = _write_checkpoint(tmp_path, 60.0)
        _restamp_as(path, 6)
        with pytest.raises(SnapshotError,
                           match=f"snapshot version 6.*{_READS}"):
            read_snapshot(path)
        assert newest_checkpoint(str(tmp_path)) == older
        assert main(["run", "--restore", path, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "snapshot version 6" in err and _READS in err

    @pytest.mark.parametrize("body", [{}, _V7_BODY],
                             ids=["head", "state-body"])
    def test_v7_checkpoint_is_refused_by_version(self, tmp_path, capsys,
                                                 body):
        """A v7 file's digests hash the base64 text of packed columns,
        which no replay of this build re-derives; a v7 file that still
        carries the state body is refused the same way, its body never
        read.  Skipped when picking a restore candidate, one ``error:``
        line naming both versions from ``run --restore``."""
        from repro.cli import main
        older = _write_checkpoint(tmp_path, 30.0)
        path = _write_checkpoint(tmp_path, 60.0)
        _restamp_as(path, 7, **body)
        with pytest.raises(SnapshotError,
                           match=f"snapshot version 7.*{_READS}"):
            read_snapshot(path)
        assert newest_checkpoint(str(tmp_path)) == older
        assert main(["run", "--restore", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "snapshot version 7" in err and _READS in err

    @pytest.mark.parametrize("extra", [[], ["--obs"]],
                             ids=["monolithic", "with-obs"])
    def test_v4_checkpoint_with_retired_settings_is_refused_by_name(
            self, tmp_path, capsys, extra):
        """A v4 file embeds the seven settings that became constants:
        refused by version when read, skipped when picking a restore
        candidate, one ``error:`` line from ``run --restore`` (with or
        without ``--obs``) — and, were the version check ever bypassed,
        refused by field name."""
        from repro.cli import main
        older = _write_checkpoint(tmp_path, 30.0)
        path = _write_checkpoint(tmp_path, 60.0)
        _restamp_as_v4(path)
        with pytest.raises(SnapshotError,
                           match=f"snapshot version 4.*{_READS}"):
            read_snapshot(path)
        assert newest_checkpoint(str(tmp_path)) == older
        assert main(["run", "--restore", path, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "snapshot version 4" in err and _READS in err
        config = json.loads(open(path).read())["snapshot"]["config"]
        with pytest.raises(SnapshotError, match="unknown fields: "
                           + ", ".join(sorted(_RETIRED_V4))):
            decode_config(config)

    def test_campaign_reruns_cells_whose_checkpoints_are_stale(
            self, tmp_path):
        from repro.experiments.campaign import campaign_manifest, run_campaign
        cells = [_config(name="cell-a"), _config(name="cell-b", seed=9)]
        fresh = run_campaign(cells, str(tmp_path / "fresh"),
                             checkpoint_every_s=40.0, max_workers=1)
        out = str(tmp_path / "stale")
        run_campaign(cells, out, checkpoint_every_s=40.0, max_workers=1)
        for cell in ("cell-a", "cell-b"):  # killed cells, v1 leftovers
            os.remove(os.path.join(out, "cells", cell, "result.json"))
            ckpts = os.path.join(out, "cells", cell, "checkpoints")
            for name in os.listdir(ckpts):
                _restamp_as_v1(os.path.join(ckpts, name))
        assert campaign_manifest(out, cells)["pending"] == ["cell-a", "cell-b"]
        resumed = run_campaign(cells, out, checkpoint_every_s=40.0,
                               max_workers=1)
        assert resumed == fresh and resumed["pass_campaign"]


def _resign(path, field, edit):
    """Replace the head's ``field`` with ``edit(old value)`` (drop it when
    that returns ``_DROP``) and re-sign the file's CRC."""
    doc = json.loads(open(path).read())
    snap = doc["snapshot"]
    value = edit(snap.get(field))
    if value is _DROP:
        del snap[field]
    else:
        snap[field] = value
    _restamp(doc, path, version=SNAPSHOT_VERSION)


_DROP = object()


class TestDamagedColumns:
    """A file re-signed after one section digest was altered is well
    formed, so only its replay can refuse it: by section name, and from
    the CLI in one ``error:`` line."""

    @pytest.mark.parametrize("section", _SECTIONS)
    def test_flipped_bit_is_refused_by_replay(self, tmp_path, section,
                                              capsys):
        from repro.cli import main
        path = _write_checkpoint(tmp_path, 60.0)
        _resign(path, "digests", lambda digests: {
            **digests, section: format(int(digests[section], 16) ^ 1, "08x")})
        read_snapshot(path)  # well-formed: only the replay can tell
        with pytest.raises(SnapshotError,
                           match=f"diverged .* subsystem\\(s\\): {section}$"):
            resume_experiment(path)
        assert main(["run", "--restore", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert section in err and "Traceback" not in err


def _bump_record_cpus(built):
    view = built.deployment.decision_points["dp0"].engine.view
    rec = next(iter(view._live.values()))[2]
    object.__setattr__(rec, "cpus", rec.cpus + 1)


def _bump_busy_cpus(built):
    built.grid.sites[sorted(built.grid.sites)[0]].busy_cpus += 1


def _bump_heap_time(built):
    heap = built.sim._heap
    time, seq, call = heap[-1]
    heap[-1] = (time + 1.0, seq, call)


def _flip_inc_word(built):
    bit_generator = built.rng.stream("wan").bit_generator
    state = bit_generator.state
    state["state"]["inc"] ^= 2  # stays odd, as PCG64 requires
    bit_generator.state = state


class TestDigestCoversTheBytes:
    """A digest hashes the captured values, not only their shape: one
    bulk value changed in the live run moves exactly its section's
    digest (a hook hashing ``[dtype, length]`` alone would not)."""

    @pytest.mark.parametrize("section, perturb", [
        ("dps", _bump_record_cpus), ("grid", _bump_busy_cpus),
        ("kernel", _bump_heap_time), ("rng", _flip_inc_word),
    ], ids=["dps", "grid", "kernel", "rng"])
    def test_one_value_moves_its_section_only(self, section, perturb):
        built = build_experiment(_config(decision_points=2))
        built.sim.run(until=60.0)
        before = _digests(built)
        perturb(built)
        after = _digests(built)
        assert [s for s in _SECTIONS if after[s] != before[s]] == [section]


def _hostile(tmp_path, field, edit):
    """An older valid checkpoint, and a newer one whose ``field`` was
    edited and re-signed (its CRC holds)."""
    older = _write_checkpoint(tmp_path, 30.0)
    path = _write_checkpoint(tmp_path, 60.0)
    _resign(path, field, edit)
    return older, path


def _refused_by_name(tmp_path, field, edit):
    older, path = _hostile(tmp_path, field, edit)
    with pytest.raises(SnapshotError, match=f"{field} is .*, not "):
        read_snapshot(path)
    assert newest_checkpoint(str(tmp_path)) == older


class TestHostileHeads:
    """A head the restore reads is checked field by field when the file
    is read: a re-signed edit is refused naming the field (and skipped
    as a restore candidate), never replayed, hung on or crashed into."""

    @pytest.mark.parametrize("value", ["x", None, [1]])
    def test_config(self, tmp_path, value):
        _refused_by_name(tmp_path, "config", lambda _: value)

    @pytest.mark.parametrize("value", ["x", -5, 1.5, True, None, _DROP])
    def test_event_count(self, tmp_path, value):
        _refused_by_name(tmp_path, "event_count", lambda _: value)

    @pytest.mark.parametrize("value", ["x", -1.0, 120.5, float("inf"),
                                       float("nan"), None])
    def test_time(self, tmp_path, value):
        # ``_config()`` runs 120 s: 120.5 lies past the run's end.
        _refused_by_name(tmp_path, "time", lambda _: value)

    @pytest.mark.parametrize("edit", [
        lambda d: {k: v for k, v in d.items() if k != "grid"},
        lambda d: {**d, "extra": "00000000"},
        lambda d: {**d, "grid": d["grid"][:7]},
        lambda d: {**d, "grid": d["grid"].upper() + "A"},
        lambda d: {**d, "grid": d["grid"].upper()},
        lambda d: {**d, "grid": int(d["grid"], 16)},
        lambda d: list(d),
    ], ids=["missing", "extra", "short", "long", "upper", "int", "list"])
    def test_digests(self, tmp_path, edit):
        _refused_by_name(tmp_path, "digests", edit)

    @pytest.mark.parametrize("value", [{"trace": -1}, {"trace": "7"},
                                       {"trace": 1.5}, [], None])
    def test_sinks(self, tmp_path, value):
        _refused_by_name(tmp_path, "sinks", lambda _: value)

    def test_name_that_disagrees_with_the_body_is_skipped(self, tmp_path):
        older = _write_checkpoint(tmp_path, 30.0)
        path = _write_checkpoint(tmp_path, 60.0)
        count = read_snapshot(path)["event_count"]
        os.rename(path, str(tmp_path / checkpoint_filename(60.0, count + 1)))
        assert newest_checkpoint(str(tmp_path)) == older

    @pytest.mark.parametrize("count", ["x", -5, 10 ** 9])
    def test_cli_restore_exits_2_with_one_line(self, tmp_path, capsys,
                                               count):
        """``10**9`` is a well-formed count past the run's end: the
        replay stops at the snapshot's instant and the restore says it
        stopped short, instead of stepping on past ``duration_s``."""
        from repro.cli import main
        _, path = _hostile(tmp_path, "event_count", lambda _: count)
        assert main(["run", "--restore", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "event" in err and "Traceback" not in err


class TestSnapshotInvariants:
    def test_capture_is_read_only_and_stable(self):
        built = build_experiment(_config())
        built.sim.run(until=90.0)
        check_snapshot_invariants(built)

    def test_digest_is_canonical_crc(self):
        state = {"b": 2, "a": [1, 2.5, None]}
        blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
        assert state_digest(state) == format(
            zlib.crc32(blob.encode()) & 0xFFFFFFFF, "08x")

    def test_arrays_chain_their_bytes_in_key_order(self):
        """An array stands in the JSON as ``[dtype, length]`` after its
        bytes have been chained into the CRC, keys in sorted order; any
        other non-JSON value (a numpy scalar) is refused."""
        a, b = np.arange(3, dtype="<i8"), np.array([0.5], "<f8")
        crc = zlib.crc32(a.tobytes())
        crc = zlib.crc32(b.tobytes(), crc)
        text = '{"a":["<i8",3],"b":{"c":["<f8",1]},"d":"x"}'
        assert state_digest({"d": "x", "b": {"c": b}, "a": a}) == format(
            zlib.crc32(text.encode(), crc), "08x")
        with pytest.raises(TypeError, match="int64"):
            state_digest({"n": np.int64(3)})


def _digests(built):
    return {section: state_digest(value)
            for section, value in capture_state(built).items()}


class TestRoundTripProperty:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(boundary=st.integers(min_value=50, max_value=1500))
    def test_snapshot_restore_snapshot_byte_stable(self, boundary):
        """snapshot -> replay-restore -> snapshot is byte-stable at an
        arbitrary event boundary, not just checkpoint-tick boundaries."""
        config = _config(seed=4242)
        a = build_experiment(config)
        a.sim.run_to_event(boundary)
        snap = snapshot_experiment(a)
        assert snap["event_count"] == boundary

        b = build_experiment(config)
        b.sim.run_to_event(boundary)
        again = snapshot_experiment(b)
        assert json.dumps(snap, sort_keys=True) == \
            json.dumps(again, sort_keys=True)

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(t=st.floats(min_value=10.0, max_value=110.0,
                       allow_nan=False, allow_infinity=False))
    def test_capture_at_arbitrary_time_is_stable(self, t):
        config = _config(seed=777)
        a = build_experiment(config)
        a.sim.run(until=t)
        b = build_experiment(config)
        b.sim.run(until=t)
        assert _digests(a) == _digests(b)

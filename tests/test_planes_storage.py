"""The opt-in planes store records, not objects, and emit the same bytes.

* spans are rows: the exported JSONL and Chrome files are pinned by CRC
  (taken from the object-per-span recorder) and a recorded span costs a
  bounded number of retained bytes;
* checkpoints are heads: every tick's file is the meta envelope around
  the canonical encoding of :func:`snapshot_experiment`, and one tick's
  allocation peak stays below twice the state-carrying file a tick
  used to write at that instant;
* the job table is one table: ``job_arrays()`` views the recorder's own
  columns, so finalize holds no second copy;
* the state-view audit compares the per-site facts as arrays and words
  exactly the problems the per-site scalar rules word;
* an unwritable checkpoint directory is refused at build, and a write
  that fails mid-run is a :class:`SnapshotError`, not a traceback.
"""

import dataclasses
import errno
import gc
import json
import math
import os
import random
import tracemalloc
import zlib

import numpy as np
import pytest

import repro.sim.snapshot as snapshot_module
from repro.cli import main
from repro.experiments.configs import canonical_gt3, smoke_config
from repro.experiments.runner import (build_experiment, finalize_experiment,
                                      run_built, run_experiment)
from repro.sim.snapshot import (SNAPSHOT_VERSION, Checkpointer, SnapshotError,
                                capture_state, read_snapshot,
                                snapshot_experiment, state_digest)

#: CRC32 of each export of ``canonical_gt3(3)`` @600 s, default seed, as
#: the object-per-span recorder wrote them: (jsonl, chrome) per sample.
SPAN_EXPORT_CRCS = {1: ("fb8bac21", "4a55fc7e"), 4: ("4db73c02", "3a5e7c58")}


def _crc(path) -> str:
    with open(path, "rb") as fh:
        return format(zlib.crc32(fh.read()), "08x")


class TestSpanRows:
    @pytest.mark.parametrize("sample", sorted(SPAN_EXPORT_CRCS))
    def test_exports_match_the_object_recorder(self, tmp_path, sample):
        jsonl, chrome = tmp_path / "spans.jsonl", tmp_path / "chrome.json"
        result = run_experiment(canonical_gt3(
            3, duration_s=600.0, spans_enabled=True, spans_sample=sample,
            spans_path=str(jsonl)))
        result.sim.spans.export_chrome(str(chrome))
        assert (_crc(jsonl), _crc(chrome)) == SPAN_EXPORT_CRCS[sample]

    def test_a_dropped_root_is_counted_not_stored(self):
        built = build_experiment(canonical_gt3(
            3, duration_s=300.0, spans_enabled=True, spans_sample=4))
        built.sim.run(until=300.0)
        spans = built.sim.spans
        roots = [row for row, parent in enumerate(spans._parent)
                 if parent < 0]
        assert spans.roots_dropped > 3 * len(roots) - 10
        assert len(roots) == spans.roots_sampled
        assert spans.roots_seen == spans.roots_sampled + spans.roots_dropped
        assert all(spans._trace[row] == spans._trace[spans._parent[row]]
                   for row in range(len(spans)) if spans._parent[row] >= 0)

    def test_retained_bytes_per_span(self):
        """Bytes a sample-1 run keeps for its spans, over the same run with
        spans off, per recorded span (393 B with a ``Span`` per span)."""
        def retained(spans_enabled):
            built = build_experiment(canonical_gt3(
                3, duration_s=300.0, spans_enabled=spans_enabled))
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                built.sim.run(until=300.0)
                gc.collect()
                return (tracemalloc.get_traced_memory()[0] - before,
                        len(built.sim.spans))
            finally:
                tracemalloc.stop()

        off, _ = retained(False)
        on, n_spans = retained(True)
        assert n_spans > 5000
        assert (on - off) / n_spans <= 200


def _checked_ticks(monkeypatch, seen):
    """Wrap ``Checkpointer.tick``: after each write, the file must be the
    envelope around the canonical encoding of a fresh snapshot."""
    tick = Checkpointer.tick

    def checking(self):
        tick(self)
        if self.suspended:
            return
        path = self.written[-1]
        body = json.dumps(snapshot_experiment(self.built), sort_keys=True,
                          separators=(",", ":"))
        meta = {"format": "digruber-snapshot", "version": SNAPSHOT_VERSION,
                "crc": format(zlib.crc32(body.encode()), "08x")}
        with open(path) as fh:
            assert fh.read() == (f'{{"meta": {json.dumps(meta)}, '
                                 f'"snapshot": {body}}}')
        read_snapshot(path)
        seen.append(path)

    monkeypatch.setattr(Checkpointer, "tick", checking)


class _WriteOnly:
    """A file being written that refuses every read."""

    def __init__(self, fh):
        self._fh = fh

    def __getattr__(self, name):
        if name.startswith("read"):
            raise AssertionError(f"{name}() on a file being written")
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def _open_write_only(path, mode="r", *args, **kw):
    fh = open(path, mode, *args, **kw)
    return _WriteOnly(fh) if "w" in mode else fh


#: Bytes of the ``canonical_gt3(3)`` checkpoint at t=1,800 s when a
#: file carried the whole state body; a tick's peak is held below twice
#: it now that the file is a ~1.6 KB head.
STATE_FILE_AT_1800_S = 670_595


class TestStreamedCheckpoints:
    @pytest.mark.parametrize("seed", range(3))
    def test_stamped_crc_is_the_body_crc_without_reading_it_back(
            self, tmp_path, monkeypatch, seed):
        # Three run seeds, and a tmp file that refuses reads.  Each
        # tick's stamped digests are those of its sections captured
        # again at the same instant.
        monkeypatch.setattr(snapshot_module, "open", _open_write_only,
                            raising=False)
        whole = {}
        tick = Checkpointer.tick

        def capturing(self):
            tick(self)
            whole[self.written[-1]] = {
                name: state_digest(value)
                for name, value in capture_state(self.built).items()}

        monkeypatch.setattr(Checkpointer, "tick", capturing)
        result = run_experiment(canonical_gt3(
            3, duration_s=300.0, seed=seed, checkpoint_every_s=60.0,
            checkpoint_dir=str(tmp_path / "ck")))
        written = result.checkpointer.written
        written.append(snapshot_module.write_snapshot(
            {"x": [1.5, "y"]}, str(tmp_path / "s.json")))
        for path in written:
            raw = open(path, "rb").read()
            body = raw[raw.index(b'"snapshot": ') + 12:-1]
            stamped = json.loads(raw)["meta"]["crc"]
            assert stamped == format(zlib.crc32(body), "08x")
        for path in written[:-1]:  # the five ticks' heads read back
            assert read_snapshot(path)["digests"] == whole[path]
        assert len(written) == 6 and len(whole) == 5

    def test_every_tick_writes_the_canonical_snapshot(self, tmp_path,
                                                      monkeypatch):
        seen = []
        _checked_ticks(monkeypatch, seen)
        run_experiment(canonical_gt3(
            3, duration_s=600.0, spans_enabled=True, spans_sample=4,
            check_enabled=True, telemetry_enabled=True,
            telemetry_path=str(tmp_path / "t.jsonl"),
            checkpoint_every_s=60.0, checkpoint_dir=str(tmp_path / "ck")))
        assert len(seen) == 10

    def test_tick_peak_is_below_twice_the_file(self, tmp_path):
        built = build_experiment(canonical_gt3(
            3, duration_s=1800.0, checkpoint_every_s=300.0,
            checkpoint_dir=str(tmp_path)))
        checkpointer = built.checkpointer
        checkpointer.suspend()
        built.sim.run(until=1799.0)
        checkpointer.resume()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            checkpointer.tick()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert os.path.getsize(checkpointer.written[-1]) < 16_384
        assert peak <= 2 * STATE_FILE_AT_1800_S


class TestOneJobTable:
    def test_views_of_the_recorder_columns(self):
        built = build_experiment(smoke_config(n_clients=8, duration_s=600.0))
        built.sim.run(until=600.0)
        # Rows are closed in completion order, so the sort has work to do.
        assert (np.diff(np.array(built.trace._jobs["jid"])) < 0).any()
        result = finalize_experiment(built)
        trace, table = result.trace, result._jobs
        again = trace.job_arrays()
        assert table.keys() == again.keys()
        for name, column in table.items():
            assert np.array_equal(column, again[name],
                                  equal_nan=column.dtype == np.float64), name
            if column.dtype != object:  # no second copy of a number
                assert np.shares_memory(column, again[name]), name
        assert (np.diff(table["jid"]) > 0).all()
        with pytest.raises(BufferError):  # the table is closed
            trace._jobs["jid"].append(10 ** 9)


def legacy_audit(view) -> list[str]:
    """``GridStateView.audit`` as it stood with one scalar pass per site."""
    problems = []
    vo_sums = {}
    for (site, consumer), busy in view._vo_busy.items():
        if busy <= 0.0:
            problems.append(
                f"non-positive vo_busy[{site},{consumer}]={busy}")
        if "." not in consumer:
            vo_sums[site] = vo_sums.get(site, 0.0) + busy
    for site, i in view._col.items():
        extra = sum(entry[2].cpus for entry in view._records[i] or ())
        if extra != view._extra_busy[i]:
            problems.append(
                f"extra_busy[{site}]={view._extra_busy[i]} but site "
                f"heap holds {extra} CPUs")
        if vo_sums.get(site, 0.0) != view._extra_busy[i]:
            problems.append(
                f"vo_busy sum {vo_sums.get(site, 0.0)} != "
                f"extra_busy[{site}]={view._extra_busy[i]}")
        cap = view.capacities[site]
        base = view._base_busy[i]
        if not (0.0 <= base <= cap):
            problems.append(f"base_busy[{site}]={base} outside [0, {cap}]")
        busy = min(max(base + view._extra_busy[i], 0.0), cap)
        free = float(view._free[i])
        if free != cap - busy:
            problems.append(
                f"free[{site}]={free} != recomputed {cap - busy}")
    if len(view._live) != view.n_records:
        problems.append(
            f"live table holds {len(view._live)} records but the site "
            f"heaps hold {view.n_records}")
    return problems


class TestAuditEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_corruptions_word_the_same_problems(self, seed):
        built = build_experiment(canonical_gt3(3, duration_s=600.0,
                                               seed=seed))
        built.sim.run(until=600.0)
        view = next(iter(built.deployment.decision_points.values())
                    ).engine.view
        assert view.audit() == legacy_audit(view) == []
        rng = random.Random(seed)
        values = (0.0, -0.0, 1.0, 2.5, -3.0, 1e17, math.nan, math.inf)
        sites = list(view.capacities)
        flagged = 0
        for step in range(120):
            site = rng.choice(sites)
            i = view._col[site]
            kind = rng.randrange(5)
            if kind == 0:
                view._extra_busy[i] += rng.choice((1.0, -1.0, 0.5))
            elif kind == 1:
                view._base_busy[i] = rng.choice(
                    values + (float(view.capacities[site]),))
            elif kind == 2:
                view._free[i] = rng.choice(values)
            elif kind == 3 and view._vo_busy:
                key = rng.choice(list(view._vo_busy))
                view._vo_busy[key] = rng.choice(values + (7.0,))
            else:
                heaps = [h for h in view._records if h]
                heap = rng.choice(heaps)
                i = rng.randrange(len(heap))
                entry = heap[i]
                heap[i] = (entry[:2] + (dataclasses.replace(
                    entry[2], cpus=entry[2].cpus + rng.choice((1, 5))),)
                    + entry[3:])
            got = view.audit()
            assert got == legacy_audit(view), step
            flagged += bool(got)
        assert flagged > 100


class TestCheckpointDirectory:
    def test_unwritable_dir_is_refused_at_build(self, tmp_path):
        blocker = tmp_path / "F"
        blocker.write_text("")
        config = smoke_config(n_clients=4, duration_s=400.0,
                              checkpoint_every_s=60.0,
                              checkpoint_dir=str(blocker / "ck"))
        with pytest.raises(ValueError, match="checkpoint directory .*F/ck"):
            run_experiment(config)

    def test_unwritable_dir_cli_exits_2_with_one_line(self, tmp_path, capsys):
        blocker = tmp_path / "F"
        blocker.write_text("")
        code = main(["run", "--dps", "3", "--duration", "400",
                     "--checkpoint-every", "60",
                     "--checkpoint-dir", str(blocker / "ck")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(blocker / "ck") in err and "Traceback" not in err

    def test_restore_into_unwritable_dir_exits_2(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        assert main(["run", "--dps", "3", "--duration", "300",
                     "--checkpoint-every", "150",
                     "--checkpoint-dir", str(ck)]) == 0
        saved = tmp_path / "c150.json"
        os.rename(next(ck.glob("ckpt-0000000150-*.json")), saved)
        for name in os.listdir(ck):
            os.remove(ck / name)
        ck.rmdir()
        ck.write_text("")  # the run's checkpoint dir is a file now
        capsys.readouterr()
        assert main(["run", "--restore", str(saved)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "checkpoint directory" in err

    def test_sharded_unwritable_dir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "F"
        blocker.write_text("")
        assert main(["run", "--shards", "2", "--duration", "300",
                     "--checkpoint-every", "60",
                     "--checkpoint-dir", str(blocker / "ck")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(blocker / "ck") in err

    def _disk_full(self, monkeypatch):
        def fsync(fd):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(snapshot_module.os, "fsync", fsync)

    def test_failed_write_is_a_snapshot_error(self, tmp_path, monkeypatch):
        ck = tmp_path / "ck"
        built = build_experiment(smoke_config(
            n_clients=4, duration_s=400.0, checkpoint_every_s=60.0,
            checkpoint_dir=str(ck), telemetry_enabled=True,
            telemetry_path=str(tmp_path / "t.jsonl")))
        self._disk_full(monkeypatch)
        with pytest.raises(SnapshotError, match=r"cannot write snapshot .*"
                                                r"ckpt-0000000060-"):
            run_built(built)
        assert all(sink.closed for sink in built.sinks.values())
        assert built.sinks and os.listdir(ck) == []  # tmp removed

    def test_failed_write_cli_exits_2_with_one_line(self, tmp_path,
                                                    monkeypatch, capsys):
        self._disk_full(monkeypatch)
        code = main(["run", "--dps", "3", "--duration", "400",
                     "--checkpoint-every", "60",
                     "--checkpoint-dir", str(tmp_path / "ck")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "No space left" in err
        assert os.listdir(tmp_path / "ck") == []

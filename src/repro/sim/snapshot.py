"""Deterministic checkpoint/restore for whole experiment runs.

The snapshot captures a *logical* image of the run at an exact event
boundary: the kernel clock and heap (entries keyed by ``(time, seq,
cancelled, qualname)``), every named RNG stream's bit-generator state,
grid/site queues and busy ledgers, each decision point's view records,
watermarks, USLA store and sync horizons, the control plane's streaks
and cooldowns, and each client's arrival cursor (``next``/``due``
integers, never a backlog list) — all reduced to canonical JSON and
CRC-digested per subsystem.

Live generator frames (the simulated processes) are deliberately *not*
serialized — CPython generators cannot be pickled portably.  Restore is
**verified deterministic replay**: rebuild the run from its embedded
config, scalar-step to exactly the checkpoint's event count, re-capture
the state, and require every subsystem digest to match the snapshot
before continuing.  A restored run is therefore bit-identical to the
uninterrupted run by construction, and ``digruber diff --pair resume``
proves it end to end (journals, spans, telemetry, summary digests).

On-disk format (``write_snapshot``)::

    {"meta": {"format": "digruber-snapshot", "version": 8, "crc": ...},
     "snapshot": {"config": ..., "event_count": ..., "time": ...,
                  "digests": {...}, "sinks": {...}}}

A file is a *replay cursor*: the config to rebuild from, the event count
and instant to replay to, and the evidence the replay must match — the
six section digests and the streaming sinks' byte offsets.  The state
itself is never written: a tick captures each section and keeps only its
digest (:func:`state_digest`).  A section is JSON scalars plus
little-endian numpy arrays (the kernel heap, each view's live records
and per-site columns, the sites' queue/running/VO groups, the RNG
states); one canonical encoder pass digests it, chaining each array's
bytes into the CRC in sorted-key order.

``crc`` covers the canonical (sorted-keys, compact) JSON of the
snapshot, and the snapshot is written in exactly that form.
:func:`read_snapshot` checks the version and then the head field by
field, so a stale, damaged or hand-edited file is refused by name,
never replayed wrong.  Writes are atomic (tmp + ``os.rename``) so a
SIGKILL mid-write never leaves a truncated restore candidate —
``newest_checkpoint`` validates every candidate and skips corrupt or
partial files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import re
import zlib
from typing import TYPE_CHECKING, Iterator, Optional, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.configs import ExperimentConfig
    from repro.experiments.runner import BuiltExperiment, ExperimentResult

__all__ = [
    "SnapshotError",
    "Checkpointer",
    "capture_state",
    "decode_config",
    "encode_config",
    "newest_checkpoint",
    "read_snapshot",
    "resume_experiment",
    "snapshot_experiment",
    "state_digest",
    "write_snapshot",
]

SNAPSHOT_FORMAT = "digruber-snapshot"
#: Bumped whenever a stale file could be half-read or replayed wrong:
#: :func:`encode_config`'s shape changes (v2: the four result-preserving
#: variant knobs left ``ExperimentConfig``), or the meaning of
#: ``event_count`` does (v3: clients no longer execute one kernel event
#: per arrival, so a v2 count would replay to the wrong boundary; v4:
#: three observability knobs left ``ExperimentConfig`` and ``sinks``
#: lists only streams that have a file; v5: seven settings no
#: experiment changed became constants; v6: brokering runs as callbacks,
#: so a v5 count includes same-instant hops this build never executes;
#: v7: the numeric sections are packed columns, and the WAN model draws
#: its normals in blocks, so a v6 ``rng`` section is another stream
#: position; v8: a digest hashes the captured arrays' bytes, not their
#: base64 text, so every v7 digest differs from its replay's).
#: :func:`newest_checkpoint` skips such files; a restore refuses them.
SNAPSHOT_VERSION = 8


class SnapshotError(RuntimeError):
    """A snapshot failed to serialize, validate, or verify on restore."""


# -- config codec --------------------------------------------------------
def encode_config(config: "ExperimentConfig") -> dict:
    """Reduce an :class:`ExperimentConfig` to a JSON-able dict."""
    d = dataclasses.asdict(config)
    d["strategy"] = config.strategy.value
    return d


def decode_config(d: dict) -> "ExperimentConfig":
    """Rebuild an :class:`ExperimentConfig` from :func:`encode_config`.

    JSON round-trips lose tuple-ness and enum identity; this restores
    both (``JobModel`` CPU mixes, the dissemination strategy).  A dict
    whose fields are not this build's raises :class:`SnapshotError`
    naming them.
    """
    from repro.control.policy import AutoscaleConfig
    from repro.core.sync import DisseminationStrategy
    from repro.experiments.configs import ExperimentConfig
    from repro.net.container import ContainerProfile
    from repro.resilience.policy import ResilienceConfig
    from repro.workloads.models import JobModel

    d = dict(d)
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown, missing = sorted(set(d) - names), sorted(names - set(d))
    if unknown or missing:
        raise SnapshotError(
            "snapshot config does not match this build's ExperimentConfig"
            + (f"; unknown fields: {', '.join(unknown)}" if unknown else "")
            + (f"; missing fields: {', '.join(missing)}" if missing else ""))
    try:
        d["profile"] = ContainerProfile(**d["profile"])
        d["strategy"] = DisseminationStrategy(d["strategy"])
        jm = dict(d["job_model"])
        jm["cpu_choices"] = tuple(jm["cpu_choices"])
        jm["cpu_weights"] = tuple(jm["cpu_weights"])
        d["job_model"] = JobModel(**jm)
        d["resilience"] = (ResilienceConfig(**d["resilience"])
                           if d.get("resilience") else None)
        d["autoscale"] = (AutoscaleConfig(**d["autoscale"])
                          if d.get("autoscale") else None)
        return ExperimentConfig(**d)
    except (TypeError, KeyError, ValueError) as err:
        raise SnapshotError(
            f"snapshot config cannot be rebuilt: "
            f"{type(err).__name__}: {err}") from err


# -- state capture -------------------------------------------------------
#: State sections in canonical (sorted-key) order.
_SECTIONS = ("clients", "control", "dps", "grid", "kernel", "rng")
_HEX8 = re.compile("[0-9a-f]{8}")


def _sections(built: "BuiltExperiment") -> Iterator[tuple[str, object]]:
    """``(name, value)`` per state section, each captured as it is
    reached.

    Every section comes from that subsystem's own ``snapshot_state()``;
    iteration orders are pinned (hosts in fleet order, sites and
    decision points name-sorted) so two captures of identical runs
    digest alike.  The four numeric sections (``dps`` views, ``grid``,
    ``kernel``, ``rng``) hold their bulk as numpy arrays.
    """
    dps = built.deployment.decision_points
    yield "clients", [c.snapshot_state() for c in built.clients]
    yield "control", (built.planner.snapshot_state()
                      if built.planner is not None else None)
    yield "dps", [dps[k].snapshot_state() for k in sorted(dps, key=str)]
    yield "grid", built.grid.snapshot_state()
    yield "kernel", built.sim.snapshot_state()
    yield "rng", rng_state(built)


def rng_state(built: "BuiltExperiment") -> dict:
    """The ``rng`` section: every stream's state, plus the latency
    model's position in the block of normals it has drawn ahead."""
    return {**built.rng.snapshot_state(),
            "latency": built.network.latency.snapshot_state()}


def capture_state(built: "BuiltExperiment") -> dict:
    """Per-subsystem state of a built run: JSON values and numpy arrays
    (compare captures by :func:`state_digest`, not ``==``)."""
    return dict(_sections(built))


def utf8_array(strings) -> np.ndarray:
    """A string column of a state section: each row's UTF-8 bytes as an
    ``S`` array (a byte a character, where ``<U`` costs four and a
    ``list[str]`` ~80 bytes an item in the encoder's transient)."""
    return np.array(list(map(str.encode, strings)), "S")


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _crc(blob: str) -> str:
    return format(zlib.crc32(blob.encode("utf-8")) & 0xFFFFFFFF, "08x")


def state_digest(state) -> str:
    """8-hex CRC32 of a state section: its canonical JSON, in which each
    numpy array stands as ``[dtype, length]`` after its bytes have been
    chained into the CRC (in the encoder's sorted-key order)."""
    crc = 0

    def chain(arr):
        nonlocal crc
        if type(arr) is not np.ndarray:
            raise TypeError(f"{type(arr).__name__} {arr!r} is not state")
        crc = zlib.crc32(arr, crc)
        return [arr.dtype.str, len(arr)]

    text = json.dumps(state, sort_keys=True, separators=(",", ":"),
                      default=chain)
    return format(zlib.crc32(text.encode("utf-8"), crc), "08x")


def _section_digests(built: "BuiltExperiment") -> dict[str, str]:
    """:func:`state_digest` of each state section, captured one section
    at a time."""
    return {name: state_digest(value) for name, value in _sections(built)}


def _sink_offsets(built: "BuiltExperiment") -> dict:
    """Byte offsets of every streaming sink at the capture instant.

    Replay regenerates each stream from t=0; restore verifies the
    regenerated prefix has exactly these lengths (sink reattach).
    """
    return {name: sink.byte_offset() for name, sink in built.sinks.items()}


def snapshot_experiment(built: "BuiltExperiment") -> dict:
    """The snapshot of a built run at the current instant: the replay
    cursor and the section digests its replay must re-derive."""
    return {
        "config": encode_config(built.config),
        "event_count": built.sim.events_executed,
        "time": built.sim.now,
        "digests": _section_digests(built),
        "sinks": _sink_offsets(built),
    }


# -- on-disk format ------------------------------------------------------
def write_snapshot(snapshot: dict, path: str) -> str:
    """Atomically write a CRC-stamped snapshot file; returns ``path``.

    tmp + ``os.rename``: a SIGKILL mid-write leaves at worst an orphaned
    ``*.tmp`` that every reader ignores.  An I/O failure removes the tmp
    file and raises :class:`SnapshotError`.
    """
    body = _canonical(snapshot)
    meta = {"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION,
            "crc": _crc(body)}
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f'{{"meta": {json.dumps(meta)}, "snapshot": {body}}}')
            fh.flush()
            os.fsync(fh.fileno())
        os.rename(tmp, path)
    except OSError as err:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise SnapshotError(f"cannot write snapshot {path!r}: "
                            f"{err.strerror or err}") from err
    return path


def read_snapshot(path: str) -> dict:
    """Read and validate one snapshot file; returns the snapshot body.

    Raises :class:`SnapshotError` on unreadable JSON, a foreign or
    future format, a CRC mismatch (truncated/corrupt file), or a head
    field (named) that cannot drive a replay (:func:`_check_head`).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        raise SnapshotError(f"unreadable snapshot {path!r}: {err}") from err
    meta = doc.get("meta") if isinstance(doc, dict) else None
    if not isinstance(meta, dict) or meta.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{path!r} is not a {SNAPSHOT_FORMAT} file")
    if meta.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path!r} has snapshot version {meta.get('version')!r}; "
            f"this build reads version {SNAPSHOT_VERSION}")
    snapshot = doc.get("snapshot")
    if not isinstance(snapshot, dict):
        raise SnapshotError(f"{path!r} carries no snapshot body")
    crc = _crc(_canonical(snapshot))
    if crc != meta.get("crc"):
        raise SnapshotError(
            f"{path!r} failed its CRC check "
            f"(stamped {meta.get('crc')!r}, recomputed {crc!r})")
    _check_head(snapshot, path)
    return snapshot


def _count(value) -> bool:
    return type(value) is int and value >= 0


def _instant(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _check_head(snapshot: dict, path: str) -> None:
    """Refuse, naming the field, a head that cannot drive a replay (a
    file re-signed after an edit passes the CRC but not this): the
    replay cursor must be a count and an instant inside the run, and
    the evidence exactly the six section digests and byte offsets."""
    get = snapshot.get
    config = get("config")
    duration = config.get("duration_s") if type(config) is dict else None
    digests, sinks = get("digests"), get("sinks")
    checks = [
        ("config", type(config) is dict, "an object"),
        ("event_count", _count(get("event_count")), "an integer >= 0"),
        ("time", _instant(get("time")) and _instant(duration)
         and 0 <= get("time") <= duration,
         f"a time in [0, duration_s={duration!r}]"),
        ("digests", type(digests) is dict
         and sorted(digests) == list(_SECTIONS)
         and all(type(d) is str and _HEX8.fullmatch(d)
                 for d in digests.values()),
         f"8-hex digests of exactly {', '.join(_SECTIONS)}"),
        ("sinks", type(sinks) is dict
         and all(_count(offset) for offset in sinks.values()),
         "sink name -> byte offset >= 0")]
    for field, ok, want in checks:
        if not ok:
            raise SnapshotError(
                f"{path!r}: {field} is {get(field)!r}, not {want}")


def checkpoint_filename(time: float, event_count: int) -> str:
    return f"ckpt-{int(time):010d}-{event_count:012d}.json"


def newest_checkpoint(directory: str) -> Optional[str]:
    """Path of the newest *valid* checkpoint in ``directory``, or None.

    Newest by event count (encoded in the filename, confirmed from the
    body: a file whose name's time and count are not its body's is
    skipped).  Corrupt, truncated, or in-flight (``*.tmp``) files are
    skipped, so a crash mid-write can only cost the interval since the
    previous checkpoint, never the ability to restore at all.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return None
    candidates = sorted(
        (n for n in names if n.startswith("ckpt-") and n.endswith(".json")),
        reverse=True)
    for name in candidates:
        path = os.path.join(directory, name)
        try:
            snapshot = read_snapshot(path)
        except SnapshotError:
            continue
        if name == checkpoint_filename(snapshot["time"],
                                       snapshot["event_count"]):
            return path
    return None


# -- periodic capture ----------------------------------------------------
class Checkpointer:
    """Periodic snapshot writer riding a run's own event heap.

    The tick *self-schedules before capturing*, so the next periodic
    entry is already in the heap when the state is captured — the
    replayed run's heap at the same event boundary is then identical.
    Capture draws no randomness and mutates nothing, and checkpoint
    scheduling is part of the config (both the reference and the
    resumed run carry the same ticks), so checkpointing never perturbs
    the simulation it snapshots.

    During replay the restore path suspends the checkpointer: ticks
    keep their heap slots (determinism) but skip capture and disk I/O.
    """

    def __init__(self, built: "BuiltExperiment"):
        config = built.config
        if config.checkpoint_every_s <= 0:
            raise ValueError("checkpoint_every_s must be > 0")
        self.built = built
        self.interval_s = config.checkpoint_every_s
        self.directory = config.checkpoint_dir
        probe = os.path.join(self.directory, f".probe.tmp.{os.getpid()}")
        try:  # refuse an unwritable directory at build, not at a tick
            os.makedirs(self.directory, exist_ok=True)
            open(probe, "w").close()
            os.remove(probe)
        except OSError as err:
            raise ValueError(
                f"checkpoint directory {self.directory!r} is not "
                f"writable: {err.strerror or err}") from None
        self.suspended = False
        self.written: list[str] = []
        self._next = built.sim.schedule(self.interval_s, self.tick)

    def tick(self) -> None:
        self._next = self.built.sim.schedule(self.interval_s, self.tick)
        if self.suspended:
            return
        sim = self.built.sim
        path = os.path.join(self.directory, checkpoint_filename(
            sim.now, sim.events_executed))
        self.written.append(write_snapshot(snapshot_experiment(self.built),
                                           path))

    def suspend(self) -> None:
        self.suspended = True

    def resume(self) -> None:
        self.suspended = False

    def cancel(self) -> None:
        if self._next is not None:
            self._next.cancel()
            self._next = None


# -- restore -------------------------------------------------------------
def _verify_state(built: "BuiltExperiment", snapshot: dict,
                  source: str) -> None:
    """Require the replayed run to match the snapshot exactly."""
    sim = built.sim
    if sim.events_executed != snapshot["event_count"]:
        raise SnapshotError(
            f"replay of {source} stopped at event {sim.events_executed}, "
            f"snapshot was taken at {snapshot['event_count']}")
    if sim.now != snapshot["time"]:
        raise SnapshotError(
            f"replay of {source} reached t={sim.now}, snapshot was taken "
            f"at t={snapshot['time']}")
    digests = _section_digests(built)
    if digests != snapshot["digests"]:
        diverged = sorted(section for section in digests
                          if digests[section]
                          != snapshot["digests"].get(section))
        raise SnapshotError(
            f"replay of {source} diverged from the snapshot in "
            f"subsystem(s): {', '.join(diverged)}")
    offsets = _sink_offsets(built)
    if offsets != snapshot.get("sinks", {}):
        raise SnapshotError(
            f"replay of {source} regenerated sink prefixes {offsets}, "
            f"snapshot recorded {snapshot.get('sinks', {})}")


def resume_experiment(snapshot: Union[str, dict],
                      deployment_hook=None) -> "ExperimentResult":
    """Restore a run from a snapshot and run it to completion.

    ``snapshot`` is a path (validated via :func:`read_snapshot`) or an
    in-memory snapshot body.  The run is rebuilt from the embedded
    config, replayed to the exact checkpoint event boundary with the
    checkpointer suspended, verified digest-for-digest against the
    snapshot (:class:`SnapshotError` names the diverging subsystem on
    mismatch), and only then resumed to ``duration_s``.  Abnormal exits
    take the same :func:`abort_experiment` path as a fresh run.

    ``deployment_hook(sim=, deployment=, network=, grid=, rng=)`` runs
    after the rebuild and before the replay.  A fresh run needs no hook
    (build, attach, run), but here the replay and the rest of the run
    are one call, so a caller that must see the replayed events — the
    ``resume`` diff pair installs journal probes — attaches through it.
    """
    from repro.experiments.runner import (abort_experiment, build_experiment,
                                          finalize_experiment)

    source = snapshot if isinstance(snapshot, str) else "<snapshot>"
    if isinstance(snapshot, str):
        snapshot = read_snapshot(snapshot)
    config = decode_config(snapshot["config"])
    try:
        built = build_experiment(config)
    except ValueError as err:  # e.g. its checkpoint dir is unwritable now
        raise SnapshotError(
            f"cannot rebuild the run of {source}: {err}") from err
    if deployment_hook is not None:
        deployment_hook(sim=built.sim, deployment=built.deployment,
                        network=built.network, grid=built.grid,
                        rng=built.rng)
    if built.checkpointer is not None:
        built.checkpointer.suspend()
    try:
        built.sim.run_to_event(snapshot["event_count"],
                               until=snapshot["time"])
        _verify_state(built, snapshot, source)
        if built.checkpointer is not None:
            built.checkpointer.resume()
        built.sim.run(until=config.duration_s)
    except BaseException as exc:
        abort_experiment(built, exc)
        raise
    return finalize_experiment(built)

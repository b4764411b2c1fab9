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

    {"meta": {"format": "digruber-snapshot", "version": 7, "crc": ...},
     "snapshot": {...}}

The bulk of the state — the kernel heap, each view's live records and
per-site columns, the sites' queue/running/VO columns and the RNG
states — is packed little-endian columns inside that canonical JSON
(:mod:`repro.sim.columns`), one base64 string per column and one sorted
string table per packed block.  :func:`read_snapshot` re-derives every
section digest and decodes every table, so a damaged section is refused
by name.

``crc`` covers the canonical (sorted-keys, compact) JSON of the snapshot
body, and the body is written in exactly that form.  Canonical JSON is
compositional — an object's encoding is its sorted members' encodings
joined — so a checkpoint never holds its state or its body: it captures,
encodes, CRCs and writes one bounded piece at a time
(:func:`_stream_state`) and back-patches the fixed-width 8-hex
``digest``/``digests``/``crc``; the file ``crc`` is combined from the
pieces' (:func:`crc32_combine`), never re-read.  Writes are atomic
(tmp + ``os.rename``) so a SIGKILL mid-write never leaves a truncated
restore candidate — ``newest_checkpoint`` validates every candidate and
skips corrupt or partial files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import zlib
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Union

from repro.sim.columns import check_tables

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
#: position).  :func:`newest_checkpoint` skips such files; a restore
#: refuses them.
SNAPSHOT_VERSION = 7


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
_NO_CRC = "0" * 8
#: Longest list encoded in one piece (bounds the encoder's transient).
_CHUNK = 256


def _sections(built: "BuiltExperiment") -> Iterator[tuple[str, object]]:
    """``(name, value)`` per state section, each captured as it is
    reached; the ``dps`` section's value is a lazy iterator of its
    elements (one decision point's capture in memory at a time).

    Every section comes from that subsystem's own ``snapshot_state()``;
    iteration orders are pinned (hosts in fleet order, sites and
    decision points name-sorted) so two captures of identical runs are
    byte-identical.  The four numeric sections (``dps`` views, ``grid``,
    ``kernel``, ``rng``) arrive packed.
    """
    dps = built.deployment.decision_points
    yield "clients", [c.snapshot_state() for c in built.clients]
    yield "control", (built.planner.snapshot_state()
                      if built.planner is not None else None)
    yield "dps", (dps[k].snapshot_state() for k in sorted(dps, key=str))
    yield "grid", built.grid.snapshot_state()
    yield "kernel", built.sim.snapshot_state()
    yield "rng", rng_state(built)


def rng_state(built: "BuiltExperiment") -> dict:
    """The ``rng`` section: every stream's state, plus the latency
    model's position in the block of normals it has drawn ahead."""
    return {**built.rng.snapshot_state(),
            "latency": built.network.latency.snapshot_state()}


def capture_state(built: "BuiltExperiment") -> dict:
    """Canonical per-subsystem state of a built run (JSON-able)."""
    return {name: list(value) if isinstance(value, Iterator) else value
            for name, value in _sections(built)}


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _crc(blob: str) -> str:
    return format(zlib.crc32(blob.encode("utf-8")) & 0xFFFFFFFF, "08x")


def state_digest(state: dict) -> str:
    """8-hex CRC32 over the canonical JSON of a state section."""
    return _crc(_canonical(state))


def _pieces(value) -> Iterator[str]:
    """Canonical JSON of ``value`` in bounded pieces: an iterator (a
    lazily captured section) one element at a time, a list ``_CHUNK``
    elements at a time, anything else whole (a packed section's bulk is
    a few long strings, which the C encoder copies)."""
    if isinstance(value, Iterator):
        sep = "["
        for item in value:
            yield sep + _canonical(item)
            sep = ","
        yield "]" if sep == "," else "[]"
    elif isinstance(value, list):
        sep = "["
        for i in range(0, len(value), _CHUNK):
            yield sep + _canonical(value[i:i + _CHUNK])[1:-1]
            sep = ","
        yield "]" if sep == "," else "[]"
    else:
        yield _canonical(value)


def _stream_state(sections: Iterable[tuple[str, object]],
                  write: Callable[[bytes], object]) -> tuple[dict, str]:
    """Write the canonical JSON of the state object, given as its
    ``(name, value)`` sections in key order, through ``write`` piece by
    piece; returns the section digests and the state digest."""
    digests: dict[str, str] = {}
    total = 0
    for name, value in sections:
        crc, key = 0, (("," if digests else "{") + f'"{name}":').encode()
        write(key)
        total = zlib.crc32(key, total)
        for piece in map(str.encode, _pieces(value)):
            write(piece)
            crc, total = zlib.crc32(piece, crc), zlib.crc32(piece, total)
        digests[name] = f"{crc:08x}"
    write(b"}")
    return digests, f"{zlib.crc32(b'}', total):08x}"


def _sink_offsets(built: "BuiltExperiment") -> dict:
    """Byte offsets of every streaming sink at the capture instant.

    Replay regenerates each stream from t=0; restore verifies the
    regenerated prefix has exactly these lengths (sink reattach).
    """
    return {name: sink.byte_offset() for name, sink in built.sinks.items()}


def snapshot_experiment(built: "BuiltExperiment") -> dict:
    """Capture one full snapshot of a built run at the current instant."""
    state = capture_state(built)
    digests, digest = _stream_state(state.items(), lambda piece: None)
    return {
        "time": built.sim.now,
        "event_count": built.sim.events_executed,
        "config": encode_config(built.config),
        "state": state,
        "digests": digests,
        "digest": digest,
        "sinks": _sink_offsets(built),
    }


# -- on-disk format ------------------------------------------------------
_POLY = 0xEDB88320  # CRC-32's polynomial, bit-reflected (as zlib's)


def _multmodp(a: int, b: int) -> int:
    """``a * b`` modulo the CRC-32 polynomial (zlib's ``multmodp``)."""
    m, p = 1 << 31, 0
    while True:
        if a & m:
            p ^= b
            if not a & (m - 1):
                return p
        m >>= 1
        b = (b >> 1) ^ _POLY if b & 1 else b >> 1


#: ``x^(2^k)`` modulo the polynomial, ``k`` = 0..31.
_X2N = [1 << 30]
for _ in range(31):
    _X2N.append(_multmodp(_X2N[-1], _X2N[-1]))


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """The CRC-32 of ``a + b`` from ``crc1`` of ``a``, ``crc2`` of ``b``
    and ``len(b)`` — zlib's ``crc32_combine``, which Python's ``zlib``
    does not expose (~0.1 ms at any length, against ~0.5 ms to re-read
    and re-CRC a ~0.7 MB checkpoint body)."""
    p, k = 1 << 31, 3  # x^0; ``len2`` bytes shift by ``8 * len2`` bits
    while len2:
        if len2 & 1:
            p = _multmodp(_X2N[k & 31], p)
        len2 >>= 1
        k += 1
    return _multmodp(p, crc1) ^ crc2


def _write_file(path: str, write_body: Callable) -> str:
    """Atomically write the meta envelope around the body that
    ``write_body(fh)`` writes into the tmp file; it returns the body's
    CRC-32, computed as written (nothing is read back).  Returns ``path``.

    tmp + ``os.rename``: a SIGKILL mid-write leaves at worst an orphaned
    ``*.tmp`` that every reader ignores.  An I/O failure removes the tmp
    file and raises :class:`SnapshotError`.
    """
    meta = {"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION,
            "crc": _NO_CRC}
    head = f'{{"meta": {json.dumps(meta)}, "snapshot": '.encode()
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(head)
            crc = write_body(fh)
            fh.write(b"}")
            fh.seek(head.index(b'"crc": "') + 8)
            fh.write(f"{crc:08x}".encode())
            fh.flush()
            os.fsync(fh.fileno())
        os.rename(tmp, path)
    except OSError as err:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise SnapshotError(f"cannot write snapshot {path!r}: "
                            f"{err.strerror or err}") from err
    return path


def write_snapshot(snapshot: dict, path: str) -> str:
    """Atomically write a CRC-stamped snapshot file; returns ``path``."""
    def body(fh) -> int:
        blob = _canonical(snapshot).encode("utf-8")
        fh.write(blob)
        return zlib.crc32(blob)

    return _write_file(path, body)


def _write_checkpoint(built: "BuiltExperiment", path: str) -> str:
    """Write ``built``'s snapshot, streaming the state (the digests are
    back-patched once it is out).  The body's CRC is the patched
    prefix's, combined with the state's (its digest) and extended by
    the tail: the streamed state is CRC'd once, as it is written."""
    head = {"config": encode_config(built.config), "digest": _NO_CRC,
            "digests": dict.fromkeys(_SECTIONS, _NO_CRC),
            "event_count": built.sim.events_executed,
            "sinks": _sink_offsets(built)}

    def prefix() -> bytes:
        return _canonical(head)[:-1].encode() + b',"state":'

    def body(fh) -> int:
        at = fh.tell()
        fh.write(prefix())
        start = fh.tell()
        head["digests"], head["digest"] = _stream_state(_sections(built),
                                                        fh.write)
        size = fh.tell() - start
        tail = f',"time":{_canonical(built.sim.now)}}}'.encode()
        fh.write(tail)
        end = fh.tell()
        fh.seek(at)
        patched = prefix()  # the placeholders' width: same length
        fh.write(patched)
        fh.seek(end)
        crc = crc32_combine(zlib.crc32(patched), int(head["digest"], 16),
                            size)
        return zlib.crc32(tail, crc)

    return _write_file(path, body)


def read_snapshot(path: str) -> dict:
    """Read and validate one snapshot file; returns the snapshot body.

    Raises :class:`SnapshotError` on unreadable JSON, a foreign or
    future format, a CRC mismatch (truncated/corrupt file), or a state
    section (named) that fails its digest or whose tables do not decode.
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
    _check_sections(snapshot, path)
    return snapshot


def _check_sections(snapshot: dict, path: str) -> None:
    """Refuse, by section name, a state section that does not re-derive
    its stamped digest or whose packed tables do not decode (a file
    re-signed after damage passes the CRC but not this)."""
    state = snapshot.get("state")
    if state is None:
        return  # a sharded barrier file: per-hood digests only
    digests = snapshot.get("digests")
    if (type(state) is not dict or type(digests) is not dict
            or sorted(state) != list(_SECTIONS)):
        raise SnapshotError(f"{path!r} does not carry the state sections "
                            f"{', '.join(_SECTIONS)}")
    for name in _SECTIONS:
        if state_digest(state[name]) != digests.get(name):
            raise SnapshotError(f"{path!r}: state section {name!r} does not "
                                f"match its digest")
        try:
            check_tables(state[name])
        except ValueError as err:
            raise SnapshotError(
                f"{path!r}: state section {name!r} is damaged: {err}"
            ) from None


def checkpoint_filename(time: float, event_count: int) -> str:
    return f"ckpt-{int(time):010d}-{event_count:012d}.json"


def newest_checkpoint(directory: str) -> Optional[str]:
    """Path of the newest *valid* checkpoint in ``directory``, or None.

    Newest by event count (encoded in the filename, confirmed from the
    body).  Corrupt, truncated, or in-flight (``*.tmp``) files are
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
            read_snapshot(path)
        except SnapshotError:
            continue
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
        self.written.append(_write_checkpoint(self.built, path))

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
    digests = _stream_state(_sections(built), lambda piece: None)[0]
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
        built.sim.run_to_event(snapshot["event_count"])
        _verify_state(built, snapshot, source)
        if built.checkpointer is not None:
            built.checkpointer.resume()
        built.sim.run(until=config.duration_s)
    except BaseException as exc:
        abort_experiment(built, exc)
        raise
    return finalize_experiment(built)

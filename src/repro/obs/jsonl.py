"""The one JSONL I/O path: every observability artifact is written by
:class:`JsonlSink` and read back by :func:`read_jsonl`.

Trace events, spans and timeline rows are all "one JSON object per
line, optionally behind a ``{"meta": ...}`` header".  Keeping the
writer, the reader and the value coercion (:func:`jsonable`) in one
module is what lets the runner close every artifact in one loop, the
snapshot plane verify every stream's byte prefix the same way, and a
malformed file fail the same way whichever command reads it.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Iterable, Iterator, Optional, Sequence

__all__ = ["JsonlError", "JsonlSink", "jsonable", "read_jsonl",
           "write_jsonl"]


class JsonlError(ValueError):
    """A JSONL artifact line that strict reading refuses
    (``path:lineno: reason``)."""


def jsonable(value: Any) -> Any:
    """Coerce one detail/attribute value to a JSON-native type.

    Numpy scalars are unwrapped via ``item()`` (``np.int64`` and
    ``np.float32`` are *not* ``int``/``float`` subclasses, so they
    would otherwise crash ``json.dumps``); other non-primitives — e.g.
    a tuple-typed node id landing in a compact ``rpc.<outcome>`` ``dst``
    field — degrade to ``str``.
    """
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):  # np.float64 is a float subclass
        return float(value)
    item = getattr(value, "item", None)
    if callable(item):
        try:
            unwrapped = item()
        except (TypeError, ValueError):  # pragma: no cover - exotic array
            return str(value)
        if isinstance(unwrapped, (str, int, float, bool)):
            return unwrapped
    return str(value)


class JsonlSink:
    """Writes dict rows to a JSONL file, one flushed line per row.

    ``meta``, when given, becomes a leading ``{"meta": ...}`` header
    line.  Every row is flushed as it is written, so the file on disk
    is whole-line-valid at any instant: a concurrent ``digruber top
    --follow`` can tail it, and a run that dies without closing it
    loses nothing already written.  :meth:`write` after :meth:`close`
    is a silent no-op (generator finalizers can still emit after the
    run window), and :meth:`close` is idempotent — the runner's
    finalize and abort paths may both reach it.
    """

    def __init__(self, path: str, meta: Optional[dict] = None):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self.written = 0
        if meta is not None:
            self._fh.write(json.dumps({"meta": meta}) + "\n")
            self._fh.flush()

    def write(self, row: dict) -> None:
        if self._fh.closed:
            return
        self._fh.write(json.dumps(row) + "\n")
        self._fh.flush()
        self.written += 1

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def byte_offset(self) -> int:
        """Bytes written so far (the file size once closed).

        ``repro.sim.snapshot`` records this at checkpoint time and
        verifies the replayed stream regenerated the same byte prefix.
        """
        if self._fh.closed:
            return os.path.getsize(self.path)
        return self._fh.tell()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def write_jsonl(path: str, rows: Iterable[dict],
                meta: Optional[dict] = None) -> int:
    """Write a finished row sequence as one artifact; returns the count."""
    with JsonlSink(path, meta) as sink:
        for row in rows:
            sink.write(row)
        return sink.written


def read_jsonl(path: str, tolerant: bool, require: Sequence[str] = (),
               poll_s: Optional[float] = None,
               idle_polls: Optional[int] = None) -> Iterator[dict]:
    """Yield the object rows of a JSONL artifact, in file order.

    A *bad* line is one that is not JSON, is JSON but not an object
    (``42``), or lacks one of the ``require`` keys.  ``tolerant`` skips
    bad lines — a file truncated by a crash, or being tailed mid-write,
    routinely ends in half a row and everything before it must still be
    readable; strict reading raises :class:`JsonlError` naming the
    first bad ``path:lineno``.  Blank lines are skipped either way.

    With ``poll_s`` set the file is read tail -f style: at end of file
    the reader sleeps and polls again, a half-written trailing line
    stays buffered until the writer finishes it, and iteration ends
    after ``idle_polls`` consecutive polls that found nothing new
    (``None`` = wait forever).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lineno = idle = 0
        pending = ""
        while True:
            piece = fh.readline()
            pending += piece
            if not pending.endswith("\n"):  # end of file, maybe mid-line
                if poll_s is not None:
                    idle = 0 if piece else idle + 1
                    if idle_polls is None or idle < idle_polls:
                        time.sleep(poll_s)
                        continue
                if not pending:
                    return
            lineno += 1
            line, pending = pending.strip(), ""
            if not line:
                continue
            try:
                doc = json.loads(line)
                if not isinstance(doc, dict):
                    raise ValueError(
                        f"expected an object, got {type(doc).__name__}")
                missing = [k for k in require if k not in doc]
                if missing:
                    raise ValueError(f"row lacks {', '.join(missing)}")
            except ValueError as exc:
                if tolerant:
                    continue
                raise JsonlError(f"{path}:{lineno}: not a JSONL artifact "
                                 f"line: {exc}") from exc
            yield doc

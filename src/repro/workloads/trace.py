"""Columnar execution traces.

Everything downstream — the five paper metrics, the DiPerF summary
tables, and GRUB-SIM's saturation replay — consumes the same two
tables recorded here:

* **queries** — one row per brokering query: when the client sent it,
  when (if ever) the response arrived, which decision point served it,
  and whether the client's timeout expired first;
* **jobs** — one row per job with its full lifecycle timestamps and
  brokering annotations (handled flag, scheduling accuracy).

A job is *live* (in :attr:`TraceRecorder.live`) from materialization
until it completes; then it is one row of typed, growable columns
(an ``array`` or a list of shared strings each) and is released.
At analysis time the job columns are sorted in place and viewed.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Iterable, Optional

import numpy as np

from repro.grid.job import Job, JobState

__all__ = ["TraceRecorder", "QueryRows", "QUERY_FIELDS", "JOB_FIELDS"]

#: Column -> ``array`` typecode (``""``: a list of shared strings).
_QUERY_COLUMNS = {"sent_at": "d", "responded_at": "d", "response_s": "d",
                  "timed_out": "b", "client": "", "decision_point": ""}
_JOB_COLUMNS = {"jid": "q", "vo": "", "group": "", "created_at": "d",
                "dispatched_at": "d", "started_at": "d", "completed_at": "d",
                "cpus": "q", "duration_s": "d", "site": "", "handled": "b",
                "accuracy": "d", "queue_time_s": "d", "failed": "b"}
_DTYPES = {"d": np.float64, "q": np.int64, "b": bool, "": object}
QUERY_FIELDS, JOB_FIELDS = tuple(_QUERY_COLUMNS), tuple(_JOB_COLUMNS)

_NAN = float("nan")


def _columns(spec: dict) -> dict:
    return {name: array(code) if code else [] for name, code in spec.items()}


class QueryRows:
    """The query table as row tuples, built on the fly from the columns
    (re-iterable and picklable; holds no second copy of the rows)."""

    __slots__ = ("_columns", "_n")

    def __init__(self, columns: dict):
        self._columns = tuple(columns.values())
        self._n = len(columns["sent_at"])

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        sent, responded, response, timed_out, client, dp = self._columns
        return islice(zip(sent, responded, response, map(bool, timed_out),
                          client, dp), self._n)


class TraceRecorder:
    """Accumulates query rows and owns the job table during a run."""

    def __init__(self) -> None:
        self._queries = _columns(_QUERY_COLUMNS)
        self._jobs = _columns(_JOB_COLUMNS)
        self._query_appends = tuple(c.append for c in self._queries.values())
        self._job_appends = tuple(c.append for c in self._jobs.values())
        #: Materialized jobs not yet recorded, by jid (creation order).
        self.live: dict[int, Job] = {}

    @classmethod
    def from_query_rows(cls, rows: Iterable[tuple]) -> "TraceRecorder":
        """A recorder holding exactly these query rows (GRUB-SIM replay)."""
        rec = cls()
        for row in rows:
            for append, value in zip(rec._query_appends, row):
                append(value)
        return rec

    # -- recording ---------------------------------------------------------
    def record_query(self, sent_at: float, responded_at: Optional[float],
                     timed_out: bool, client: str, decision_point: str) -> None:
        if responded_at is None:
            row = (sent_at, _NAN, _NAN, timed_out, client, decision_point)
        else:
            row = (sent_at, responded_at, responded_at - sent_at, timed_out,
                   client, decision_point)
        for append, value in zip(self._query_appends, row):
            append(value)

    def open_job(self, job: Job) -> None:
        """Take a just-materialized job into the live table."""
        self.live[job.jid] = job

    def close_job(self, job: Job) -> None:
        """Record a job's row and release it from the live table."""
        self.live.pop(job.jid, None)
        created, dispatched = job.created_at, job.dispatched_at
        started, completed = job.started_at, job.completed_at
        accuracy = job.scheduling_accuracy
        row = (job.jid, job.vo, job.group,
               _NAN if created is None else created,
               _NAN if dispatched is None else dispatched,
               _NAN if started is None else started,
               _NAN if completed is None else completed,
               job.cpus, job.duration_s, job.site or "",
               job.handled_by_gruber, _NAN if accuracy is None else accuracy,
               _NAN if started is None or dispatched is None  # queue_time_s
               else started - dispatched,
               job.state is JobState.FAILED)
        for append, value in zip(self._job_appends, row):
            append(value)

    def job_ended(self, job: Job) -> None:
        """Site observer: a live job that COMPLETED becomes a row.  A
        FAILED one stays live — a re-plan can still complete it."""
        if job.state is JobState.COMPLETED and self.live.get(job.jid) is job:
            self.close_job(job)

    def close_live(self) -> None:
        """Record every job still live (the end-of-run state)."""
        for job in list(self.live.values()):
            self.close_job(job)

    @property
    def n_queries(self) -> int:
        return len(self._queries["sent_at"])

    @property
    def n_jobs(self) -> int:
        """Recorded job rows (live jobs are not rows yet)."""
        return len(self._jobs["jid"])

    # -- columnar access -----------------------------------------------------
    def query_rows(self) -> QueryRows:
        return QueryRows(self._queries)

    def query_arrays(self) -> dict[str, np.ndarray]:
        """Queries as named columns (empty arrays when nothing recorded)."""
        return {name: np.array(col, dtype=_DTYPES[_QUERY_COLUMNS[name]])
                for name, col in self._queries.items()}

    def job_arrays(self) -> dict[str, np.ndarray]:
        """Job rows as named columns, in jid order — a client's jids are
        a dense block, so that is (client, creation index) order.  The
        recorder's columns are sorted in place and viewed, not copied
        (strings as object arrays); a viewed ``array`` refuses to grow,
        so a row closed after this raises ``BufferError``."""
        order = np.argsort(np.frombuffer(self._jobs["jid"], np.int64),
                           kind="stable")
        table = {}
        for name, col in self._jobs.items():
            code = _JOB_COLUMNS[name]
            if code:
                table[name] = view = np.frombuffer(col, _DTYPES[code])
                view[:] = view[order]
            else:
                col[:] = [col[i] for i in order.tolist()]
                table[name] = np.array(col, dtype=object)
        return table

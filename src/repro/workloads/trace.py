"""Columnar execution traces.

Everything downstream — the five paper metrics, the DiPerF summary
tables, and GRUB-SIM's saturation replay — consumes the same two
tables recorded here:

* **queries** — one row per brokering query: when the client sent it,
  when (if ever) the response arrived, which decision point served it,
  and whether the client's timeout expired first;
* **jobs** — one row per job with its full lifecycle timestamps and
  brokering annotations (handled flag, scheduling accuracy).

Rows accumulate in plain Python lists (cheap appends in the hot path)
and convert to numpy arrays once at analysis time, per the
vectorize-the-post-processing guidance in the HPC guides.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.grid.job import Job, JobState

__all__ = ["TraceRecorder", "QUERY_FIELDS", "JOB_FIELDS"]

QUERY_FIELDS = ("sent_at", "responded_at", "response_s", "timed_out",
                "client", "decision_point")
JOB_FIELDS = ("jid", "vo", "created_at", "dispatched_at", "started_at",
              "completed_at", "cpus", "duration_s", "site", "handled",
              "accuracy", "queue_time_s", "failed")

_NAN = float("nan")


class TraceRecorder:
    """Accumulates query and job rows during a run."""

    def __init__(self) -> None:
        self._queries: list[tuple] = []
        self._jobs: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def record_query(self, sent_at: float, responded_at: Optional[float],
                     timed_out: bool, client: str, decision_point: str) -> None:
        response = (responded_at - sent_at) if responded_at is not None else _NAN
        self._queries.append((sent_at,
                              responded_at if responded_at is not None else _NAN,
                              response, timed_out, client, decision_point))

    def record_job(self, job: Job) -> None:
        """Record a job once it reaches a terminal or end-of-run state."""
        qt = job.queue_time_s
        self._jobs.append((
            job.jid, job.vo,
            job.created_at if job.created_at is not None else _NAN,
            job.dispatched_at if job.dispatched_at is not None else _NAN,
            job.started_at if job.started_at is not None else _NAN,
            job.completed_at if job.completed_at is not None else _NAN,
            job.cpus, job.duration_s,
            job.site or "",
            job.handled_by_gruber,
            job.scheduling_accuracy if job.scheduling_accuracy is not None else _NAN,
            qt if qt is not None else _NAN,
            job.state is JobState.FAILED,
        ))

    @property
    def n_queries(self) -> int:
        return len(self._queries)

    @property
    def n_jobs(self) -> int:
        return len(self._jobs)

    # -- columnar access -----------------------------------------------------
    def query_arrays(self) -> dict[str, np.ndarray]:
        """Queries as named columns (empty arrays when nothing recorded)."""
        if not self._queries:
            return {
                "sent_at": np.empty(0), "responded_at": np.empty(0),
                "response_s": np.empty(0),
                "timed_out": np.empty(0, dtype=bool),
                "client": np.empty(0, dtype=object),
                "decision_point": np.empty(0, dtype=object),
            }
        cols = list(zip(*self._queries))
        return {
            "sent_at": np.asarray(cols[0], dtype=np.float64),
            "responded_at": np.asarray(cols[1], dtype=np.float64),
            "response_s": np.asarray(cols[2], dtype=np.float64),
            "timed_out": np.asarray(cols[3], dtype=bool),
            "client": np.asarray(cols[4], dtype=object),
            "decision_point": np.asarray(cols[5], dtype=object),
        }

    def job_arrays(self) -> dict[str, np.ndarray]:
        if not self._jobs:
            float_cols = ("created_at", "dispatched_at", "started_at",
                          "completed_at", "duration_s", "accuracy",
                          "queue_time_s")
            out: dict[str, np.ndarray] = {k: np.empty(0) for k in float_cols}
            out.update({"jid": np.empty(0, dtype=np.int64),
                        "cpus": np.empty(0, dtype=np.int64),
                        "vo": np.empty(0, dtype=object),
                        "site": np.empty(0, dtype=object),
                        "handled": np.empty(0, dtype=bool),
                        "failed": np.empty(0, dtype=bool)})
            return out
        cols = list(zip(*self._jobs))
        return {
            "jid": np.asarray(cols[0], dtype=np.int64),
            "vo": np.asarray(cols[1], dtype=object),
            "created_at": np.asarray(cols[2], dtype=np.float64),
            "dispatched_at": np.asarray(cols[3], dtype=np.float64),
            "started_at": np.asarray(cols[4], dtype=np.float64),
            "completed_at": np.asarray(cols[5], dtype=np.float64),
            "cpus": np.asarray(cols[6], dtype=np.int64),
            "duration_s": np.asarray(cols[7], dtype=np.float64),
            "site": np.asarray(cols[8], dtype=object),
            "handled": np.asarray(cols[9], dtype=bool),
            "accuracy": np.asarray(cols[10], dtype=np.float64),
            "queue_time_s": np.asarray(cols[11], dtype=np.float64),
            "failed": np.asarray(cols[12], dtype=bool),
        }

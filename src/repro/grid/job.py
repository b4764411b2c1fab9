"""Job lifecycle.

The paper's workload model: "jobs pass through four states: 1)
submitted by a user to a submission host; 2) submitted by a submission
host to a site, but queued or held; 3) running at a site; and 4)
completed."  Timestamps for each transition feed the five evaluation
metrics (Response is measured on the brokering query, QTime is
``started_at - dispatched_at``, Util integrates ``cpus * runtime``).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Job", "JobState"]

_job_ids = itertools.count(1)


class JobState(enum.Enum):
    """The four paper states (plus FAILED for fault-injection tests)."""

    CREATED = "created"          # at the submission host
    DISPATCHED = "dispatched"    # at a site, queued or held
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass(slots=True)
class Job:
    """A unit of work flowing through the brokering infrastructure."""

    vo: str
    group: str
    user: str
    cpus: int = 1
    duration_s: float = 600.0
    jid: int = field(default_factory=_job_ids.__next__)
    state: JobState = JobState.CREATED

    # Lifecycle timestamps (simulated seconds); None until reached.
    created_at: Optional[float] = None
    dispatched_at: Optional[float] = None
    started_at: Optional[float] = None
    completed_at: Optional[float] = None

    # Brokering annotations.
    site: Optional[str] = None
    submission_host: Optional[str] = None
    decision_point: Optional[str] = None
    handled_by_gruber: bool = False   # answered within the client timeout?
    query_response_s: Optional[float] = None  # brokering query response time
    scheduling_accuracy: Optional[float] = None  # SA_i at dispatch instant
    replans: int = 0                  # re-planning count
    #: Span context of the dispatch span (its recorder row), set
    #: by the client when span tracing is on so the site can parent its
    #: queue span to the causal chain.  None when tracing is off or the
    #: trace was sampled out.
    trace_ctx: Optional[int] = None

    def __post_init__(self):
        if self.cpus < 1:
            raise ValueError(f"job needs >= 1 CPU, got {self.cpus}")
        if self.duration_s <= 0:
            raise ValueError(f"job duration must be > 0, got {self.duration_s}")

    # -- transitions --------------------------------------------------------
    # Each tests its state inline; :meth:`_expect` only raises.
    def mark_created(self, now: float) -> None:
        if self.state is not JobState.CREATED:
            self._expect(JobState.CREATED)
        self.created_at = now

    def mark_dispatched(self, now: float, site: str) -> None:
        if self.state is not JobState.CREATED:
            self._expect(JobState.CREATED)
        self.state = JobState.DISPATCHED
        self.dispatched_at = now
        self.site = site

    def mark_running(self, now: float) -> None:
        if self.state is not JobState.DISPATCHED:
            self._expect(JobState.DISPATCHED)
        self.state = JobState.RUNNING
        self.started_at = now

    def mark_completed(self, now: float) -> None:
        if self.state is not JobState.RUNNING:
            self._expect(JobState.RUNNING)
        self.state = JobState.COMPLETED
        self.completed_at = now

    def mark_failed(self, now: float) -> None:
        if self.state in (JobState.COMPLETED, JobState.FAILED):
            raise ValueError(f"job {self.jid} already terminal ({self.state})")
        self.state = JobState.FAILED
        self.completed_at = now

    def reset_for_replan(self) -> None:
        """Return a failed job to CREATED so it can be planned again."""
        if self.state != JobState.FAILED:
            raise ValueError(f"only failed jobs can be re-planned, job {self.jid} "
                             f"is {self.state}")
        self.state = JobState.CREATED
        self.dispatched_at = None
        self.started_at = None
        self.completed_at = None
        self.site = None
        self.replans += 1

    def _expect(self, state: JobState) -> None:
        if self.state != state:
            raise ValueError(
                f"job {self.jid}: invalid transition from {self.state} "
                f"(expected {state})")

    # -- derived metrics ------------------------------------------------------
    @property
    def queue_time_s(self) -> Optional[float]:
        """QTime: dispatch-to-start delay (None until the job starts)."""
        if self.started_at is None or self.dispatched_at is None:
            return None
        return self.started_at - self.dispatched_at

    @property
    def execution_time_s(self) -> Optional[float]:
        if self.completed_at is None or self.started_at is None:
            return None
        return self.completed_at - self.started_at

    @property
    def cpu_seconds(self) -> Optional[float]:
        et = self.execution_time_s
        return None if et is None else et * self.cpus

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Job {self.jid} {self.vo}/{self.group} {self.state.value} "
                f"site={self.site}>")

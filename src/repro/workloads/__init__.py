"""Synthetic composite workloads and execution traces.

The paper "used composite workloads that overlay work for [10] VOs and
[10] groups per VO", with jobs "submitted every second from a
submission host" by ~120 hosts over one hour.  Since we have no access
to the original Grid3 traces, :mod:`repro.workloads.models` provides
Grid3-era-shaped synthetic job attribute distributions (heavy-tailed
durations, mostly single-CPU jobs), and
:mod:`repro.workloads.generator` keeps deterministic per-host job
streams as cursors into vectorized numpy draws.

:mod:`repro.workloads.trace` records query/job events into columnar
tables — the input format shared by the metrics module and GRUB-SIM.
"""

from repro.workloads.generator import (
    HostWorkload,
    WorkloadGenerator,
)
from repro.workloads.models import JobModel
from repro.workloads.profiles import (ARRIVAL_PROFILES, ArrivalProfile,
                                      arrival_profile,
                                      arrival_profile_names)
from repro.workloads.trace import QUERY_FIELDS, JOB_FIELDS, TraceRecorder

__all__ = [
    "ARRIVAL_PROFILES",
    "ArrivalProfile",
    "HostWorkload",
    "JOB_FIELDS",
    "JobModel",
    "QUERY_FIELDS",
    "TraceRecorder",
    "WorkloadGenerator",
    "arrival_profile",
    "arrival_profile_names",
]

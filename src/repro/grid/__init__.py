"""Emulated grid fabric: sites, clusters, CPUs, VOs, and jobs.

The paper emulates "an environment similar to OSG but ten times larger"
from Grid3 configuration settings.  This package provides the same:
:class:`~repro.grid.builder.GridBuilder` constructs a
:class:`~repro.grid.builder.Grid` of sites (each one or more clusters
of CPUs, with a FIFO local scheduler) and the VO/group/user hierarchy;
:class:`~repro.grid.job.Job` carries the paper's four-state lifecycle.
"""

from repro.grid.builder import Grid, GridBuilder
from repro.grid.job import Job, JobState
from repro.grid.site import Cluster, Site
from repro.grid.spep import SitePolicyEnforcementPoint
from repro.grid.vo import Group, User, VirtualOrganization, VORegistry

__all__ = [
    "Cluster",
    "Grid",
    "GridBuilder",
    "Group",
    "Job",
    "JobState",
    "Site",
    "SitePolicyEnforcementPoint",
    "User",
    "VORegistry",
    "VirtualOrganization",
]

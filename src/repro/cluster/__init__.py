"""Cloud-cluster simulation substrate.

Discrete-time-slot simulator of PMs, VMs, jobs and SLOs — the testbed
Section IV's experiments run on (Clemson Palmetto cluster / Amazon EC2,
both substituted by :class:`ClusterProfile` instances; see DESIGN.md §2).
"""

from .job import Job, JobState
from .machine import PhysicalMachine, Placement, SlotOutcome, VirtualMachine
from .metrics import (
    MetricsRecorder,
    overall_utilization,
    overall_wastage,
    utilization,
    wastage,
)
from .profiles import ClusterProfile
from .resources import DEFAULT_WEIGHTS, NUM_RESOURCES, ResourceKind, ResourceVector
from .scheduler import LatencyMeter, PredictionLog, Scheduler
from .shards import ScaleConfig, ShardedCandidateIndex
from .simulator import ClusterSimulator, SimulationConfig, SimulationResult
from .slo import SloSpec, SloTracker

__all__ = [
    "Job",
    "JobState",
    "PhysicalMachine",
    "Placement",
    "SlotOutcome",
    "VirtualMachine",
    "MetricsRecorder",
    "utilization",
    "overall_utilization",
    "wastage",
    "overall_wastage",
    "ClusterProfile",
    "DEFAULT_WEIGHTS",
    "NUM_RESOURCES",
    "ResourceKind",
    "ResourceVector",
    "LatencyMeter",
    "PredictionLog",
    "ScaleConfig",
    "Scheduler",
    "ShardedCandidateIndex",
    "ClusterSimulator",
    "SimulationConfig",
    "SimulationResult",
    "SloSpec",
    "SloTracker",
]

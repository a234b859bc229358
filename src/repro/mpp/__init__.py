"""Shared-nothing MPP database simulator (the Greenplum stand-in)."""

from .cluster import FrameRef, MPPDatabase, MPPTable, SegmentOps, Shards
from .distribution import (
    DistributionPolicy,
    HashDistribution,
    RandomDistribution,
    ReplicatedDistribution,
    route,
    stable_hash,
)
from .placement import choose_fallback_motion
from .plannodes import DistDesc, PhysicalNode
from .static_planner import (
    JoinEstimate,
    MotionEstimate,
    StaticPlan,
    StaticPlanner,
    collect_mpp_statistics,
)
from .workers import WorkerCrashError, WorkerPool

__all__ = [
    "DistDesc",
    "DistributionPolicy",
    "FrameRef",
    "HashDistribution",
    "JoinEstimate",
    "MPPDatabase",
    "MPPTable",
    "MotionEstimate",
    "PhysicalNode",
    "RandomDistribution",
    "ReplicatedDistribution",
    "SegmentOps",
    "Shards",
    "StaticPlan",
    "StaticPlanner",
    "WorkerCrashError",
    "WorkerPool",
    "choose_fallback_motion",
    "collect_mpp_statistics",
    "route",
    "stable_hash",
]

"""VM layer: machines, snapshots, executors, and the process shard pool."""

from .executor import ExecutionResult, Executor, SteppedExecution, SyscallRecord
from .machine import (
    RECEIVER,
    SENDER,
    ContainerConfig,
    Machine,
    MachineConfig,
    MachineStats,
)
from .segments import (
    RestoreConsistencyError,
    SegmentedImage,
    StateDelta,
    state_fingerprint,
)
from .shardpool import (
    Job,
    JobResult,
    ShardRunReport,
    affinity_order,
    fork_available,
    run_sharded,
)
from .snapshot import Snapshot

__all__ = [
    "ContainerConfig",
    "ExecutionResult",
    "Executor",
    "Job",
    "JobResult",
    "Machine",
    "MachineConfig",
    "MachineStats",
    "RECEIVER",
    "RestoreConsistencyError",
    "SENDER",
    "SegmentedImage",
    "ShardRunReport",
    "Snapshot",
    "StateDelta",
    "SteppedExecution",
    "SyscallRecord",
    "affinity_order",
    "fork_available",
    "run_sharded",
    "state_fingerprint",
]

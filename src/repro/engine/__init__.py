"""Batched, cached evaluation engine for crossbar solve requests.

See :class:`BatchSolver` for the execution model: canonical cache keys
(:mod:`repro.engine.keys`), LRU + optional disk caches
(:mod:`repro.engine.cache`) guarded by a circuit breaker
(:mod:`repro.engine.breaker`), shared Algorithm 1 Q-grids for size
sweeps, process-parallel fan-out for independent misses, and a
:class:`FailedResult` in the slot of any request whose solver raises.
The deterministic chaos harness (:mod:`repro.engine.chaos`) drives
disk-cache faults here and wire/fleet faults against the service.
"""

from .batch import (
    BatchMetrics,
    BatchSolver,
    EngineConfig,
    EngineStats,
    FailedResult,
    TaskAttempt,
    get_default_engine,
    readdressed,
    reset_default_engine,
    set_default_engine,
    sliced_solution,
)
from .breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    BreakerEvent,
    CircuitBreaker,
)
from .cache import (
    CacheCorruptionError,
    DiskCache,
    LRUCache,
    StaleCacheKeyError,
)
from .chaos import (
    CacheFaultInjector,
    ChaosFault,
    ClusterFault,
    ClusterFaultInjector,
    ClusterFaultPlan,
    FaultPlan,
    ServiceFault,
    ServiceFaultInjector,
    ServiceFaultPlan,
    corrupt_entry,
)
from .keys import classes_key, key_digest, request_key

__all__ = [
    "BatchMetrics",
    "BatchSolver",
    "EngineConfig",
    "EngineStats",
    "FailedResult",
    "TaskAttempt",
    "get_default_engine",
    "readdressed",
    "reset_default_engine",
    "set_default_engine",
    "sliced_solution",
    "BreakerEvent",
    "CircuitBreaker",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "CacheCorruptionError",
    "DiskCache",
    "LRUCache",
    "StaleCacheKeyError",
    "CacheFaultInjector",
    "ChaosFault",
    "ClusterFault",
    "ClusterFaultInjector",
    "ClusterFaultPlan",
    "FaultPlan",
    "ServiceFault",
    "ServiceFaultInjector",
    "ServiceFaultPlan",
    "corrupt_entry",
    "classes_key",
    "key_digest",
    "request_key",
]

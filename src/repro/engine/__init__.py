"""Batched, cached evaluation engine for crossbar solve requests.

See :class:`BatchSolver` for the execution model: canonical cache keys
(:mod:`repro.engine.keys`), LRU + optional disk caches
(:mod:`repro.engine.cache`) guarded by a circuit breaker
(:mod:`repro.engine.breaker`), shared Algorithm 1 Q-grids for size
sweeps, one serial solve per distinct leftover miss, and a
:class:`FailedResult` in the slot of any request whose solver raises.
The deterministic chaos harness (:mod:`repro.engine.chaos`) drives
disk-cache faults here and wire/fleet faults against the service; its
names resolve lazily, and an engine loads it only for a fault plan.
"""

from .. import _lazy
from .batch import (
    BatchMetrics,
    BatchSolver,
    EngineConfig,
    EngineStats,
    FailedResult,
    get_default_engine,
    readdressed,
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
from .keys import classes_key, key_digest, request_key

#: The chaos harness, resolved on first access (PEP 562): an engine
#: without a fault plan never loads it.
_LAZY_EXPORTS = dict.fromkeys(
    (
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
    ),
    ".chaos",
)

__getattr__, __dir__ = _lazy.lazy_exports(
    __name__, _LAZY_EXPORTS, globals()
)

__all__ = [
    "BatchMetrics",
    "BatchSolver",
    "EngineConfig",
    "EngineStats",
    "FailedResult",
    "get_default_engine",
    "readdressed",
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

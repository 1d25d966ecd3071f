"""The solve-serving daemon: asyncio JSON-over-HTTP, stdlib only.

This package turns the batch-oriented library into a long-lived
service a client can send :class:`~repro.api.SolveRequest`s to,
admission-controlled the way the paper's crossbar admits calls:

* **blocked calls cleared** — the :class:`~repro.service.gate.AdmissionGate`
  holds a bounded pool of tokens; a request that cannot get its weight
  immediately is rejected with a structured 503 + ``retry_after``
  (never queued), and the gate's measured ``rejected/offered`` ratio is
  the service's own blocking probability, reported on ``/metrics`` the
  way ``B_r(N)`` is reported for the crossbar;
* **request coalescing** — concurrent identical requests (same
  canonical key from :mod:`repro.engine.keys`) share one in-flight
  engine computation (:class:`~repro.service.coalesce.SingleFlight`);
* **micro-batching** — requests queued together (in one event-loop
  turn, or while the previous flush computes) are flushed as a single
  :meth:`~repro.engine.BatchSolver.evaluate_many` call, inheriting
  Q-grid sharing (:class:`~repro.service.batcher.MicroBatcher`);
* **observability** — a hand-rolled Prometheus ``/metrics`` page
  (:mod:`repro.service.metrics`) plus per-request ids through
  :mod:`repro.logging`;
* **overload resilience** — per-request ``deadline_ms`` budgets
  bound the wait at the batcher and the handler (structured 504s), a
  brownout ladder (:mod:`repro.service.brownout`) degrades service in
  measured stages instead of collapsing, and SIGTERM drains in-flight
  work before exit.  See the resilience section of ``docs/service.md``.

Run it with ``crossbar-repro serve``; talk to it with
:class:`~repro.service.client.ServiceClient`; embed it in tests with
:func:`~repro.service.server.start_in_thread`.  See
``docs/service.md``.
"""

from .. import _lazy
from .batcher import BatcherClosedError, MicroBatcher, RequestExpiredError
from .brownout import (
    STAGE_NAMES,
    BrownoutConfig,
    ServicePressureController,
)
from .coalesce import SingleFlight
from .config import ClusterConfig, ServiceConfig
from .gate import AdmissionGate, GateLease, GateSnapshot
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .server import (
    ServiceHandle,
    SolveService,
    serve,
    start_in_thread,
)
from .sharding import HashRing

#: Client- and fleet-side names resolved on first access (PEP 562), so
#: a one-worker daemon never imports ``http.client`` or the supervisor.
_LAZY_EXPORTS = {
    "AdmissionRejectedError": ".client",
    "DeadlineExceededError": ".client",
    "RemoteSolveError": ".client",
    "RetryPolicy": ".client",
    "ServiceClient": ".client",
    "ServiceProtocolError": ".client",
    "ClusterHandle": ".cluster",
    "ClusterSupervisor": ".cluster",
    "serve_cluster": ".cluster",
    "start_cluster_in_thread": ".cluster",
}

__getattr__, __dir__ = _lazy.lazy_exports(
    __name__, _LAZY_EXPORTS, globals()
)

__all__ = [
    "AdmissionGate",
    "AdmissionRejectedError",
    "BatcherClosedError",
    "BrownoutConfig",
    "ClusterConfig",
    "ClusterHandle",
    "ClusterSupervisor",
    "Counter",
    "DeadlineExceededError",
    "Gauge",
    "GateLease",
    "GateSnapshot",
    "HashRing",
    "Histogram",
    "MetricsRegistry",
    "MicroBatcher",
    "RemoteSolveError",
    "RequestExpiredError",
    "RetryPolicy",
    "STAGE_NAMES",
    "ServiceClient",
    "ServiceConfig",
    "ServiceHandle",
    "ServicePressureController",
    "ServiceProtocolError",
    "SingleFlight",
    "SolveService",
    "serve",
    "serve_cluster",
    "start_cluster_in_thread",
    "start_in_thread",
]

"""The asyncio solve-serving daemon.

One event loop owns everything: connections are parsed by
:mod:`repro.service.httpio`, admission-controlled by the
blocked-calls-cleared :class:`~repro.service.gate.AdmissionGate`,
deduplicated by the :class:`~repro.service.coalesce.SingleFlight` map,
and micro-batched by the :class:`~repro.service.batcher.MicroBatcher`
into :meth:`~repro.engine.BatchSolver.evaluate_many` calls.  A batch
estimated to compute within the interpreter's switch interval runs on
the event loop; a longer one runs on a dedicated worker thread, so the
daemon stays responsive (and ``/metrics`` stays scrapeable) while the
engine grinds through a large cold solve.

Endpoints
---------
* ``POST /solve`` — one :class:`~repro.api.SolveRequest` record;
* ``POST /batch`` — ``{"requests": [...]}``, admission-weighted by
  size (a sweep "acquires more ports" than a point solve, the paper's
  multi-rate ``a_r`` in miniature);
* ``GET /metrics`` — Prometheus text format;
* ``GET /healthz`` — liveness + engine/gate snapshots.

Byte identity is enforced by tests: a result served over this wire
compares equal to a direct :func:`repro.api.solve` on the same
request, coalesced, batched or cached.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from .. import __version__
from ..api import SolveRequest, SolveResult
from ..engine import BatchSolver, readdressed
from ..exceptions import ConfigurationError, CrossbarError
from ..logging import get_logger, kv
from .batcher import BatcherClosedError, MicroBatcher, RequestExpiredError
from .brownout import (
    STAGE_NAMES,
    BrownoutConfig,
    ServicePressureController,
)
from .coalesce import SingleFlight
from .config import ClusterConfig, ServiceConfig
from .gate import AdmissionGate
from .httpio import (
    HttpError,
    HttpRequest,
    ReadDeadline,
    SlowClientError,
    read_deadline,
    read_request,
    write_response,
)
from .metrics import BATCH_SIZE_BUCKETS, QUEUE_WAIT_BUCKETS, MetricsRegistry
from .protocol import (
    decode_deadline_ms,
    decode_request,
    decode_request_list,
    encode_batch,
    encode_failed,
    encode_result,
    new_request_id,
)

__all__ = ["ServiceConfig", "ClusterConfig", "SolveService",
           "ServiceHandle", "serve", "start_in_thread"]

logger = get_logger("service")

#: Entries each per-process memo (decoded bodies, encoded results, the
#: router's body -> shard map) holds before it is cleared and refilled.
_MEMO_CAP = 4096

#: The most :meth:`~repro.engine.BatchSolver.kernel_work` (grid cells
#: of one swept class, fixed costs included) a flush may carry and
#: still run on the event loop: 4.8 ms at 0.04 us per cell, the slow
#: end of a 2-vCPU host's drift, under the 5 ms GIL switch interval.
#: A 32-point sweep to n = 66 is 102162 cells, a four-request burst at
#: n = 64 85250; two mixes at n = 64 (167428), 64 tiny mixes, a tall
#: n1 = 20000, n2 = 60 switch and a three-class n = 900 solve are long.
SHORT_FLUSH_WORK = 120_000


class _EngineRunner:
    """The daemon's flush runner: one engine batch.  :meth:`short`
    tells the batcher which flushes may run on the event loop."""

    __slots__ = ("engine",)

    def __init__(self, engine: BatchSolver) -> None:
        self.engine = engine

    def __call__(self, requests: list[SolveRequest]) -> list[Any]:
        return self.engine.evaluate_many(requests, strict=False)

    def short(self, requests: list[SolveRequest]) -> bool:
        """Whether the batch is cheap enough to run on the loop."""
        work = self.engine.kernel_work(requests)
        return work is not None and work <= SHORT_FLUSH_WORK


class _Connections(dict):
    """Open connections -> "serving a request now" (head read, reply
    not yet flushed); idle keep-alive connections map to False.

    A daemon and a fleet router each keep one, so their drains wait on
    in-flight replies the same way.
    """

    @property
    def busy(self) -> int:
        return sum(1 for busy in self.values() if busy)

    def close_idle(self) -> None:
        """Cut loose keep-alive connections with no request in flight.

        A drain must not wait on a peer that is merely holding a
        persistent connection open; a busy connection finishes its
        reply first (its serving loop then closes it, seeing the
        drain).
        """
        for writer, busy in list(self.items()):
            if not busy:
                writer.close()

    async def serve(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        serve_one: Callable[..., Any],
        read_timeout: float | None,
    ) -> None:
        """One TCP connection: ``serve_one(reader, writer, deadline)``
        answers a request and returns True to keep the connection
        (HTTP/1.1 keep-alive) for the next one."""
        self[writer] = False
        deadline = read_deadline(read_timeout)
        try:
            while await serve_one(reader, writer, deadline):
                pass
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            if deadline is not None:
                deadline.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            # Popped only now: ``stop`` waits for an empty map, and the
            # loop must not close under a handler still in wait_closed.
            self.pop(writer, None)


class _Instruments:
    """Every metric the daemon exports, built on one registry."""

    def __init__(
        self,
        registry: MetricsRegistry,
        gate: AdmissionGate,
        engine: BatchSolver,
    ) -> None:
        self.registry = registry
        self.requests_total = registry.counter(
            "repro_service_requests_total",
            "Requests handled, by endpoint and HTTP status.",
        )
        self.request_seconds = registry.histogram(
            "repro_service_request_seconds",
            "Wall-clock request latency by endpoint (admitted or not).",
        )
        self.admission_offered = registry.counter(
            "repro_service_admission_offered_total",
            "Requests offered to the admission gate, by class.",
        )
        self.admission_rejected = registry.counter(
            "repro_service_admission_rejected_total",
            "Requests cleared (503) by the admission gate, by class.",
        )
        self.blocking_ratio = registry.gauge(
            "repro_service_admission_blocking_ratio",
            "Measured blocking probability: rejected / offered.",
        )
        self.blocking_ratio.set(lambda: gate.snapshot().blocking_ratio)
        self.gate_gauge = registry.gauge(
            "repro_service_gate_tokens",
            "Admission gate tokens by state.",
        )
        self.gate_gauge.set(lambda: gate.capacity, state="capacity")
        self.gate_gauge.set(lambda: gate.in_use, state="in_use")
        self.gate_gauge.set(lambda: gate.peak_in_use, state="peak")
        self.gate_gauge.set(lambda: gate.limit, state="limit")
        self.fast_path_hits = registry.counter(
            "repro_service_fast_path_hits_total",
            "Requests served off the in-memory cache on the event loop "
            "(no coalesce, no batch, no thread hop).",
        )
        self.coalesce_hits = registry.counter(
            "repro_service_coalesce_hits_total",
            "Requests that joined an identical in-flight computation.",
        )
        self.coalesce_leaders = registry.counter(
            "repro_service_coalesce_leaders_total",
            "Requests that led a new in-flight computation.",
        )
        self.batch_flushes = registry.counter(
            "repro_service_batch_flushes_total",
            "Micro-batch flushes into the engine.",
        )
        self.loop_flushes = registry.counter(
            "repro_service_loop_flushes_total",
            "Micro-batch flushes run on the event loop (estimated "
            "shorter than the switch interval; the rest run on the "
            "worker thread).",
        )
        self.batch_size = registry.histogram(
            "repro_service_batch_size",
            "Requests per micro-batch flush.",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self.batch_queue_wait = registry.histogram(
            "repro_service_batch_queue_wait_seconds",
            "Micro-batch queue wait: submit to the batch runner starting "
            "on the flush thread.",
            buckets=QUEUE_WAIT_BUCKETS,
        )
        self.solve_failures = registry.counter(
            "repro_service_solve_failures_total",
            "Requests that terminally failed in the engine.",
        )
        self.inflight = registry.gauge(
            "repro_service_inflight_requests",
            "Requests currently inside the daemon (admitted, unfinished).",
        )
        self._inflight_count = 0
        self.inflight.set(lambda: self._inflight_count)
        self.deadline_exceeded = registry.counter(
            "repro_service_deadline_exceeded_total",
            "Requests whose deadline_ms budget ran out (504), by phase.",
        )
        self.degraded_responses = registry.counter(
            "repro_service_degraded_responses_total",
            "Responses served degraded under brownout, by stage.",
        )
        self.brownout_transitions = registry.counter(
            "repro_service_brownout_transitions_total",
            "Brownout ladder stage transitions, labeled from -> to.",
        )
        self.brownout_shed = registry.counter(
            "repro_service_brownout_shed_total",
            "Solves cleared by the brownout ladder before the gate.",
        )
        self.slow_clients = registry.counter(
            "repro_service_slow_clients_total",
            "Connections aborted for stalled reads or undrained writes.",
        )

        engine_stat = registry.gauge(
            "repro_engine_stat",
            "Cumulative engine cache counters (see repro.engine).",
        )
        for stat in ("lookups", "memory_hits", "disk_hits", "solves",
                     "grid_reads", "hit_rate"):
            engine_stat.set(
                (lambda s=stat: engine.stats.snapshot()[s]), stat=stat
            )
        cache_entries = registry.gauge(
            "repro_engine_cache_entries",
            "Entries the engine holds in memory, by cache (results: the "
            "result LRU; solutions: full solution objects, which serving "
            "reads but never stores).",
        )
        for cache in ("results", "solutions"):
            cache_entries.set(
                (lambda c=cache: engine.cache_entries()[c]), cache=cache
            )
        registry.gauge(
            "repro_kernel_scaled_fallbacks",
            "Scaled sweeps that fell back to the log sweep past the "
            "1/n1! float64 cliff (process lifetime).",
        ).set(self._scaled_fallbacks)
        last_batch = registry.gauge(
            "repro_engine_last_batch",
            "BatchMetrics of the engine's most recent batch.",
        )
        for fname in ("requests", "memory_hits", "disk_hits", "grid_groups",
                      "grid_points", "solved", "elapsed", "hit_rate",
                      "failed", "breaker_trips"):
            last_batch.set(
                (lambda f=fname: self._last_batch_field(engine, f)),
                field=fname,
            )
        breaker = registry.gauge(
            "repro_engine_breaker_state",
            "Disk-cache circuit breaker state (one-hot).",
        )
        for state in ("closed", "open", "half-open", "disabled"):
            breaker.set(
                (lambda s=state: 1 if self._breaker_state(engine) == s
                 else 0),
                state=state,
            )
        info = registry.gauge(
            "repro_service_info", "Build information (constant 1)."
        )
        info.set(1, version=__version__)

    def bind_runtime(
        self,
        controller: ServicePressureController,
        batcher: MicroBatcher,
    ) -> None:
        """Gauges that need the controller/batcher (built after us)."""
        stage = self.registry.gauge(
            "repro_service_brownout_stage",
            "Brownout ladder stage (0=normal .. 3=fast-503).",
        )
        stage.set(lambda: controller.stage)
        pressure = self.registry.gauge(
            "repro_service_brownout_pressure",
            "Live pressure components driving the brownout ladder.",
        )
        for comp in ("gate", "queue", "lag", "breaker", "fleet",
                     "overall"):
            pressure.set(
                (lambda c=comp: controller.pressure()[c]), component=comp
            )
        batcher_gauge = self.registry.gauge(
            "repro_service_batcher",
            "Micro-batcher internals (queue, lag, supervision counters).",
        )
        batcher_gauge.set(lambda: batcher.queue_depth, field="queue_depth")
        batcher_gauge.set(lambda: batcher.worker_lag, field="worker_lag")
        batcher_gauge.set(
            lambda: batcher.worker_respawns, field="worker_respawns"
        )
        batcher_gauge.set(
            lambda: batcher.expired_requests, field="expired_requests"
        )

    @staticmethod
    def _scaled_fallbacks() -> int:
        # Imported at render time: the kernels load with the first solve.
        from ..core.kernels import scaled_fallback_count

        return scaled_fallback_count()

    @staticmethod
    def _last_batch_field(engine: BatchSolver, fname: str) -> float:
        metrics = engine.last_metrics
        if metrics is None:
            return 0.0
        return float(getattr(metrics, fname))

    @staticmethod
    def _breaker_state(engine: BatchSolver) -> str:
        # The live breaker, as brownout reads it (not a flush snapshot);
        # an empty DiskCache is falsy, hence ``is not None``.
        disk = engine.disk
        return disk.breaker.state if disk is not None else "disabled"


@dataclass
class _Reply:
    """What a route handler produced, ready for the wire."""

    status: int
    payload: dict
    headers: dict[str, str] = field(default_factory=dict)


class SolveService:
    """The daemon: routes requests through gate -> coalesce -> batch."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        engine: BatchSolver | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.engine = engine if engine is not None else BatchSolver()
        self.gate = AdmissionGate(self.config.gate_capacity)
        self.flights = SingleFlight()
        self.registry = MetricsRegistry()
        self.instruments = _Instruments(self.registry, self.gate, self.engine)
        #: The flush runner (a callable; tests wrap or replace it).
        self._run_batch = _EngineRunner(self.engine)
        self.batcher = MicroBatcher(
            self._run_batch,
            window=self.config.batch_window,
            max_batch=self.config.max_batch,
            observer=self._observe_flush,
            wait_observer=self.instruments.batch_queue_wait.observe,
        )
        self.brownout = ServicePressureController(
            self.config.brownout,
            gate=self.gate,
            batcher=self.batcher,
            engine=self.engine,
            on_transition=self._on_brownout_transition,
        )
        self.instruments.bind_runtime(self.brownout, self.batcher)
        self._server: asyncio.base_events.Server | None = None
        self._started_at = time.monotonic()
        self._ewma_hold = 0.0
        self._draining = False
        self._conn_busy = _Connections()
        self._brownout_task: asyncio.Task | None = None
        #: body bytes -> (decoded request, deadline budget).  Identical
        #: bytes decode identically, so hot traffic skips the JSON
        #: parse + request canonicalization on repeat sightings.
        self._parse_memo: dict[bytes, tuple[SolveRequest, float | None]] = {}
        #: Canonical key -> (result, its serialized JSON), for results
        #: served from the cache.  A reply splices the fragment only
        #: when it serves that very result object: a hot repeat gets
        #: the engine's one served copy back and re-encodes nothing,
        #: while another class order (same key) is encoded for itself.
        #: A fresh solve's fragment is never kept: the next hit on its
        #: key is the engine's served copy, not that result.
        self._result_memo: dict[str, tuple[SolveResult, bytes]] = {}
        # Both memos hold at most _MEMO_CAP entries: a full memo is
        # cleared before its next insert, so a shifting working set
        # keeps getting memoized.
        self._shard_header = (
            None if self.config.shard_index is None
            else str(self.config.shard_index)
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._started_at = time.monotonic()
        if self.config.brownout.enabled:
            self._brownout_task = asyncio.get_running_loop().create_task(
                self.brownout.run(), name="repro-brownout"
            )
        logger.info(
            "service listening %s",
            kv(host=self.host, port=self.port,
               gate_capacity=self.gate.capacity,
               batch_window=self.config.batch_window),
        )

    async def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown, phase one: finish what we admitted.

        Stops accepting connections, flushes the pending micro-batch
        immediately, and waits (up to ``timeout``, default
        ``config.drain_timeout``) for every admitted request — leaders
        *and* coalesced followers — to resolve.  Returns True when the
        daemon drained clean, False on timeout (callers stop anyway;
        closing the batcher fails the queued remnants with structured
        envelopes rather than leaking them).
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            self._server = None
        self.batcher.flush_pending()
        self._conn_busy.close_idle()
        budget = self.config.drain_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        while (
            self.instruments._inflight_count > 0
            or self._conn_busy.busy
            or self.batcher.busy
        ):
            if time.monotonic() >= deadline:
                logger.warning(
                    "drain timed out %s",
                    kv(inflight=self.instruments._inflight_count,
                       connections=self._conn_busy.busy,
                       batcher_busy=self.batcher.busy, budget=budget),
                )
                return False
            self.batcher.flush_pending()
            self._conn_busy.close_idle()
            await asyncio.sleep(0.005)
        self._conn_busy.close_idle()
        logger.info("drain complete %s", kv(budget=budget))
        return True

    async def stop(self) -> None:
        if self._brownout_task is not None:
            self._brownout_task.cancel()
            try:
                await self._brownout_task
            except asyncio.CancelledError:
                pass
            self._brownout_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for conn_writer in list(self._conn_busy):
            conn_writer.close()
        # Give keep-alive serving loops a beat to observe the EOF and
        # unwind, so the event loop does not die with pending handlers.
        for _ in range(10):
            if not self._conn_busy:
                break
            await asyncio.sleep(0.01)
        await self.batcher.close()
        logger.info(
            "service stopped %s",
            kv(**{
                "offered": self.gate.offered,
                "rejected": self.gate.rejected,
                "coalesce_hits": self.flights.hits,
            }),
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the real one)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self.config.port

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One TCP connection: serve requests until either side closes.

        The connection persists across exchanges HTTP/1.1-style; a peer
        sending ``Connection: close``, any framing error or a drain in
        progress ends it after the current reply.
        """
        await self._conn_busy.serve(
            reader, writer, self._serve_one, self.config.read_timeout
        )

    async def _serve_one(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        deadline: ReadDeadline | None,
    ) -> bool:
        """Read, route and answer one request; True to keep the
        connection for another exchange."""
        began = time.perf_counter()
        endpoint = "unknown"
        status = 500
        keep = False
        request_id = new_request_id()
        try:
            try:
                http = await read_request(reader, deadline=deadline)
            except HttpError as exc:
                status = exc.status
                if exc.status == 408:
                    # Slow loris: the peer held the connection without
                    # delivering a request.  It never reached the gate,
                    # so it holds no tokens; just cut it loose.
                    self.instruments.slow_clients.inc(direction="read")
                await self._write_error(
                    writer, exc.status,
                    "slow_client" if exc.status == 408 else "bad_request",
                    str(exc), request_id,
                )
                return False
            if http is None:  # clean disconnect between requests
                status = 0
                return False
            # Busy from head-read to reply-flushed, so drain() cannot
            # declare victory while a response is in flight.
            self._conn_busy[writer] = True
            endpoint = f"{http.method} {http.path}"
            fleet = http.headers.get("x-fleet-pressure")
            if fleet is not None:
                # The cluster router reports how much load this worker
                # absorbs for dead shards; feed it to the brownout
                # ladder so a shrunken fleet sheds instead of timing
                # out (see ServicePressureController.fleet_pressure).
                try:
                    self.brownout.fleet_pressure = min(
                        1.0, max(0.0, float(fleet))
                    )
                except ValueError:
                    pass
            reply = await self._route(http, request_id)
            status = reply.status
            keep = (
                not self._draining
                and http.headers.get("connection", "").lower() != "close"
            )
            body = json.dumps(reply.payload).encode("utf-8") \
                if isinstance(reply.payload, dict) \
                else reply.payload
            content_type = reply.headers.pop(
                "Content-Type", "application/json"
            )
            reply.headers.setdefault("X-Request-Id", request_id)
            if self._shard_header is not None:
                reply.headers.setdefault("X-Shard", self._shard_header)
            await write_response(
                writer, status, body,
                content_type=content_type, extra_headers=reply.headers,
                timeout=self.config.write_timeout, close=not keep,
            )
            return keep
        except SlowClientError as exc:
            # The peer stopped draining its reply; abort the transport
            # so the connection cannot pin the daemon (tokens were
            # released before the write).
            self.instruments.slow_clients.inc(direction="write")
            logger.info(
                "slow client aborted %s",
                kv(request_id=request_id, endpoint=endpoint,
                   detail=str(exc)),
            )
            status = 499
            transport = writer.transport
            if transport is not None:
                transport.abort()
            return False
        except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
            # The peer vanished: work is done (and any gate tokens are
            # already released); only the reply is lost.
            if logger.isEnabledFor(logging.INFO):
                logger.info(
                    "client disconnected %s",
                    kv(request_id=request_id, endpoint=endpoint,
                       detail=type(exc).__name__),
                )
            status = 499
            return False
        except Exception:  # noqa: BLE001 - last-resort 500
            logger.exception("unhandled service error")
            status = 500
            try:
                await self._write_error(
                    writer, 500, "internal_error",
                    "unhandled service error", request_id,
                )
            except OSError:
                pass
            return False
        finally:
            if writer in self._conn_busy:
                self._conn_busy[writer] = False
            if status != 0:  # ignore empty keep-alive probes
                elapsed = time.perf_counter() - began
                self.instruments.requests_total.inc(
                    endpoint=endpoint, status=str(status)
                )
                self.instruments.request_seconds.observe(
                    elapsed, endpoint=endpoint
                )
                if logger.isEnabledFor(logging.INFO):
                    logger.info(
                        "request handled %s",
                        kv(request_id=request_id, endpoint=endpoint,
                           status=status, elapsed=elapsed),
                    )

    async def _write_error(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        kind: str,
        message: str,
        request_id: str,
        extra: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> None:
        payload = {
            "id": request_id,
            "error": {"kind": kind, "message": message, **(extra or {})},
        }
        base_headers = {"X-Request-Id": request_id}
        if self._shard_header is not None:
            base_headers["X-Shard"] = self._shard_header
        if headers:
            base_headers.update(headers)
        await write_response(
            writer, status, json.dumps(payload).encode("utf-8"),
            extra_headers=base_headers,
            timeout=self.config.write_timeout,
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _route(self, http: HttpRequest, request_id: str) -> _Reply:
        if http.path == "/metrics":
            if http.method != "GET":
                return self._method_not_allowed(request_id, "GET")
            return _Reply(
                200, self.registry.render().encode("utf-8"),
                {"Content-Type": MetricsRegistry.CONTENT_TYPE},
            )
        if http.path == "/healthz":
            if http.method != "GET":
                return self._method_not_allowed(request_id, "GET")
            return _Reply(200, self._health(request_id))
        if http.path == "/solve":
            if http.method != "POST":
                return self._method_not_allowed(request_id, "POST")
            return await self._handle_solve(http, request_id)
        if http.path == "/batch":
            if http.method != "POST":
                return self._method_not_allowed(request_id, "POST")
            return await self._handle_batch(http, request_id)
        return _Reply(404, {
            "id": request_id,
            "error": {"kind": "not_found",
                      "message": f"no route for {http.path}"},
        })

    def _method_not_allowed(self, request_id: str, allowed: str) -> _Reply:
        return _Reply(
            405,
            {"id": request_id,
             "error": {"kind": "method_not_allowed",
                       "message": f"use {allowed}"}},
            {"Allow": allowed},
        )

    def _health(self, request_id: str) -> dict:
        gate = self.gate.snapshot()
        return {
            "id": request_id,
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "shard": self.config.shard_index,
            "uptime_s": time.monotonic() - self._started_at,
            "brownout": {
                "stage": self.brownout.stage,
                "stage_name": self.brownout.stage_name,
                "transitions": self.brownout.transitions,
                "pressure": self.brownout.pressure(),
            },
            "gate": {
                "capacity": gate.capacity,
                "limit": gate.limit,
                "in_use": gate.in_use,
                "peak_in_use": gate.peak_in_use,
                "offered": gate.offered,
                "rejected": gate.rejected,
                "blocking_ratio": gate.blocking_ratio,
            },
            "coalesce": {
                "hits": self.flights.hits,
                "leaders": self.flights.leaders,
                "in_flight": len(self.flights),
            },
            "batcher": {
                "flushes": self.batcher.flush_count,
                "loop_flushes": self.batcher.loop_flushes,
            },
            "engine": self.engine.stats.snapshot(),
        }

    # ------------------------------------------------------------------
    # Solve endpoints
    # ------------------------------------------------------------------

    def _parse_body(self, http: HttpRequest) -> Any:
        try:
            return json.loads(http.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"request body is not JSON: {exc}") \
                from exc

    async def _handle_solve(
        self, http: HttpRequest, request_id: str
    ) -> _Reply:
        memo = self._parse_memo.get(http.body)
        if memo is not None:
            request, budget = memo
        else:
            try:
                payload = self._parse_body(http)
                request = decode_request(payload)
                budget = decode_deadline_ms(payload)
            except CrossbarError as exc:
                return self._bad_request(request_id, str(exc))
            if len(self._parse_memo) >= _MEMO_CAP:
                self._parse_memo.clear()
            self._parse_memo[http.body] = (request, budget)
        if self._draining:
            return self._shutting_down(request_id)
        if self.brownout.shedding:
            return self._shed(request_id, "solve")
        if self.brownout.stale_only:
            return self._serve_stale(request_id, request)
        deadline_at = (
            time.monotonic() + budget if budget is not None else None
        )
        lease = self.gate.try_acquire("solve", self.config.point_weight)
        self._count_admission("solve", lease is not None)
        if lease is None:
            return self._rejected(request_id, "solve")
        began = time.perf_counter()
        self.instruments._inflight_count += 1
        try:
            result, coalesced = await self._execute(
                request, deadline_at=deadline_at
            )
            if self.config.min_hold > 0.0:
                await asyncio.sleep(self.config.min_hold)
        except BatcherClosedError:
            return self._shutting_down(request_id)
        except RequestExpiredError:
            return self._deadline_exceeded(request_id, budget, "batch")
        except asyncio.TimeoutError:
            return self._deadline_exceeded(request_id, budget, "wait")
        finally:
            self.instruments._inflight_count -= 1
            self.gate.release(lease)
            self._note_hold(time.perf_counter() - began)
        if getattr(result, "failed", False):
            self.instruments.solve_failures.inc()
            return _Reply(500, {
                "id": request_id,
                "error": encode_failed(result) | {
                    "message": result.error_message,
                },
            })
        elapsed_ms = (time.perf_counter() - began) * 1e3
        # Hot path: splice the memoized result fragment into the
        # envelope instead of re-encoding the result dict per request
        # (same bytes json.dumps would emit, without walking the tree).
        memo = self._result_memo.get(request.cache_key)
        if memo is not None and memo[0] is result:
            fragment = memo[1]
        else:
            fragment = json.dumps(encode_result(result)).encode("utf-8")
            if result.from_cache:
                if len(self._result_memo) >= _MEMO_CAP:
                    self._result_memo.clear()
                self._result_memo[request.cache_key] = (result, fragment)
        tail = (
            f', "coalesced": {"true" if coalesced else "false"}'
            f', "from_cache": {"true" if result.from_cache else "false"}'
            f', "elapsed_ms": {elapsed_ms!r}}}'
        )
        return _Reply(200, (
            f'{{"id": "{request_id}", "result": '.encode("utf-8")
            + fragment + tail.encode("utf-8")
        ))

    async def _handle_batch(
        self, http: HttpRequest, request_id: str
    ) -> _Reply:
        try:
            payload = self._parse_body(http)
            requests = decode_request_list(payload)
            budget = decode_deadline_ms(payload)
        except CrossbarError as exc:
            return self._bad_request(request_id, str(exc))
        if self._draining:
            return self._shutting_down(request_id)
        if self.brownout.shedding:
            return self._shed(request_id, "batch")
        if self.brownout.stale_only:
            return self._serve_stale_batch(request_id, requests)
        deadline_at = (
            time.monotonic() + budget if budget is not None else None
        )
        weight = self.config.batch_member_weight * len(requests)
        lease = self.gate.try_acquire("batch", weight)
        self._count_admission("batch", lease is not None)
        if lease is None:
            return self._rejected(request_id, "batch")
        began = time.perf_counter()
        self.instruments._inflight_count += 1
        try:
            results, coalesced = await self._execute_all(
                requests, deadline_at
            )
            if self.config.min_hold > 0.0:
                await asyncio.sleep(self.config.min_hold)
        except BatcherClosedError:
            return self._shutting_down(request_id)
        except RequestExpiredError:
            return self._deadline_exceeded(request_id, budget, "batch")
        except asyncio.TimeoutError:
            return self._deadline_exceeded(request_id, budget, "wait")
        finally:
            self.instruments._inflight_count -= 1
            self.gate.release(lease)
            self._note_hold(time.perf_counter() - began)
        failures = sum(1 for r in results if getattr(r, "failed", False))
        if failures:
            self.instruments.solve_failures.inc(failures)
        tail = {
            "failed": failures,
            "coalesced": coalesced,
            "admission_weight": lease.weight,
            "elapsed_ms": (time.perf_counter() - began) * 1e3,
        }
        return _Reply(200, encode_batch(request_id, results, tail))

    def _bad_request(self, request_id: str, message: str) -> _Reply:
        return _Reply(400, {
            "id": request_id,
            "error": {"kind": "bad_request", "message": message},
        })

    # ------------------------------------------------------------------
    # Brownout and deadline envelopes
    # ------------------------------------------------------------------

    def _stamp_degraded(self, reply: dict) -> None:
        reply["degraded"] = True
        reply["degraded_stage"] = self.brownout.stage_name
        self.instruments.degraded_responses.inc(
            stage=self.brownout.stage_name
        )

    def _shed(self, request_id: str, admission_class: str) -> _Reply:
        """Stage 3: clear the request before it touches the gate."""
        self.instruments.brownout_shed.inc(
            **{"class": admission_class}
        )
        retry_after = self._retry_after()
        error = {
            "kind": "brownout_rejected",
            "message": (
                "service is shedding load (brownout stage "
                f"{self.brownout.stage_name}); retry after the hint"
            ),
            "brownout_stage": self.brownout.stage_name,
            "retry_after": retry_after,
        }
        if self.config.shard_index is not None:
            error["shard"] = self.config.shard_index
        return _Reply(503, {
            "id": request_id,
            "error": error,
        }, {"Retry-After": str(max(1, math.ceil(retry_after)))})

    def _serve_stale(self, request_id: str, request: SolveRequest) -> _Reply:
        """Stage 2: a cache hit (stamped degraded) or a fast 503."""
        hit = self.engine.cached_result(request)
        if hit is None:
            return self._shed(request_id, "solve")
        reply = {
            "id": request_id,
            "result": encode_result(hit),
            "coalesced": False,
            "from_cache": True,
            "elapsed_ms": 0.0,
        }
        self._stamp_degraded(reply)
        return _Reply(200, reply)

    def _serve_stale_batch(
        self, request_id: str, requests: list[SolveRequest]
    ) -> _Reply:
        """Stage 2 for ``/batch``: hits served, misses marked failed."""
        items = []
        failures = 0
        for request in requests:
            hit = self.engine.cached_result(request)
            if hit is None:
                failures += 1
                items.append({
                    "failed": True,
                    "kind": "degraded_unavailable",
                    "request": request.to_dict(),
                    "error_type": "BrownoutError",
                    "error_message": (
                        "stale-cache stage: not cached, not solving"
                    ),
                })
            else:
                items.append(hit)
        tail = {
            "failed": failures,
            "coalesced": 0,
            "admission_weight": 0,
            "elapsed_ms": 0.0,
        }
        self._stamp_degraded(tail)
        return _Reply(200, encode_batch(request_id, items, tail))

    def _deadline_exceeded(
        self, request_id: str, budget: float | None, phase: str
    ) -> _Reply:
        """Structured 504: the client's budget ran out, work was shed."""
        self.instruments.deadline_exceeded.inc(phase=phase)
        return _Reply(504, {
            "id": request_id,
            "error": {
                "kind": "deadline_exceeded",
                "message": (
                    "the request's deadline_ms budget expired in the "
                    f"{phase} phase"
                ),
                "deadline_ms": (
                    budget * 1e3 if budget is not None else None
                ),
                "phase": phase,
            },
        })

    def _on_brownout_transition(
        self, old: int, new: int, score: float
    ) -> None:
        self.instruments.brownout_transitions.inc(
            **{"from": STAGE_NAMES[old], "to": STAGE_NAMES[new]}
        )

    def _shutting_down(self, request_id: str) -> _Reply:
        return _Reply(503, {
            "id": request_id,
            "error": {"kind": "shutting_down",
                      "message": "service is shutting down"},
        }, {"Retry-After": "1"})

    def _count_admission(self, admission_class: str, admitted: bool) -> None:
        self.instruments.admission_offered.inc(
            **{"class": admission_class}
        )
        if not admitted:
            self.instruments.admission_rejected.inc(
                **{"class": admission_class}
            )

    def _rejected(self, request_id: str, admission_class: str) -> _Reply:
        """Blocked-calls-cleared: structured 503, no queueing."""
        gate = self.gate.snapshot()
        retry_after = self._retry_after()
        if logger.isEnabledFor(logging.INFO):
            logger.info(
                "request cleared %s",
                kv(request_id=request_id, admission_class=admission_class,
                   in_use=gate.in_use, capacity=gate.capacity,
                   retry_after=retry_after),
            )
        error = {
            "kind": "admission_rejected",
            "message": (
                "admission gate is full; the request was cleared "
                "(not queued) -- retry after the hint"
            ),
            "admission_class": admission_class,
            "retry_after": retry_after,
            "gate_capacity": gate.capacity,
            "gate_in_use": gate.in_use,
            "offered": gate.offered,
            "rejected": gate.rejected,
            "blocking_ratio": gate.blocking_ratio,
        }
        if self.config.shard_index is not None:
            error["shard"] = self.config.shard_index
        return _Reply(503, {
            "id": request_id,
            "error": error,
        }, {"Retry-After": str(max(1, math.ceil(retry_after)))})

    def _note_hold(self, elapsed: float) -> None:
        self._ewma_hold = (
            elapsed if self._ewma_hold == 0.0
            else 0.8 * self._ewma_hold + 0.2 * elapsed
        )

    def _retry_after(self) -> float:
        return max(self.config.retry_after_floor, self._ewma_hold)

    # ------------------------------------------------------------------
    # Execution: coalesce -> micro-batch -> engine
    # ------------------------------------------------------------------

    def _start(
        self, request: SolveRequest, deadline_at: float | None
    ) -> tuple[Any, asyncio.Future | None, bool]:
        """Serve ``request`` from memory, or join or lead its flight.

        Returns ``(result, None, False)`` for a fast-path hit and
        ``(None, flight, coalesced)`` otherwise.  A ``/batch`` starts
        its members together in :meth:`_execute_all`.
        """
        # Cache-hot requests never leave the event loop: a pure
        # in-memory lookup (no disk, no lock, no thread hop) serves the
        # same bytes the batcher would.  Admission was already charged
        # by the caller, so the loss-system contract holds.
        hit = self.engine.cached_result(request, memory_only=True)
        if hit is not None:
            self.instruments.fast_path_hits.inc()
            return hit, None, False
        key = request.cache_key
        future = self.flights.join(key)
        if future is not None:
            self.instruments.coalesce_hits.inc()
            return None, future, True
        future = self.flights.lead(key, asyncio.get_running_loop())
        # Every waiter may have given up (504) before the flight fails.
        future.add_done_callback(_retrieve_exception)
        self.instruments.coalesce_leaders.inc()
        self.batcher.submit(request, future, deadline_at)
        return None, future, False

    async def _execute(
        self,
        request: SolveRequest,
        deadline_at: float | None = None,
    ) -> tuple[Any, bool]:
        """One request's result plus whether it coalesced.

        Identical in-flight requests share a single engine computation:
        the first becomes the leader (its future is resolved by the
        batcher), later ones await the same future — including while
        the leader's flush is still computing.  A leader's terminal
        failure resolves the future with the engine's
        :class:`~repro.engine.FailedResult`, so followers receive the
        same envelope instead of hanging.  A follower shares the
        leader's key, not necessarily its class order: the flight's
        result is re-addressed to each waiter's own request, as a cache
        hit is.

        ``deadline_at`` (absolute ``time.monotonic()``) carries the
        client's ``deadline_ms`` budget: the batcher drops the request
        if it expires before its runner starts, and the await itself is
        bounded (``asyncio.TimeoutError``) — the shield keeps a shared
        flight alive for its other waiters when this one gives up.
        """
        hit, future, coalesced = self._start(request, deadline_at)
        if future is None:
            return hit, False
        result = await self._await_flight(future, deadline_at)
        return readdressed(result, request), coalesced

    async def _execute_all(
        self,
        requests: list[SolveRequest],
        deadline_at: float | None,
    ) -> tuple[list[Any], int]:
        """:meth:`_execute` for every member of a ``/batch``: their
        results in order, and how many coalesced.

        What a member costs is its lookup and its share of the reply;
        the rest is paid once per batch.  One synchronous pass on the
        connection task (no task per member) serves the cache hits;
        the misses then join flights in progress and lead the rest
        together (:meth:`SingleFlight.start_many`): one shared flight,
        one batcher entry, one wake-up when the flush resolves it.  One
        ``asyncio.wait`` covers the flights under the request's
        deadline.  The first failed member, in request order, raises; a
        timeout leaves shared flights running for their other waiters.
        """
        results: list[Any] = self.engine.cached_results(requests)
        misses = [i for i, hit in enumerate(results) if hit is None]
        if len(misses) < len(requests):
            self.instruments.fast_path_hits.inc(len(requests) - len(misses))
        if not misses:
            return results, 0
        flight, sources = self.flights.start_many(
            [requests[i].cache_key for i in misses],
            asyncio.get_running_loop(),
        )
        coalesced = sum(1 for _, _, joined in sources if joined)
        if coalesced:
            self.instruments.coalesce_hits.inc(coalesced)
        if flight is not None:
            # Every waiter may have given up (504) before the flight fails.
            flight.add_done_callback(_retrieve_exception)
            leaders = [
                requests[i]
                for i, (_, _, joined) in zip(misses, sources) if not joined
            ]
            self.instruments.coalesce_leaders.inc(len(leaders))
            self.batcher.submit_many(leaders, flight, deadline_at)
        timeout = None
        if deadline_at is not None:
            timeout = deadline_at - time.monotonic()
            if timeout <= 0:
                raise asyncio.TimeoutError
        done, pending = await asyncio.wait(
            {future for future, _, _ in sources}, timeout=timeout,
            return_when=asyncio.FIRST_EXCEPTION,
        )
        for future, _, _ in sources:
            if (future in done and not future.cancelled()
                    and future.exception() is not None):
                raise future.exception()
        if pending:
            raise asyncio.TimeoutError
        for i, (future, slot, _) in zip(misses, sources):
            result = future.result()
            if slot is not None:
                result = result[slot]
            results[i] = readdressed(result, requests[i])
        return results, coalesced

    @staticmethod
    async def _await_flight(
        future: asyncio.Future, deadline_at: float | None
    ) -> Any:
        shielded = asyncio.shield(future)
        if deadline_at is None:
            return await shielded
        remaining = deadline_at - time.monotonic()
        if remaining <= 0:
            shielded.cancel()
            raise asyncio.TimeoutError
        async with asyncio.timeout(remaining):
            return await shielded

    def _observe_flush(self, batch_size: int, elapsed: float) -> None:
        self.instruments.batch_flushes.inc()
        self.instruments.batch_size.observe(float(batch_size))
        # The batcher counts a loop flush before observing it.
        loop_flushes = self.instruments.loop_flushes
        if self.batcher.loop_flushes > loop_flushes.value():
            loop_flushes.inc()


def _retrieve_exception(flight: asyncio.Future) -> None:
    if not flight.cancelled():
        flight.exception()


# ----------------------------------------------------------------------
# Hosting: one lifecycle for a daemon and a fleet
# ----------------------------------------------------------------------
#
# A hosted object has ``start``/``drain``/``stop``/``serve_forever``
# coroutines plus ``host``, ``port`` and ``config``: a SolveService, or
# a fleet's ClusterSupervisor (repro.service.cluster).


async def _serve_async(
    target: Any,
    on_started: Callable[[Any], None] | None = None,
) -> None:
    """Serve ``target`` until a signal: the first SIGTERM/SIGINT drains
    (stop accepting, finish what was admitted), a second forces exit."""
    await target.start()
    if on_started is not None:
        # Cluster workers report their bound (possibly ephemeral) port
        # to the supervisor through this hook.
        on_started(target)
    loop = asyncio.get_running_loop()
    stop_now = asyncio.Event()
    drains: list[asyncio.Task] = []

    async def _drain_then_stop() -> None:
        await target.drain()
        stop_now.set()

    def _on_signal() -> None:
        if not drains:
            logger.warning("shutdown signal received; draining")
            drains.append(loop.create_task(_drain_then_stop()))
        else:
            logger.warning("second shutdown signal; forcing exit")
            stop_now.set()

    installed: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, _on_signal)
            installed.append(sig)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or unsupported platform

    forever = loop.create_task(target.serve_forever())
    stopper = loop.create_task(stop_now.wait())
    try:
        await asyncio.wait(
            {forever, stopper}, return_when=asyncio.FIRST_COMPLETED
        )
        if not stopper.done() and drains:
            # The listener closing is a *consequence* of the drain, not
            # the end of it: keep the loop alive until the drain (or a
            # second, forcing signal) sets stop_now, so in-flight
            # replies are written before asyncio.run cancels tasks.
            await stopper
    except asyncio.CancelledError:  # pragma: no cover - shutdown path
        pass
    finally:
        for task in (forever, stopper):
            task.cancel()
        await asyncio.gather(forever, stopper, return_exceptions=True)
        for sig in installed:
            loop.remove_signal_handler(sig)
        await target.stop()


def serve(
    config: ServiceConfig | None = None,
    engine: BatchSolver | None = None,
    on_started: Callable[[SolveService], None] | None = None,
) -> None:
    """Run the daemon in the current thread until interrupted."""
    service = SolveService(config or ServiceConfig(), engine=engine)
    asyncio.run(_serve_async(service, on_started))


class ServiceHandle:
    """A daemon or a fleet on its own thread/event loop (tests,
    benchmarks); ``service`` is the hosted object."""

    def __init__(
        self,
        service: Any,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.service = service
        self.loop = loop
        self.thread = thread

    @property
    def host(self) -> str:
        return self.service.host

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def drain(self, timeout: float | None = None) -> bool:
        """Run the graceful drain on the service loop; True if clean."""
        if not self.thread.is_alive():
            return True
        future = asyncio.run_coroutine_threadsafe(
            self.service.drain(timeout), self.loop
        )
        budget = (
            timeout if timeout is not None
            else self.service.config.drain_timeout
        )
        return future.result(budget + 10.0)

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the loop (the service's ``stop`` runs on it), join the
        thread."""
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout)
        if self.thread.is_alive():  # pragma: no cover - hang guard
            raise RuntimeError(f"{self.thread.name} did not stop in time")

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _start_hosted(
    make: Callable[[], Any],
    name: str,
    budget: float,
    handle_type: type[ServiceHandle] = ServiceHandle,
) -> ServiceHandle:
    """Build ``make()`` on a fresh daemon thread with its own loop,
    start it and return its handle once it serves."""
    started = threading.Event()
    box: dict[str, Any] = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            target = make()
            loop.run_until_complete(target.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            box["error"] = exc
            started.set()
            loop.close()
            return
        box["target"], box["loop"] = target, loop
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(target.stop())
            loop.close()

    thread = threading.Thread(target=runner, daemon=True, name=name)
    thread.start()
    if not started.wait(budget):  # pragma: no cover - startup hang guard
        raise RuntimeError(f"{name} did not start within {budget:.0f}s")
    if "error" in box:
        raise box["error"]
    return handle_type(box["target"], box["loop"], thread)


def start_in_thread(
    config: ServiceConfig | None = None,
    engine: BatchSolver | None = None,
) -> ServiceHandle:
    """Start a daemon on a fresh daemon thread; returns its handle.

    The default config binds an ephemeral port (``port=0``); read it
    back from ``handle.port``.
    """
    config = config or ServiceConfig(port=0)
    return _start_hosted(
        lambda: SolveService(config, engine=engine), "repro-service", 15.0
    )

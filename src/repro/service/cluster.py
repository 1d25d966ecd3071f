"""Sharded multi-worker serving: supervisor, router, federation.

The single daemon (:mod:`repro.service.server`) is bounded by one
event loop; this module multiplies it the way the paper's crossbar
multiplies throughput — parallel independent fabric paths:

* a :class:`ClusterSupervisor` forks N worker processes, each hosting
  the full admission/coalesce/micro-batch pipeline on its own port;
* requests are **sharded by canonical cache key**: a thin asyncio
  router on the public port proxies each ``/solve``/``/batch`` to the
  worker owning its key on a consistent-hash ring
  (:mod:`repro.service.sharding`), so single-flight coalescing and
  cache locality keep their contracts fleet-wide;
* workers share one on-disk cache tier (``cluster.cache_dir``); the
  ``.tmp-<pid>`` write protocol makes concurrent writers safe and each
  worker guards the directory with its *own* circuit breaker;
* lifecycle — ready handshake over a multiprocessing queue, periodic
  liveness sweeps, respawn-on-crash into the same shard slot (the ring
  keys off shard indices, so routing is stable across respawns), and a
  fleet-wide SIGTERM drain: the router stops accepting and answers
  every request it already proxied, then each worker is signalled once
  and finishes what it admitted before exit;
* self-healing — while a shard's worker is down its keys **fail over**
  to the next live shard on the ring (replies carry
  ``X-Shard-Failover`` so the cache-locality cost is observable, and
  the slot takes its keyspace back the moment it is live again);
  respawns back off exponentially with deterministic jitter, and a
  per-slot crash-loop circuit breaker (:mod:`repro.engine.breaker`
  semantics) pauses slots that flap — die within ``flap_window`` of
  becoming ready — until a cooldown probe; ``max_respawns`` exhaustion
  is a first-class **dead shard** state surfaced on ``/cluster``,
  ``/healthz`` (non-200) and the ``repro_cluster_shard_dead`` gauge,
  and fed to every worker's brownout controller via the
  ``X-Fleet-Pressure`` header so a shrunken fleet sheds load instead
  of timing out;
* observability — ``GET /metrics`` on the router federates every
  worker's Prometheus page with a ``shard="i"`` label injected into
  each series; ``GET /healthz`` aggregates worker healths; ``GET
  /cluster`` publishes the shard map so smart clients can route
  themselves.

Entry points: :func:`serve_cluster` (CLI), and
:func:`start_cluster_in_thread` -> :class:`ClusterHandle` for tests
and benchmarks.  Both host the supervisor through the daemon's own
lifecycle (:mod:`repro.service.server`).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import queue as queue_mod
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any

from .. import __version__
from ..engine import BatchSolver
from ..engine.batch import EngineConfig
from ..engine.breaker import CircuitBreaker
from ..exceptions import ConfigurationError
from ..logging import get_logger, kv
from .config import ServiceConfig
from .httpio import (
    HttpError,
    HttpRequest,
    ReadDeadline,
    read_request,
    write_response,
)
from .protocol import decode_first_request, decode_request, new_request_id
from .server import (
    _MEMO_CAP,
    ServiceHandle,
    _Connections,
    _serve_async,
    _start_hosted,
    serve,
)
from .sharding import HashRing, ring_point

__all__ = [
    "ClusterHandle",
    "ClusterSupervisor",
    "serve_cluster",
    "start_cluster_in_thread",
]

logger = get_logger("service.cluster")


# ----------------------------------------------------------------------
# Worker process entry point (module-level: picklable under "spawn")
# ----------------------------------------------------------------------


def _worker_main(
    config: ServiceConfig,
    shard: int,
    cache_dir: str | None,
    ready_queue: Any,
) -> None:
    """One worker: the classic daemon plus a ready handshake.

    ``config`` is already the per-shard view (``ServiceConfig.for_shard``):
    single-process, shard index stamped, an ephemeral port on the
    worker interface.
    """
    engine = BatchSolver(
        EngineConfig(disk_cache=cache_dir) if cache_dir else None
    )

    def on_started(service: Any) -> None:
        ready_queue.put(("ready", shard, service.port, os.getpid()))

    serve(config, engine=engine, on_started=on_started)


# ----------------------------------------------------------------------
# Supervisor internals
# ----------------------------------------------------------------------


@dataclass
class _Worker:
    """Supervisor-side record of one shard slot."""

    shard: int
    process: Any
    port: int | None = None
    pid: int | None = None
    respawns: int = 0
    #: Terminal: ``max_respawns`` exhausted.
    dead: bool = False
    #: ``time.monotonic()`` of the ready handshake (flap detection).
    ready_at: float | None = None
    #: First health sweep that saw the process down (None while up).
    died_at: float | None = None
    #: Earliest ``time.monotonic()`` the next respawn may happen.
    next_spawn_at: float = 0.0
    #: Chaos hook: respawns additionally held until this instant.
    hold_until: float = 0.0
    #: The slot survived ``flap_window`` after ready (breaker credited).
    settled: bool = False
    #: A drain sent this process its one SIGTERM.
    signalled: bool = False

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class _WorkerPool:
    """Keep-alive connections from the router to one worker.

    An idle socket only knows it is stale (its worker died and a new
    process owns the port — or nothing does) when a write fails, so
    the supervisor **flushes** the pool whenever a worker death is
    detected or a pooled roundtrip errors: the next acquire dials a
    fresh connection instead of replaying the crash against another
    corpse from the old process.  ``close()`` additionally retires the
    pool for good — connections released after that (in-flight during
    a respawn swap) are closed, not cached into a dead pool.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._closed = False
        self._idle: list[tuple[asyncio.StreamReader,
                               asyncio.StreamWriter]] = []

    async def acquire(
        self,
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        while self._idle:
            reader, writer = self._idle.pop()
            if not writer.is_closing():
                return reader, writer
            writer.close()
        return await asyncio.open_connection(self.host, self.port)

    def release(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._closed or writer.is_closing():
            writer.close()
        else:
            self._idle.append((reader, writer))

    def flush(self) -> None:
        """Drop every idle socket; the pool itself stays usable."""
        for _, writer in self._idle:
            writer.close()
        self._idle.clear()

    def close(self) -> None:
        self._closed = True
        self.flush()


async def _read_reply(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], bytes]:
    """Parse one HTTP response off a worker connection."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ConfigurationError(f"worker spoke garbage: {lines[0]!r}")
    status = int(parts[1])
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


def _json(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _label_shard(text: str, shard: int, keep_comments: bool) -> str:
    """Inject ``shard="i"`` into every Prometheus sample line."""
    label = f'shard="{shard}"'
    out: list[str] = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            if keep_comments:
                out.append(line)
            continue
        if "{" in line:
            name, _, rest = line.partition("{")
            out.append(f"{name}{{{label},{rest}")
        else:
            name, _, value = line.partition(" ")
            out.append(f"{name}{{{label}}} {value}")
    return "\n".join(out)


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------


class ClusterSupervisor:
    """Owns the worker fleet and the routing front door."""

    def __init__(self, config: ServiceConfig) -> None:
        if config.cluster.workers < 1:
            raise ConfigurationError("a cluster needs at least one worker")
        self.config = config
        self.cluster = config.cluster
        self.ring = HashRing(
            self.cluster.workers, self.cluster.hash_replicas
        )
        self._ctx = multiprocessing.get_context(self._pick_start_method())
        self._ready: Any = self._ctx.Queue()
        self.workers: dict[int, _Worker] = {}
        self._pools: dict[int, _WorkerPool] = {}
        self._router: asyncio.base_events.Server | None = None
        self._health_task: asyncio.Task | None = None
        self._draining = False
        self._conn_busy = _Connections()
        self._started_at = time.monotonic()
        self._route_cache: dict[bytes, tuple[int, ...]] = {}
        #: requests proxied per shard (balance checks in smoke tests).
        self.proxied: dict[int, int] = {
            shard: 0 for shard in range(self.cluster.workers)
        }
        #: requests re-routed away from each (down) owner shard.
        self.failovers: dict[int, int] = {
            shard: 0 for shard in range(self.cluster.workers)
        }
        #: Per-slot crash-loop breakers.  These outlive the _Worker
        #: records (a respawn replaces the record) so consecutive
        #: flaps accumulate across process generations.
        self._flap_breakers: dict[int, CircuitBreaker] = {
            shard: CircuitBreaker(
                failure_threshold=self.cluster.flap_threshold,
                cooldown=self.cluster.flap_cooldown,
                name=f"shard-{shard}-flap",
            )
            for shard in range(self.cluster.workers)
        }

    @staticmethod
    def _pick_start_method() -> str:
        # fork is cheap and inherits the warmed interpreter, but is
        # only safe while this process is single-threaded (the test
        # harness runs the supervisor on a thread -> spawn).
        if (
            "fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1
        ):
            return "fork"
        return "spawn"

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self._started_at = time.monotonic()
        for shard in range(self.cluster.workers):
            self._spawn(shard)
        await self._collect_ready(set(range(self.cluster.workers)))
        self._router = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop(), name="repro-cluster-health"
        )
        logger.info(
            "cluster up %s",
            kv(workers=self.cluster.workers,
               host=self.host, port=self.port,
               cache_dir=self.cluster.cache_dir),
        )

    def _spawn(self, shard: int, respawns: int = 0) -> None:
        worker_config = self.config.for_shard(shard, port=0)
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_config, shard, self.cluster.cache_dir,
                  self._ready),
            name=f"repro-worker-{shard}",
        )
        process.start()
        self.workers[shard] = _Worker(
            shard=shard, process=process, respawns=respawns
        )

    async def _collect_ready(self, pending: set[int]) -> None:
        loop = asyncio.get_running_loop()
        deadline = time.monotonic() + self.cluster.spawn_timeout
        while pending:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise RuntimeError(
                    f"workers {sorted(pending)} did not report ready "
                    f"within {self.cluster.spawn_timeout:.3g}s"
                )
            try:
                message = await loop.run_in_executor(
                    None, self._ready.get, True, min(budget, 0.5)
                )
            except queue_mod.Empty:
                continue
            shard = self._note_ready(message)
            pending.discard(shard)

    def _note_ready(self, message: tuple) -> int:
        kind, shard, port, pid = message
        worker = self.workers.get(shard)
        if worker is None:
            return shard
        worker.port = port
        worker.pid = pid
        worker.ready_at = time.monotonic()
        worker.settled = False
        old_pool = self._pools.get(shard)
        if old_pool is not None:
            old_pool.close()
        self._pools[shard] = _WorkerPool(self.cluster.worker_host, port)
        logger.info(
            "worker ready %s", kv(shard=shard, port=port, pid=pid)
        )
        return shard

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.cluster.health_interval)
            # Late ready messages (respawned workers) update the map.
            while True:
                try:
                    self._note_ready(self._ready.get_nowait())
                except queue_mod.Empty:
                    break
            if self._draining:
                continue
            now = time.monotonic()
            for shard, worker in self.workers.items():
                if worker.dead:
                    continue
                breaker = self._flap_breakers[shard]
                if worker.alive:
                    # A slot that held flap_window after ready pays
                    # the breaker back (closes a half-open probe).
                    if (
                        not worker.settled
                        and worker.ready_at is not None
                        and now - worker.ready_at
                        >= self.cluster.flap_window
                    ):
                        worker.settled = True
                        breaker.record_success()
                    continue
                if worker.died_at is None:
                    self._note_death(shard, worker, now)
                    continue
                if worker.respawns >= self.cluster.max_respawns:
                    self._declare_dead(shard, worker)
                    continue
                if now < max(worker.next_spawn_at, worker.hold_until):
                    continue  # exponential backoff / chaos hold
                if not breaker.allow():
                    continue  # crash-looping: wait for a cooldown probe
                logger.warning(
                    "respawning worker %s",
                    kv(shard=shard, respawns=worker.respawns + 1,
                       flap_state=breaker.state),
                )
                self._spawn(shard, respawns=worker.respawns + 1)

    def _note_death(
        self, shard: int, worker: _Worker, now: float
    ) -> None:
        """First sweep after a worker died: flush its pool, classify
        the death against the slot's flap breaker, arm the backoff."""
        worker.died_at = now
        pool = self._pools.get(shard)
        if pool is not None:
            pool.flush()
        uptime = (
            now - worker.ready_at if worker.ready_at is not None else 0.0
        )
        breaker = self._flap_breakers[shard]
        if worker.ready_at is None or uptime < self.cluster.flap_window:
            breaker.record_failure(
                f"shard {shard} died {uptime:.2f}s after ready"
            )
        elif not worker.settled:
            breaker.record_success()
        delay = self._respawn_delay(shard, worker.respawns)
        worker.next_spawn_at = now + delay
        logger.warning(
            "worker died %s",
            kv(shard=shard, pid=worker.pid, uptime=round(uptime, 3),
               backoff=round(delay, 3), flap_state=breaker.state),
        )

    def _respawn_delay(self, shard: int, respawns: int) -> float:
        """Exponential backoff with deterministic jitter: the jitter
        factor in [1, 1.25) derives from the (shard, generation) pair
        the same way ring positions do, so two slots felled by one
        fault never thundering-herd their respawns in lockstep — and a
        rerun of a seeded chaos plan sees identical timing."""
        delay = min(
            self.cluster.respawn_backoff_cap,
            self.cluster.respawn_backoff_base * (2 ** respawns),
        )
        jitter = ring_point(f"respawn:{shard}:{respawns}") % 1000 / 4000
        return delay * (1.0 + jitter)

    def _declare_dead(self, shard: int, worker: _Worker) -> None:
        if worker.dead:
            return
        worker.dead = True
        pool = self._pools.pop(shard, None)
        if pool is not None:
            pool.close()
        logger.error(
            "shard dead (respawns exhausted) %s",
            kv(shard=shard, respawns=worker.respawns,
               max_respawns=self.cluster.max_respawns),
        )

    @property
    def dead_shards(self) -> list[int]:
        return sorted(
            shard for shard, worker in self.workers.items() if worker.dead
        )

    def _fleet_pressure(self) -> float:
        """Overload factor the survivors absorb: with ``d`` of ``W``
        shards dead, failover multiplies each survivor's load by
        ``W/(W-d)`` — pressure is the excess ``d/(W-d)``, clamped to 1
        (all-dead degenerates to full pressure)."""
        dead = len(self.dead_shards)
        if dead == 0:
            return 0.0
        live = self.cluster.workers - dead
        if live <= 0:
            return 1.0
        return min(1.0, dead / live)

    async def drain(self, timeout: float | None = None) -> bool:
        """Fleet-wide graceful shutdown, within one budget (default
        ``config.drain_timeout``): the router stops accepting and
        answers every request it already took, then each worker gets
        one SIGTERM, finishes what it admitted, and exits."""
        self._draining = True
        if self._router is not None:
            self._router.close()
            self._router = None
        budget = (
            self.config.drain_timeout if timeout is None else timeout
        )
        deadline = time.monotonic() + budget
        clean = True
        self._conn_busy.close_idle()
        while self._conn_busy.busy:
            if time.monotonic() >= deadline:
                clean = False
                break
            self._conn_busy.close_idle()
            await asyncio.sleep(0.005)
        for worker in self.workers.values():
            if worker.alive:
                worker.process.terminate()  # SIGTERM -> worker drain
                worker.signalled = True
        for worker in self.workers.values():
            remaining = max(0.0, deadline - time.monotonic())
            await asyncio.get_running_loop().run_in_executor(
                None, worker.process.join, remaining
            )
            if worker.alive:
                clean = False
        if not clean:
            logger.warning(
                "fleet drain timed out %s",
                kv(budget=budget, connections=self._conn_busy.busy),
            )
        else:
            logger.info("fleet drained %s", kv(budget=budget))
        return clean

    async def stop(self) -> None:
        """Tear the fleet down: a worker no drain signalled gets its
        SIGTERM now, and any worker outliving the join is killed."""
        self._draining = True
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        if self._router is not None:
            self._router.close()
            self._router = None
        for writer in list(self._conn_busy):
            writer.close()
        for pool in self._pools.values():
            pool.close()
        self._pools.clear()
        for worker in self.workers.values():
            if worker.alive and not worker.signalled:
                worker.process.terminate()
        for worker in self.workers.values():
            worker.process.join(5.0)
            if worker.alive:  # pragma: no cover - stuck worker guard
                worker.process.kill()
                worker.process.join(1.0)
        self._ready.close()
        logger.info("cluster stopped %s", kv(proxied=sum(
            self.proxied.values()
        )))

    async def serve_forever(self) -> None:
        await self._router.serve_forever()

    # -- addressing -----------------------------------------------------

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        """The public port (resolves ``port=0`` through the router)."""
        if self._router is not None and self._router.sockets:
            return self._router.sockets[0].getsockname()[1]
        return self.config.port

    def _slot_state(self, worker: _Worker) -> str:
        if worker.dead:
            return "dead"
        if worker.alive:
            return "live" if worker.port is not None else "spawning"
        if self._flap_breakers[worker.shard].state == "open":
            return "flapping"
        return "backoff"

    def shard_map(self) -> dict:
        return {
            "strategy": "hash",
            "workers": self.cluster.workers,
            "hash_replicas": self.cluster.hash_replicas,
            "draining": self._draining,
            "failover": True,
            "dead_shards": self.dead_shards,
            "shards": [
                {
                    "shard": worker.shard,
                    "host": self.cluster.worker_host,
                    "port": worker.port,
                    "pid": worker.pid,
                    "alive": worker.alive,
                    "dead": worker.dead,
                    "state": self._slot_state(worker),
                    "respawns": worker.respawns,
                    "proxied": self.proxied.get(worker.shard, 0),
                    "failovers": self.failovers.get(worker.shard, 0),
                    "flap_breaker": {
                        "state": self._flap_breakers[worker.shard].state,
                        "trips": self._flap_breakers[worker.shard].trips,
                    },
                }
                for worker in self.workers.values()
            ],
        }

    # -- routing --------------------------------------------------------

    def _shard_for_body(self, path: str, body: bytes) -> tuple[int, ...]:
        """The ring preference of a request body's canonical key —
        owner first, then the failover order.

        A ``/batch`` routes by its first member's key (documented in
        docs/service.md) — the single-flight contract only needs
        per-key affinity for ``/solve``-shaped work — so only that
        member is decoded; the worker validates the rest.  Unparseable
        bodies route to shard 0, whose worker produces the canonical
        400 envelope.  Only ``/solve`` routes are memoized: a sweep body
        is ~25 times a point's and rarely repeats.
        """
        batch = path == "/batch"
        if not batch:
            memo = self._route_cache.get(body)
            if memo is not None:
                return memo
        try:
            payload = json.loads(body.decode("utf-8"))
            request = (
                decode_first_request(payload) if batch
                else decode_request(payload)
            )
            preference = self.ring.preference(request.cache_key)
        except Exception:  # noqa: BLE001 - worker owns error reporting
            preference = tuple(range(self.cluster.workers))
        if not batch:
            if len(self._route_cache) >= _MEMO_CAP:
                self._route_cache.clear()
            self._route_cache[body] = preference
        return preference

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await self._conn_busy.serve(
            reader, writer, self._serve_one, self.config.read_timeout
        )

    async def _serve_one(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        deadline: ReadDeadline | None,
    ) -> bool:
        request_id = new_request_id()
        try:
            http = await read_request(reader, deadline=deadline)
        except HttpError as exc:
            await write_response(
                writer, exc.status,
                _json({"id": request_id,
                       "error": {"kind": "bad_request",
                                 "message": str(exc)}}),
                timeout=self.config.write_timeout,
            )
            return False
        if http is None:
            return False
        # Busy from head-read to reply-flushed, so drain() waits for the
        # reply to every request the router already took.
        self._conn_busy[writer] = True
        try:
            status, body, headers = await self._route(http, request_id)
            keep = (
                not self._draining
                and http.headers.get("connection", "").lower() != "close"
            )
            await write_response(
                writer, status, body,
                content_type=headers.pop("Content-Type", "application/json"),
                extra_headers=headers,
                timeout=self.config.write_timeout, close=not keep,
            )
            return keep
        finally:
            self._conn_busy[writer] = False

    async def _route(
        self, http: HttpRequest, request_id: str
    ) -> tuple[int, bytes, dict[str, str]]:
        """Status, body and headers of the reply to one request."""
        if http.path in ("/solve", "/batch"):
            return await self._proxy(http, request_id)
        if http.path == "/cluster":
            return 200, _json({"id": request_id, **self.shard_map()}), {}
        if http.path == "/healthz":
            payload = await self._aggregate_health(request_id)
            status = 503 if payload.get("dead_shards") else 200
            return status, _json(payload), {}
        if http.path == "/metrics":
            body = (await self._federate_metrics()).encode("utf-8")
            return 200, body, {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
                "X-Request-Id": request_id,
            }
        return 404, _json({
            "id": request_id,
            "error": {"kind": "not_found",
                      "message": f"no route for {http.path}"},
        }), {}

    def _routable(self, shard: int) -> bool:
        """A shard the router can usefully dial right now."""
        worker = self.workers.get(shard)
        return (
            worker is not None
            and not worker.dead
            and worker.alive
            and worker.port is not None
            and shard in self._pools
        )

    async def _proxy(
        self, http: HttpRequest, request_id: str
    ) -> tuple[int, bytes, dict[str, str]]:
        preference = self._shard_for_body(http.path, http.body)
        owner = preference[0]
        # The ring with down shards skipped: the owner's keyspace drains
        # onto its clockwise successors and snaps back the moment the
        # owner is live again.
        order = [s for s in preference if self._routable(s)] or [owner]
        for shard in order:
            try:
                status, headers, body = await self._roundtrip(shard, http)
                break
            except (ConnectionError, OSError, asyncio.IncompleteReadError,
                    ConfigurationError):
                continue
        else:
            return 503, _json({
                "id": request_id,
                "error": {
                    "kind": "shard_unavailable",
                    "message": (
                        f"worker for shard {owner} is unavailable "
                        "(crashed or respawning) and no live peer "
                        "could take the key; retry"
                    ),
                    "shard": owner,
                    "retry_after": self.cluster.health_interval * 2,
                },
            }), {"Retry-After": "1"}
        self.proxied[shard] = self.proxied.get(shard, 0) + 1
        passthrough = {
            "Content-Type": headers.get("content-type", "application/json")
        }
        for key, name in (
            ("x-request-id", "X-Request-Id"),
            ("x-shard", "X-Shard"),
            ("retry-after", "Retry-After"),
            ("allow", "Allow"),
        ):
            if key in headers:
                passthrough[name] = headers[key]
        if shard != owner:
            self.failovers[owner] = self.failovers.get(owner, 0) + 1
            passthrough["X-Shard-Failover"] = str(owner)
        return status, body, passthrough

    async def _roundtrip(
        self, shard: int, http: HttpRequest
    ) -> tuple[int, dict[str, str], bytes]:
        """Forward one request to a worker over a pooled connection.

        Each attempt is bounded by ``cluster.proxy_timeout`` so a
        stalled worker (e.g. SIGSTOP) costs the client a fast 503 or
        a failover, never a hung connection.  Any transport error
        flushes the shard's idle pool: every pooled socket shares the
        dead peer, and retrying through the next corpse would burn the
        retry budget without ever dialing the respawned process.
        """
        last_error: Exception | None = None
        for attempt in (0, 1):
            pool = await self._pool_for(shard)
            conn_reader, conn_writer = await pool.acquire()
            try:
                head = (
                    f"{http.method} {http.path} HTTP/1.1\r\n"
                    f"Host: shard-{shard}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(http.body)}\r\n"
                    f"X-Fleet-Pressure: {self._fleet_pressure():.6f}\r\n"
                    "Connection: keep-alive\r\n\r\n"
                ).encode("latin-1")
                conn_writer.write(head + http.body)
                await conn_writer.drain()
                async with asyncio.timeout(self.cluster.proxy_timeout):
                    status, headers, body = await _read_reply(conn_reader)
            except (ConnectionError, OSError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError) as exc:
                conn_writer.close()
                pool.flush()
                if isinstance(exc, asyncio.TimeoutError):
                    # Stalled, not freshly dead — a second attempt
                    # would just stall again; fail over now.
                    raise ConnectionError(
                        f"shard {shard} did not answer within "
                        f"{self.cluster.proxy_timeout}s"
                    ) from exc
                last_error = exc
                if attempt == 0:
                    # The worker may have just died; give the health
                    # loop one beat to respawn it, then retry once.
                    await asyncio.sleep(self.cluster.health_interval)
                    continue
                raise exc
            if headers.get("connection", "").lower() == "close":
                conn_writer.close()
            else:
                pool.release(conn_reader, conn_writer)
            return status, headers, body
        raise last_error  # pragma: no cover - loop always raises/returns

    async def _pool_for(self, shard: int) -> _WorkerPool:
        deadline = time.monotonic() + self.cluster.spawn_timeout
        while True:
            worker = self.workers.get(shard)
            if worker is not None and worker.dead:
                raise ConnectionError(f"shard {shard} is dead")
            pool = self._pools.get(shard)
            if (
                pool is not None and worker is not None and worker.alive
                and worker.port == pool.port
            ):
                return pool
            if pool is not None:
                return pool  # stale but usable: roundtrip retries cover
            if time.monotonic() >= deadline:
                raise ConnectionError(f"no pool for shard {shard}")
            await asyncio.sleep(self.cluster.health_interval / 2)

    # -- fan-in endpoints ----------------------------------------------

    async def _worker_get(
        self, shard: int, path: str
    ) -> tuple[int, dict[str, str], bytes]:
        return await self._roundtrip(
            shard, HttpRequest(method="GET", path=path, query="")
        )

    async def _aggregate_health(self, request_id: str) -> dict:
        shards = []
        degraded = False
        for shard, worker in self.workers.items():
            entry: dict[str, Any] = {
                "shard": shard,
                "alive": worker.alive,
                "dead": worker.dead,
                "state": self._slot_state(worker),
                "respawns": worker.respawns,
            }
            if worker.dead:
                entry["status"] = "dead"
                degraded = True
                shards.append(entry)
                continue
            try:
                status, _, body = await self._worker_get(shard, "/healthz")
                entry["health"] = json.loads(body.decode("utf-8"))
                entry["status"] = (
                    entry["health"].get("status", "unknown")
                    if status == 200 else "unreachable"
                )
            except (ConnectionError, OSError, asyncio.IncompleteReadError,
                    ValueError, ConfigurationError):
                entry["status"] = "unreachable"
            if entry["status"] not in ("ok", "draining"):
                degraded = True
            shards.append(entry)
        return {
            "id": request_id,
            "status": (
                "draining" if self._draining
                else ("degraded" if degraded else "ok")
            ),
            "version": __version__,
            "uptime_s": time.monotonic() - self._started_at,
            "strategy": "hash",
            "dead_shards": self.dead_shards,
            "fleet_pressure": self._fleet_pressure(),
            "workers": shards,
        }

    async def _federate_metrics(self) -> str:
        parts = []
        for shard in sorted(self.workers):
            if self.workers[shard].dead:
                parts.append(f"# shard {shard} dead")
                continue
            try:
                status, _, body = await self._worker_get(shard, "/metrics")
                if status != 200:
                    raise ConnectionError(f"metrics status {status}")
                parts.append(_label_shard(
                    body.decode("utf-8"), shard,
                    keep_comments=(shard == min(self.workers)),
                ))
            except (ConnectionError, OSError, asyncio.IncompleteReadError,
                    ConfigurationError):
                parts.append(f"# shard {shard} unavailable")
        parts.append(
            "# TYPE repro_cluster_proxied_total counter\n" + "\n".join(
                f'repro_cluster_proxied_total{{shard="{shard}"}} {count}'
                for shard, count in sorted(self.proxied.items())
            )
        )
        parts.append(
            "# TYPE repro_cluster_failover_total counter\n" + "\n".join(
                f'repro_cluster_failover_total{{shard="{shard}"}} {count}'
                for shard, count in sorted(self.failovers.items())
            )
        )
        dead = set(self.dead_shards)
        parts.append(
            "# TYPE repro_cluster_shard_dead gauge\n" + "\n".join(
                f'repro_cluster_shard_dead{{shard="{shard}"}} '
                f"{1 if shard in dead else 0}"
                for shard in sorted(self.workers)
            )
        )
        return "\n".join(parts) + "\n"


# ----------------------------------------------------------------------
# Hosting (the daemon's lifecycle, see repro.service.server)
# ----------------------------------------------------------------------


def serve_cluster(config: ServiceConfig) -> None:
    """Run a worker fleet until interrupted (``workers=1`` falls back
    to the classic single-process daemon)."""
    if config.cluster.workers <= 1:
        serve(config)
        return
    asyncio.run(_serve_async(ClusterSupervisor(config)))


class ClusterHandle(ServiceHandle):
    """A fleet on its own thread/loop (tests, benchmarks): the daemon's
    handle plus the chaos hooks ``ClusterFaultInjector`` drives."""

    @property
    def supervisor(self) -> ClusterSupervisor:
        return self.service

    @property
    def cache_dir(self) -> str | None:
        """The fleet's shared disk-cache directory (None: memory-only)."""
        return self.supervisor.cluster.cache_dir

    def shard_pid(self, shard: int) -> int | None:
        """Pid of the shard's current live worker (None while down)."""
        worker = self.supervisor.workers.get(shard)
        return worker.pid if worker is not None and worker.alive else None

    def kill_shard(self, shard: int) -> bool:
        """SIGKILL the shard's current worker; False if already down."""
        pid = self.shard_pid(shard)
        if pid is None:
            return False
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            return False
        return True

    def hold_respawn(self, shard: int, seconds: float) -> None:
        """Keep the slot down at least ``seconds`` beyond its backoff —
        while held, its old port refuses connections (the
        ``worker-refuse`` chaos fault pairs this with a kill)."""
        until = time.monotonic() + seconds

        def _set() -> None:
            worker = self.supervisor.workers.get(shard)
            if worker is not None:
                worker.hold_until = max(worker.hold_until, until)

        self.loop.call_soon_threadsafe(_set)

    def flap_breaker(self, shard: int) -> dict:
        """Snapshot of the slot's crash-loop breaker."""
        return self.supervisor._flap_breakers[shard].snapshot()


def start_cluster_in_thread(config: ServiceConfig) -> ClusterHandle:
    """Start a cluster on a fresh thread; returns its handle.

    ``port=0`` binds an ephemeral router port (read it back from
    ``handle.port``).  The supervisor thread is multi-threaded
    territory, so its workers start via ``spawn``.
    """
    return _start_hosted(
        lambda: ClusterSupervisor(config), "repro-cluster",
        config.cluster.spawn_timeout + 15.0, ClusterHandle,
    )

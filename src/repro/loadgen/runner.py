"""Generator processes + merged results for the load harness.

:func:`run_load` turns a declarative :class:`~repro.loadgen.spec.LoadSpec`
into ``spec.generators`` OS processes, each running a lean asyncio
event loop (:mod:`repro.loadgen.aioclient`) that drives the target
over persistent connections — open-loop BPP arrivals (Poisson batches,
geometric batch sizes: the paper's bursty traffic offered to a loss
system) or a closed loop of virtual users.  Per-generator counters are
merged into one :class:`LoadReport` with latency percentiles, measured
blocking, and per-shard tallies read off the cluster's ``X-Shard``
response headers.

:func:`expected_fleet_blocking` is the analysis side: each shard is an
independent Erlang loss system offered its measured per-shard arrival
rate, so the fleet-wide prediction is the offered-load-weighted mean
of ``B(c, lambda_s * H)`` — the same cross-validation contract the
single-daemon tests enforce against ``erlang_b``.
:func:`availability_weighted_blocking` extends the prediction to a
*degraded* fleet: with ``d`` of ``W`` workers dead, failover
concentrates the whole arrival stream on the survivors, so the fleet
blocks like ``B(c, (lambda / (W - d)) * H)``; without failover the
dead shards' keys are lost outright and the prediction becomes the
availability-weighted mixture ``d/W + (1 - d/W) B(c, (lambda/W) H)``.

Transport failures are classified, not just counted: ``errors`` stays
the transport-level total while ``connect_refused`` (a dead or
respawning worker's port) and ``read_errors`` (reset or stalled
mid-reply) split it, both fleet-wide and per shard.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import queue as queue_mod
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..baselines.erlang import erlang_b
from ..exceptions import ConfigurationError
from ..logging import get_logger, kv
from .aioclient import WireClient, WireReply
from .spec import LoadSpec

__all__ = [
    "LoadReport",
    "run_load",
    "expected_fleet_blocking",
    "availability_weighted_blocking",
]

logger = get_logger("loadgen")

#: Shard bucket for replies that carried no ``X-Shard`` header
#: (single-daemon targets, router-level 503s).
UNSHARDED = -1


@dataclass
class LoadReport:
    """Merged outcome of one load run."""

    spec: LoadSpec
    #: Requests put on the wire.
    offered: int = 0
    #: 200s.
    completed: int = 0
    #: 503s (admission/brownout/router cleared).
    rejected: int = 0
    #: 504s (deadline budget expired).
    deadline_exceeded: int = 0
    #: Transport-level failures (reset, timeout); total of the two
    #: classes below.
    errors: int = 0
    #: ... of which the TCP connect was refused outright (a dead or
    #: mid-respawn worker's port).
    connect_refused: int = 0
    #: ... of which the connection dropped or timed out after connect
    #: (reset mid-reply, stalled worker).
    read_errors: int = 0
    #: Any other HTTP status.
    other: int = 0
    #: Measured wall-clock of the longest generator (seconds).
    duration: float = 0.0
    #: Sorted round-trip latencies of completed requests (seconds).
    latencies: list[float] = field(default_factory=list)
    #: shard -> {"ok", "rejected", "deadline_exceeded",
    #: "connect_refused", "read_error"} counts.  Replies are
    #: attributed by their ``X-Shard`` header; transport failures by
    #: the route table's address -> shard map (``UNSHARDED`` when the
    #: target is a single daemon or the router).
    per_shard: dict[int, dict[str, int]] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration if self.duration else 0.0

    @property
    def blocking_measured(self) -> float:
        """rejected / offered-to-the-gate, the service's own ratio."""
        reached = self.completed + self.rejected + self.deadline_exceeded
        return self.rejected / reached if reached else 0.0

    def latency_ms(self, quantile: float) -> float:
        if not self.latencies:
            return 0.0
        index = min(
            len(self.latencies) - 1,
            int(quantile * len(self.latencies)),
        )
        return self.latencies[index] * 1e3

    def shard_blocking(self, shard: int) -> float:
        counts = self.per_shard.get(shard, {})
        reached = counts.get("ok", 0) + counts.get("rejected", 0)
        return counts.get("rejected", 0) / reached if reached else 0.0

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "deadline_exceeded": self.deadline_exceeded,
            "errors": self.errors,
            "connect_refused": self.connect_refused,
            "read_errors": self.read_errors,
            "other": self.other,
            "duration_s": self.duration,
            "throughput_rps": self.throughput_rps,
            "blocking_measured": self.blocking_measured,
            "latency_ms": {
                "mean": (
                    sum(self.latencies) / len(self.latencies) * 1e3
                    if self.latencies else 0.0
                ),
                "p50": self.latency_ms(0.50),
                "p90": self.latency_ms(0.90),
                "p99": self.latency_ms(0.99),
            },
            "per_shard": {
                str(shard): dict(counts)
                for shard, counts in sorted(self.per_shard.items())
            },
        }


def expected_fleet_blocking(
    report: LoadReport, servers: int, hold_s: float
) -> float:
    """Offered-load-weighted Erlang-B prediction across shards.

    Each shard is an independent loss system with ``servers`` tokens
    and holding time ``hold_s``; its offered rate is the measured
    per-shard arrival rate.  Shardless replies (bucket ``UNSHARDED``)
    are treated as one more loss system.
    """
    if report.duration <= 0:
        return 0.0
    total = 0
    weighted = 0.0
    for counts in report.per_shard.values():
        offered = counts.get("ok", 0) + counts.get("rejected", 0)
        if offered == 0:
            continue
        rate = offered / report.duration
        weighted += offered * erlang_b(servers, rate * hold_s)
        total += offered
    return weighted / total if total else 0.0


def availability_weighted_blocking(
    workers: int,
    dead: int,
    servers: int,
    rate: float,
    hold_s: float,
    *,
    failover: bool = True,
) -> float:
    """Predicted fleet blocking with ``dead`` of ``workers`` shards down.

    The availability-weighted extension of the paper's loss model: each
    live worker is an Erlang loss system with ``servers`` tokens and
    holding time ``hold_s``, and the fleet offers ``rate`` calls/s
    uniformly over the key space.

    With *failover* the router re-routes a dead shard's keys to the
    survivors, so every arrival still reaches a server group — but the
    per-worker offered load concentrates from ``rate / workers`` to
    ``rate / (workers - dead)``:

        B_fleet = B(c, (rate / (W - d)) * H)

    Without failover a dead shard's keys are lost outright, giving the
    availability-weighted mixture:

        B_fleet = d/W + (1 - d/W) * B(c, (rate / W) * H)

    Every worker dead blocks everything either way.
    """
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if not 0 <= dead <= workers:
        raise ConfigurationError(
            f"dead must be in [0, {workers}], got {dead}"
        )
    live = workers - dead
    if live <= 0:
        return 1.0
    if failover:
        return erlang_b(servers, (rate / live) * hold_s)
    survivor = erlang_b(servers, (rate / workers) * hold_s)
    lost = dead / workers
    return lost + (1.0 - lost) * survivor


# ----------------------------------------------------------------------
# Generator process
# ----------------------------------------------------------------------


def _generator_main(
    spec_record: dict,
    host: str,
    port: int,
    index: int,
    out_queue: Any,
) -> None:
    spec = LoadSpec.from_dict(spec_record)
    try:
        result = asyncio.run(_generate(spec, host, port, index))
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        out_queue.put({"index": index, "fatal": f"{type(exc).__name__}: {exc}"})
        raise
    out_queue.put(result)


async def _route_table(
    spec: LoadSpec, host: str, port: int
) -> tuple[
    dict[str, tuple[str, int]], dict[tuple[str, int], int]
] | None:
    """(key -> worker address, address -> shard) from ``/cluster``.

    The second map attributes *transport* failures — which never carry
    an ``X-Shard`` reply header — to the shard whose port refused or
    reset.  None when the target is not a hash-sharded cluster (a
    single daemon, or ``shard_direct`` disabled) — then everything goes
    to the given address.
    """
    if not spec.shard_direct:
        return None
    from ..service.sharding import HashRing

    client = WireClient(host, port, timeout=spec.timeout)
    try:
        reply = await client.roundtrip("GET", "/cluster")
        if reply.status != 200:
            return None
        chart = reply.json()
        if chart.get("strategy") != "hash":
            return None
        shards = {
            entry["shard"]: (entry["host"], entry["port"])
            for entry in chart.get("shards", [])
            if entry.get("port")
        }
        if len(shards) < chart.get("workers", 0):
            return None
        ring = HashRing(
            chart["workers"], chart.get("hash_replicas", 64)
        )
        routes = {
            key: shards[ring.shard_for(key)]
            for _, key in spec.request_entries()
        }
        addr_shards = {
            address: shard for shard, address in shards.items()
        }
        return routes, addr_shards
    except (ConnectionError, OSError, asyncio.TimeoutError,
            ValueError, KeyError):
        return None
    finally:
        await client.close()


async def _generate(
    spec: LoadSpec, host: str, port: int, index: int
) -> dict:
    import json

    rng = random.Random(spec.seed + index)
    table = await _route_table(spec, host, port)
    routes, addr_shards = table if table else (None, {})
    template = WireClient(host, port, timeout=spec.timeout)
    #: (pre-framed wire bytes, (host, port) to send them to)
    frames: list[tuple[bytes, tuple[str, int]]] = []
    for record, key in spec.request_entries():
        payload: dict = {"request": record}
        if spec.deadline_ms is not None:
            payload["deadline_ms"] = spec.deadline_ms
        address = (
            routes.get(key, (host, port)) if routes else (host, port)
        )
        frames.append((template.frame(
            "POST", "/solve", json.dumps(payload).encode("utf-8")
        ), address))

    counters = {
        "index": index, "offered": 0, "completed": 0, "rejected": 0,
        "deadline_exceeded": 0, "errors": 0, "connect_refused": 0,
        "read_errors": 0, "other": 0,
    }
    latencies: list[float] = []
    per_shard: dict[int, dict[str, int]] = {}

    def shard_bucket(shard: int) -> dict[str, int]:
        return per_shard.setdefault(shard, {
            "ok": 0, "rejected": 0, "deadline_exceeded": 0,
            "connect_refused": 0, "read_error": 0,
        })

    def record_reply(reply: WireReply, elapsed: float) -> None:
        shard = reply.shard
        shard = UNSHARDED if shard is None else shard
        bucket = shard_bucket(shard)
        if reply.status == 200:
            counters["completed"] += 1
            latencies.append(elapsed)
            bucket["ok"] += 1
        elif reply.status == 503:
            counters["rejected"] += 1
            bucket["rejected"] += 1
        elif reply.status == 504:
            counters["deadline_exceeded"] += 1
            bucket["deadline_exceeded"] += 1
        else:
            counters["other"] += 1

    def record_error(
        exc: BaseException, address: tuple[str, int]
    ) -> None:
        counters["errors"] += 1
        bucket = shard_bucket(addr_shards.get(address, UNSHARDED))
        if isinstance(exc, ConnectionRefusedError):
            counters["connect_refused"] += 1
            bucket["connect_refused"] += 1
        else:
            counters["read_errors"] += 1
            bucket["read_error"] += 1

    # Warmup: fill every cache tier along each request's path,
    # through the same per-worker connections the run will use.
    if spec.warmup:
        warm: dict[tuple[str, int], WireClient] = {}
        for wire, address in frames:
            client = warm.get(address)
            if client is None:
                client = warm[address] = WireClient(
                    *address, timeout=spec.timeout
                )
            for _ in range(spec.warmup):
                try:
                    await client.roundtrip_raw(wire)
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    pass
        for client in warm.values():
            await client.close()
    await template.close()

    began = time.perf_counter()
    end = began + spec.duration
    if spec.mode == "closed":
        await _closed_loop(
            spec, frames, rng, end, counters, record_reply, record_error
        )
    else:
        await _open_loop(
            spec, frames, rng, end, counters, record_reply, record_error
        )
    counters["duration"] = time.perf_counter() - began
    counters["latencies"] = latencies
    counters["per_shard"] = per_shard
    return counters


async def _closed_loop(
    spec: LoadSpec, frames: list[tuple[bytes, tuple[str, int]]],
    rng: random.Random, end: float, counters: dict, record_reply,
    record_error,
) -> None:
    async def user() -> None:
        clients: dict[tuple[str, int], WireClient] = {}
        perf = time.perf_counter
        pick = rng.randrange
        count = len(frames)
        try:
            while True:
                t0 = perf()
                if t0 >= end:
                    break
                wire, address = frames[pick(count)]
                client = clients.get(address)
                if client is None:
                    client = clients[address] = WireClient(
                        *address, timeout=spec.timeout
                    )
                counters["offered"] += 1
                try:
                    reply = await client.roundtrip_raw(wire)
                except (ConnectionError, OSError,
                        asyncio.TimeoutError) as exc:
                    record_error(exc, address)
                    continue
                record_reply(reply, perf() - t0)
        finally:
            for client in clients.values():
                await client.close()

    await asyncio.gather(*(user() for _ in range(spec.connections)))


async def _open_loop(
    spec: LoadSpec, frames: list[tuple[bytes, tuple[str, int]]],
    rng: random.Random, end: float, counters: dict, record_reply,
    record_error,
) -> None:
    """Poisson batch arrivals x geometric batch sizes (BPP), open loop:
    arrivals never wait on completions, so overload shows up as 503s
    (blocked calls cleared), not as a slowed arrival process."""
    semaphore = asyncio.Semaphore(spec.connections)
    idle: dict[tuple[str, int], list[WireClient]] = {}
    tasks: list[asyncio.Task] = []
    batch_rate = spec.rate / spec.generators
    # Geometric batch size with mean burst_mean: P(k) = (1-q) q^(k-1).
    q = 1.0 - 1.0 / spec.burst_mean if spec.burst_mean > 1.0 else 0.0

    async def fire(wire: bytes, address: tuple[str, int]) -> None:
        async with semaphore:
            stack = idle.setdefault(address, [])
            client = stack.pop() if stack else WireClient(
                *address, timeout=spec.timeout
            )
            t0 = time.perf_counter()
            try:
                reply = await client.roundtrip_raw(wire)
            except (ConnectionError, OSError,
                    asyncio.TimeoutError) as exc:
                record_error(exc, address)
                await client.close()
            else:
                record_reply(reply, time.perf_counter() - t0)
            stack.append(client)

    loop = asyncio.get_running_loop()
    next_at = time.perf_counter()
    while True:
        next_at += rng.expovariate(batch_rate)
        if next_at >= end:
            break
        delay = next_at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        batch = 1
        while q and rng.random() < q:
            batch += 1
        for _ in range(batch):
            wire, address = frames[rng.randrange(len(frames))]
            counters["offered"] += 1
            tasks.append(loop.create_task(fire(wire, address)))
    if tasks:
        await asyncio.gather(*tasks)
    for stack in idle.values():
        for client in stack:
            await client.close()


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------


def _pick_start_method() -> str:
    if (
        "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
    ):
        return "fork"
    return "spawn"


def run_load(spec: LoadSpec, host: str, port: int) -> LoadReport:
    """Run one experiment: spawn generators, drive, merge the report."""
    ctx = multiprocessing.get_context(_pick_start_method())
    out_queue = ctx.Queue()
    processes = [
        ctx.Process(
            target=_generator_main,
            args=(spec.to_dict(), host, port, index, out_queue),
            name=f"repro-loadgen-{index}",
        )
        for index in range(spec.generators)
    ]
    for process in processes:
        process.start()
    report = LoadReport(spec=spec)
    budget = spec.duration + spec.timeout + 60.0
    deadline = time.monotonic() + budget
    collected = 0
    try:
        while collected < spec.generators:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"load generators did not report within {budget:.0f}s"
                )
            try:
                result = out_queue.get(True, min(remaining, 1.0))
            except queue_mod.Empty:
                continue
            collected += 1
            if "fatal" in result:
                raise RuntimeError(
                    f"load generator {result['index']} died: "
                    f"{result['fatal']}"
                )
            report.offered += result["offered"]
            report.completed += result["completed"]
            report.rejected += result["rejected"]
            report.deadline_exceeded += result["deadline_exceeded"]
            report.errors += result["errors"]
            report.connect_refused += result["connect_refused"]
            report.read_errors += result["read_errors"]
            report.other += result["other"]
            report.duration = max(report.duration, result["duration"])
            report.latencies.extend(result["latencies"])
            for shard, counts in result["per_shard"].items():
                bucket = report.per_shard.setdefault(shard, {})
                for name, value in counts.items():
                    bucket[name] = bucket.get(name, 0) + value
    finally:
        for process in processes:
            process.join(10.0)
            if process.is_alive():
                process.terminate()
                process.join(5.0)
    report.latencies.sort()
    logger.info(
        "load run merged %s",
        kv(offered=report.offered, completed=report.completed,
           rejected=report.rejected, rps=round(report.throughput_rps, 1)),
    )
    return report

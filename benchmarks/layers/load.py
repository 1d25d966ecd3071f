"""Seeded inputs, the closed-loop generators, and the reply check.

All load comes from one asyncio loop in the benchmark process over at
most two persistent :class:`repro.loadgen.aioclient.WireClient`
connections (on a two-core machine more connections would only
measure client-side context switching).  Inputs are pure functions of
the seed; the server sees nothing but the generated requests.

Every loop is closed: a client sends its next request (or burst) only
when the previous one has been answered.  On a two-vCPU host whose
speed drifts by a third from minute to minute, an open loop's queue
turns every slowdown into a much larger tail, so its p99 cannot be
measured to a useful bound; a closed loop's latency moves only as
much as the host does.

A measured phase is cut into short windows (:func:`measure_windows`).
Between two windows the load pauses, the server's CPU counter is read
and the host's speed is timed (:mod:`hostspeed`), so every window's
latency, rate and CPU per request can be scaled to one reference
speed.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import time
from collections.abc import Awaitable, Callable, Iterator
from dataclasses import dataclass, field

from hostspeed import loop_seconds, scale

__all__ = [
    "Item", "Recorder", "Window", "hot_pool", "hot_lanes", "burst_stream",
    "sweep_stream", "lru_fill_items", "closed_loop", "burst_loop",
    "run_items", "measure_windows", "window_values", "check_replies",
    "percentile",
]

#: Sizes and class-rate variants of the hot key pool (128 keys).
HOT_SIZES = (4, 8, 16, 32)
HOT_VARIANTS = 32
HOT_KEYS = len(HOT_SIZES) * HOT_VARIANTS
#: Cold point-solve sizes (drawn with replacement inside a burst).
COLD_SIZES = (16, 32, 48, 64)
#: Burst shape of ``cold-bursty``: geometric size, mean 2, capped.
BURST_MEAN = 2.0
BURST_CAP = 4
#: One capacity-planning sweep: n = 4..66 step 2 (32 points).
SWEEP_SIZES = tuple(range(4, 67, 2))
#: Engine result-LRU capacity (``EngineConfig.lru_size``).
ENGINE_LRU = 4096
#: One in this many cold replies is checked against an in-process solve.
COLD_CHECK_EVERY = 25

_TRANSPORT_ERRORS = (ConnectionError, OSError, asyncio.IncompleteReadError,
                     asyncio.TimeoutError)


@dataclass
class Item:
    """One request on the wire: endpoint, framed-once body, bookkeeping."""

    path: str
    body: bytes
    #: Request records in the body (1 for /solve, 32 for a sweep).
    records: list[dict]
    #: Capture the reply for the correctness check.
    check: bool = False
    #: Pool index (hot keys) used for per-key bookkeeping.
    index: int = -1
    wire: bytes = b""


@dataclass
class Recorder:
    """Everything one measured phase observed, client side."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    ok: int = 0
    failed: int = 0
    server_errors: int = 0
    statuses: dict[int, int] = field(default_factory=dict)
    #: (item, reply body) pairs kept for the correctness check.
    captured: list[tuple[Item, bytes]] = field(default_factory=list)
    captured_keys: set[int] = field(default_factory=set)
    #: Traced runs: (send, receive, request id) per 200 reply.
    wire_log: list[tuple[float, float, str]] | None = None
    #: Fleet runs: 200 replies per ``X-Shard``.
    shards: dict[int, int] | None = None
    began: float = 0.0
    ended: float = 0.0

    @property
    def duration(self) -> float:
        return max(self.ended - self.began, 1e-9)


@dataclass(frozen=True)
class Window:
    """One stretch of load between two pauses."""

    #: ``latencies[first:last]`` are the window's replies.
    first: int
    last: int
    began: float
    ended: float
    #: Server CPU seconds spent in the window.
    cpu_s: float
    #: Host-speed loop time: mean of the readings just before and after.
    loop_s: float


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of unsorted values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def _class_mix(rng: random.Random) -> list[dict]:
    """A fresh two-class traffic mix: Poisson data plus peaky (Pascal)
    video that needs two port pairs -- the paper's multi-rate BPP."""
    return [
        {"name": "data", "alpha": round(rng.uniform(0.002, 0.02), 6)},
        {"name": "video", "alpha": round(rng.uniform(0.001, 0.008), 6),
         "beta": round(rng.uniform(0.05, 0.6), 6), "a": 2},
    ]


def _record(n: int, classes: list[dict]) -> dict:
    return {"n1": n, "n2": n, "classes": classes}


def _solve_item(record: dict, check: bool = False, index: int = -1) -> Item:
    body = json.dumps({"request": record}).encode()
    return Item("/solve", body, [record], check, index)


def _batch_item(records: list[dict], check: bool = False) -> Item:
    body = json.dumps({"requests": records}).encode()
    return Item("/batch", body, records, check)


def hot_pool(seed: int) -> list[Item]:
    """128 repeated keys: every size x every class-rate variant."""
    rng = random.Random(f"hot:{seed}")
    mixes = [_class_mix(rng) for _ in range(HOT_VARIANTS)]
    return [
        _solve_item(_record(n, mix), check=True, index=i)
        for i, (n, mix) in enumerate(
            (n, mix) for mix in mixes for n in HOT_SIZES
        )
    ]


def hot_lanes(pool: list[Item], seed: int, lanes: int) -> list[Iterator[Item]]:
    """One endless, differently shuffled pass over the pool per client."""
    out = []
    for lane in range(lanes):
        order = list(pool)
        random.Random(f"lane:{seed}:{lane}").shuffle(order)
        out.append(itertools.cycle(order))
    return out


def _burst_size(rng: random.Random) -> int:
    """Geometric with mean ``BURST_MEAN``, capped at ``BURST_CAP``."""
    size = 1
    while size < BURST_CAP and rng.random() >= 1.0 / BURST_MEAN:
        size += 1
    return size


def burst_stream(seed: int, label: str = "cold") -> Iterator[list[Item]]:
    """Endless BPP bursts: geometric size, one fresh class mix each,
    sizes drawn with replacement (so a burst can repeat a key)."""
    rng = random.Random(f"{label}:{seed}")
    check_rng = random.Random(f"{label}-check:{seed}")
    while True:
        mix = _class_mix(rng)
        yield [
            _solve_item(
                _record(rng.choice(COLD_SIZES), mix),
                check=check_rng.randrange(COLD_CHECK_EVERY) == 0,
            )
            for _ in range(_burst_size(rng))
        ]


def sweep_stream(seed: int, label: str = "sweep") -> Iterator[Item]:
    """Endless capacity-planning sweeps, a fresh class mix each."""
    rng = random.Random(f"{label}:{seed}")
    check_rng = random.Random(f"{label}-check:{seed}")
    while True:
        mix = _class_mix(rng)
        yield _batch_item(
            [_record(n, mix) for n in SWEEP_SIZES],
            check=check_rng.randrange(COLD_CHECK_EVERY) == 0,
        )


def lru_fill_items(seed: int) -> list[Item]:
    """Sweeps whose results fill the engine LRU (warm-up only)."""
    count = -(-ENGINE_LRU // len(SWEEP_SIZES))
    return list(itertools.islice(sweep_stream(seed, "fill"), count))


# ----------------------------------------------------------------------
# Load loops
# ----------------------------------------------------------------------


def _request_id(head: bytes) -> str:
    at = head.find(b"x-request-id:")
    if at < 0:
        return ""
    return head[at + 13:head.index(b"\r", at)].strip().decode()


def _note(rec: Recorder, item: Item, reply, sent: float, received: float,
          due: float) -> None:
    rec.statuses[reply.status] = rec.statuses.get(reply.status, 0) + 1
    if reply.status != 200:
        rec.failed += 1
        if reply.status >= 500:
            rec.server_errors += 1
        return
    rec.ok += 1
    rec.latencies.append(received - due)
    if item.check and (item.index < 0 or item.index not in rec.captured_keys):
        rec.captured.append((item, reply.body))
        rec.captured_keys.add(item.index)
    if rec.wire_log is not None:
        rec.wire_log.append((sent, received, _request_id(reply._head)))
    if rec.shards is not None and reply.shard is not None:
        rec.shards[reply.shard] = rec.shards.get(reply.shard, 0) + 1


async def _send(client, item: Item, rec: Recorder, due: float | None) -> None:
    if not item.wire:
        item.wire = client.frame("POST", item.path, item.body)
    rec.attempted += 1
    sent = time.perf_counter()
    try:
        reply = await client.roundtrip_raw(item.wire)
    except _TRANSPORT_ERRORS:
        rec.failed += 1
        return
    received = time.perf_counter()
    _note(rec, item, reply, sent, received, sent if due is None else due)


async def closed_loop(clients, lanes: list[Iterator[Item]], seconds: float,
                      rec: Recorder) -> None:
    """Each client sends its lane back-to-back until the clock runs out."""
    rec.began = time.perf_counter()
    end = rec.began + seconds

    async def user(client, lane: Iterator[Item]) -> None:
        while time.perf_counter() < end:
            await _send(client, next(lane), rec, None)

    await asyncio.gather(*(user(c, lane) for c, lane in zip(clients, lanes)))
    rec.ended = time.perf_counter()


async def burst_loop(clients, bursts: Iterator[list[Item]], seconds: float,
                     rec: Recorder) -> None:
    """Send each burst at once, spread over the clients, and the next
    when all of its replies are in.  Every request is timed from its
    burst's send, so a request waiting for a free connection pays it."""
    rec.began = time.perf_counter()
    end = rec.began + seconds

    async def lane(client, items: list[Item], due: float) -> None:
        for item in items:
            await _send(client, item, rec, due)

    while time.perf_counter() < end:
        items = next(bursts)
        due = time.perf_counter()
        await asyncio.gather(*(
            lane(client, items[i::len(clients)], due)
            for i, client in enumerate(clients)
        ))
    rec.ended = time.perf_counter()


async def measure_windows(
    traffic: Callable[[float, Recorder], Awaitable[None]], seconds: float,
    width: float, rec: Recorder, read_cpu: Callable[[], float],
) -> list[Window]:
    """Run ``traffic`` in windows of ``width`` seconds for ``seconds``.

    ``traffic(w, rec)`` loads the server for ``w`` seconds and returns
    once every reply is in, so nothing is in flight between windows.
    There the server's CPU total is read and the host's speed timed.
    ``rec`` spans the whole phase, pauses included.
    """
    windows = []
    began = time.perf_counter()
    loop_before = loop_seconds()
    while time.perf_counter() < began + seconds:
        first, cpu_before = len(rec.latencies), read_cpu()
        await traffic(width, rec)
        window_began, window_ended = rec.began, rec.ended
        cpu_after, loop_after = read_cpu(), loop_seconds()
        windows.append(Window(first, len(rec.latencies), window_began,
                              window_ended, cpu_after - cpu_before,
                              (loop_before + loop_after) / 2))
        loop_before = loop_after
    rec.began = began
    return windows


def window_values(rec: Recorder, windows: list[Window],
                  scaled: bool = True) -> dict[str, list[float]]:
    """p50 (s), rate (req/s) and server CPU per request (s) of every
    window with a reply, scaled to :data:`hostspeed.REFERENCE_S` unless
    ``scaled`` is false.

    A window's rate is its replies over its length: the loop starts it
    with nothing in flight and ends it when the last reply is in.
    """
    out: dict[str, list[float]] = {"p50": [], "rps": [], "cpu_per_req": []}
    for w in windows:
        replies = w.last - w.first
        if not replies:
            continue
        factor = scale(w.loop_s) if scaled else 1.0
        out["p50"].append(
            percentile(rec.latencies[w.first:w.last], 50) * factor
        )
        out["rps"].append(replies / (w.ended - w.began) / factor)
        out["cpu_per_req"].append(w.cpu_s / replies * factor)
    return out


async def run_items(clients, items: list[Item], rec: Recorder) -> None:
    """Send each item once, spread over the clients (warm-up passes)."""
    lanes = [items[i::len(clients)] for i in range(len(clients))]

    async def user(client, lane: list[Item]) -> None:
        for item in lane:
            await _send(client, item, rec, None)

    await asyncio.gather(*(user(c, lane) for c, lane in zip(clients, lanes)))


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def _canonical(record: dict) -> bytes:
    record = dict(record)
    record.pop("from_cache", None)
    return json.dumps(record).encode()


def check_replies(captured: list[tuple[Item, bytes]]) -> list[str]:
    """Compare served results with in-process solves, byte for byte.

    ``from_cache`` is provenance (which tier answered), not a result,
    so it is dropped on both sides; everything else must match the
    bytes ``encode_result`` gives for an in-process solve.
    """
    from repro.api import SolveRequest, solve, solve_many
    from repro.service.protocol import encode_result

    mismatches = []
    for item, body in captured:
        reply = json.loads(body)
        requests = [SolveRequest.from_dict(r) for r in item.records]
        if item.path == "/solve":
            served = [reply["result"]]
            local = [solve(requests[0])]
        else:
            served = reply["results"]
            local = solve_many(requests, strict=True)
        if reply.get("degraded") or len(served) != len(requests):
            mismatches.append(requests[0].cache_key)
            continue
        for request, got, want in zip(requests, served, local):
            if _canonical(got) != _canonical(encode_result(want)):
                mismatches.append(request.cache_key)
    return mismatches

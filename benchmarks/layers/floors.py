"""The floors each workload is compared with.

* :func:`httpio_floor` -- :mod:`null_server` (the daemon's framing and
  nothing else) under the same two-connection closed loop and hot-key
  bodies as ``hot-solve``: the ceiling for any cache-hit workload.
* :func:`engine_floor` -- the workload's own request stream through
  :meth:`repro.engine.BatchSolver.evaluate_many` in this process, one
  call per burst (``cold-bursty``), per sweep (``sweep-batch``) or per
  request (``hot-solve``, engine warmed): what serving would cost with
  no wire, gate, coalescer or batcher.
* :func:`kernel_floors` -- one raw Algorithm 1 solve per size.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

from load import (Recorder, burst_stream, closed_loop, hot_lanes, hot_pool,
                  percentile, sweep_stream)

__all__ = ["FLOOR_SIZES", "httpio_floor", "engine_floor", "kernel_floors"]

HERE = Path(__file__).resolve().parent
#: Sizes of the raw kernel floors (the ``cold-bursty`` sizes).
FLOOR_SIZES = (16, 32, 48, 64)


def _hot_reply_size(item) -> int:
    """Bytes of a hot ``/solve`` reply envelope for ``item``."""
    from repro.api import SolveRequest, solve
    from repro.service.protocol import encode_result

    result = solve(SolveRequest.from_dict(item.records[0]))
    return len(json.dumps({
        "id": "req-00000-000000", "result": encode_result(result),
        "coalesced": False, "from_cache": True, "elapsed_ms": 0.01234567,
    }).encode())


async def _drive(port: int, pool, seed: int, seconds: float) -> Recorder:
    from repro.loadgen.aioclient import WireClient

    clients = [WireClient("127.0.0.1", port) for _ in range(2)]
    rec = Recorder()
    try:
        await closed_loop(clients, hot_lanes(pool, seed, 2), seconds, rec)
    finally:
        for client in clients:
            await client.close()
    return rec


def httpio_floor(seed: int, seconds: float, work: Path, root: Path) -> dict:
    from target import ServerProcess, free_port

    pool = hot_pool(seed)
    port = free_port()
    server = ServerProcess(
        [sys.executable, str(HERE / "null_server.py"), str(port),
         str(_hot_reply_size(pool[0]))],
        root, port, work / "null_server.log",
    )
    server.start()
    try:
        asyncio.run(_drive(port, pool, seed, min(1.0, seconds / 4)))
        rec = asyncio.run(_drive(port, pool, seed, seconds))
    finally:
        server.stop()
    return {
        "httpio.floor_p50_ms": percentile(rec.latencies, 50) * 1e3,
        "httpio.floor_rps": rec.ok / rec.duration,
    }


def engine_floor(name: str, seed: int, budget: float) -> float:
    """p50 (ms) of one ``evaluate_many`` call per unit of the stream."""
    from repro.api import SolveRequest
    from repro.engine import BatchSolver

    def requests(item) -> list:
        return [SolveRequest.from_dict(r) for r in item.records]

    engine = BatchSolver()
    if name == "cold-bursty":
        groups = (
            [r for item in items for r in requests(item)]
            for items in burst_stream(seed)
        )
    elif name == "sweep-batch":
        groups = (requests(item) for item in sweep_stream(seed))
    else:
        pool = [requests(item) for item in hot_pool(seed)]
        engine.evaluate_many([r for group in pool for r in group])
        groups = itertools.cycle(pool)
    times = []
    deadline = time.perf_counter() + budget
    for group in groups:
        began = time.perf_counter()
        engine.evaluate_many(group, strict=True)
        times.append(time.perf_counter() - began)
        if time.perf_counter() > deadline and len(times) >= 20:
            break
    return percentile(times, 50) * 1e3


def kernel_floors(seed: int) -> dict:
    """Median raw ``solve_convolution`` time per size, hot mix 0."""
    from repro.core.convolution import solve_convolution
    from repro.core.state import SwitchDimensions
    from repro.io import class_from_dict

    classes = tuple(
        class_from_dict(c) for c in hot_pool(seed)[0].records[0]["classes"]
    )
    out = {}
    for n in FLOOR_SIZES:
        dims = SwitchDimensions.square(n)
        times = []
        for _ in range(9):
            began = time.perf_counter()
            solve_convolution(dims, classes)
            times.append(time.perf_counter() - began)
        out[f"kernel.floor_p50_ms.n{n}"] = statistics.median(times) * 1e3
    return out

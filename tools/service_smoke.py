#!/usr/bin/env python3
"""End-to-end smoke drill for the solve-serving daemon.

Starts a daemon in-process, fires ~200 concurrent mixed requests at
it from a thread pool (point solves, repeats that must coalesce or
hit cache, `/batch` sweeps, a deliberate overload burst against a
second small-gate daemon), and asserts:

* **Determinism** — every response for a given request is byte-equal
  (``float.hex``) to the local ``repro.api.solve`` answer: zero
  non-deterministic results across all concurrency.
* **Class order is the request's** — a hot key asked again with its
  class order reversed gets its own result bytes (classes and measures
  in the reversed order), equal to a local engine that re-addresses
  the same stored result, not the stored order's memoized fragment.
* **Sweeps match point solves** — every member of a few 32-point
  ``/batch`` capacity sweeps (one fresh Poisson + Pascal mix each, one
  shared Q-grid on the server) is byte-equal on the wire to an
  independent point solve of that member.
* **A mixed batch is its in-process encoding** — a ``/batch`` of two
  mixes, a reversed-class-order member and a member that fails to solve
  is, byte for byte, the reply envelope built from ``encode_result`` /
  ``encode_failed`` of ``solve_many`` on the same requests (the reply's
  id, timings and admission weight taken as sent).
* **Coalescing happened** — nonzero coalesce hits (the workload
  guarantees racing identical requests).
* **Both flush paths ran** — at least one short flush ran on the event
  loop and at least one long flush (the mixed batch's n = 400 member)
  on the worker thread, as ``/healthz`` and ``/metrics`` both count.
* **Results kept, not grids** — after the drill (its sweeps solved
  four 32-point Q-grids) the daemon's engine holds zero solution
  objects, and ``/metrics`` says so.
* **Admission held** — the overload drill never exceeds its gate
  bound, clears the excess with structured 503s, and the metrics
  ratio equals the observed count exactly.
* **Clean shutdown** — both daemons stop and join; the process exits.

Exit code 0 on success, 1 on any violation.  CI runs this under
``timeout`` so a hang fails the job instead of stalling the runner.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import SolveRequest, solve, solve_many  # noqa: E402
from repro.core.traffic import TrafficClass  # noqa: E402
from repro.engine import BatchSolver, EngineConfig  # noqa: E402
from repro.service import (  # noqa: E402
    AdmissionRejectedError,
    ServiceClient,
    ServiceConfig,
    start_in_thread,
)
from repro.service.protocol import (  # noqa: E402
    encode_failed,
    encode_result,
)

POINT_SIZES = (4, 5, 6, 8, 10, 12)
REPEAT_FANOUT = 10  # concurrent callers per hot request
SWEEP_SIZES = range(1, 33)  # one 32-point capacity sweep
SWEEP_MIXES = 4


def point_request(n: int) -> SolveRequest:
    return SolveRequest.square(
        n,
        [
            TrafficClass.poisson(0.002, name="data"),
            TrafficClass(alpha=0.001, beta=0.002, mu=1.0, a=2,
                         name="burst"),
        ],
    )


def sweep_requests(index: int) -> list[SolveRequest]:
    """A 32-point sweep over a fresh Poisson + Pascal (a=2) mix."""
    rate = 0.003 + 0.002 * index
    classes = [
        TrafficClass.poisson(rate, name="data"),
        TrafficClass(alpha=rate / 2, beta=0.1 + 0.1 * index, mu=1.0, a=2,
                     name="video"),
    ]
    return [SolveRequest.square(n, classes) for n in SWEEP_SIZES]


def reordered_mismatches(client: ServiceClient) -> list[str]:
    """Hot keys asked with their class order reversed, compared on the
    wire with the local default engine, which (like the daemon) holds
    the forward order and re-addresses it."""
    bad = []
    for n in POINT_SIZES:
        forward = point_request(n)
        reverse = SolveRequest.square(n, forward.classes[::-1])
        status, payload = client._roundtrip(
            "POST", "/solve", {"request": reverse.to_dict()}
        )
        want = json.dumps(encode_result(solve(reverse)))
        if status != 200 or json.dumps(payload["result"]) != want:
            bad.append(f"reversed n={n}")
    return bad


def sweep_mismatches(client: ServiceClient, index: int) -> list[str]:
    """Members of one wire sweep whose bytes differ from a point solve."""
    requests = sweep_requests(index)
    status, payload = client._roundtrip(
        "POST", "/batch", {"requests": [r.to_dict() for r in requests]}
    )
    if status != 200:
        return [f"sweep {index}: HTTP {status}"]
    return [
        f"sweep {index} member {request.dims}"
        for request, record in zip(requests, payload["results"])
        if json.dumps(record) != json.dumps(encode_result(
            solve(request, engine=BatchSolver(EngineConfig()))
        ))
    ]


def mixed_batch_requests() -> list[SolveRequest]:
    """Two fresh mixes, a member of the first in reversed class order,
    and a member whose solve fails (non-integer Bernoulli sources)."""
    first = [
        TrafficClass.poisson(0.0041, name="data"),
        TrafficClass(alpha=0.0013, beta=0.21, mu=1.0, a=2, name="video"),
    ]
    second = [TrafficClass(alpha=0.02, beta=-0.001, name="voice")]
    failing = SolveRequest.square(400, (
        TrafficClass(0.31, 0.2), TrafficClass(0.155, -0.01, a=2),
    ))
    return [
        SolveRequest.square(5, first),
        SolveRequest.square(7, second),
        SolveRequest.square(6, first[::-1]),
        failing,
        SolveRequest.square(9, first),
        SolveRequest.square(4, second),
    ]


def mixed_batch_mismatches(address: tuple[str, int]) -> list[str]:
    """The wire bytes of a mixed ``/batch`` against its in-process
    encoding: ``encode_result``/``encode_failed`` of ``solve_many``."""
    requests = mixed_batch_requests()
    connection = HTTPConnection(*address, timeout=30.0)
    try:
        connection.request(
            "POST", "/batch",
            body=json.dumps({"requests": [r.to_dict() for r in requests]}),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        status, raw = response.status, response.read()
    finally:
        connection.close()
    if status != 200:
        return [f"mixed batch: HTTP {status}"]
    reply = json.loads(raw)
    records = []
    local = solve_many(requests, engine=BatchSolver(EngineConfig()))
    for result in local:
        if getattr(result, "failed", False):
            records.append(encode_failed(result) | {"failed": True})
        else:
            records.append(encode_result(result))
    want = json.dumps({
        "id": reply["id"],
        "results": records,
        "failed": 1,
        "coalesced": 0,
        "admission_weight": reply["admission_weight"],
        "elapsed_ms": reply["elapsed_ms"],
    }).encode()
    return [] if raw == want else ["mixed batch bytes"]


def check(condition: bool, label: str, failures: list[str]) -> None:
    print(f"  [{'ok' if condition else 'FAIL'}] {label}")
    if not condition:
        failures.append(label)


def main() -> int:
    failures: list[str] = []
    locals_by_key = {
        r.cache_key: solve(r) for r in map(point_request, POINT_SIZES)
    }

    print("service smoke: main daemon (gate 256)")
    # Gate sized above the drill's worst-case concurrent weight (the
    # overload behaviour has its own dedicated daemon below).
    handle = start_in_thread(
        ServiceConfig(port=0, gate_capacity=256, batch_window=0.02),
        engine=BatchSolver(EngineConfig()),
    )
    client = ServiceClient(*handle.address)
    mismatches = []

    def one_point(n: int) -> None:
        request = point_request(n)
        result = client.solve(request)
        if result != locals_by_key[request.cache_key]:
            mismatches.append(f"point n={n}")

    def one_sweep(_index: int) -> None:
        requests = [point_request(n) for n in POINT_SIZES[:4]]
        for request, result in zip(requests,
                                   client.solve_many(requests)):
            if result != locals_by_key[request.cache_key]:
                mismatches.append(f"sweep member {request.dims}")

    # ~200 requests: 6 sizes x 10 racing repeats (guaranteed identical
    # concurrent requests), 20 sweeps of 4 members, 60 mixed repeats.
    with ThreadPoolExecutor(max_workers=32) as pool:
        futures = []
        for n in POINT_SIZES:
            futures += [pool.submit(one_point, n)
                        for _ in range(REPEAT_FANOUT)]
        futures += [pool.submit(one_sweep, i) for i in range(20)]
        futures += [pool.submit(one_point, POINT_SIZES[i % 6])
                    for i in range(60)]
        for future in futures:
            future.result()

    total = 6 * REPEAT_FANOUT + 20 * 4 + 60
    print(f"  drove {total} requests over "
          f"{len(POINT_SIZES)} distinct models")
    check(not mismatches,
          f"zero non-deterministic results ({len(mismatches)} mismatches)",
          failures)
    reversed_bad = reordered_mismatches(client)
    check(not reversed_bad,
          f"reversed class order served its own bytes "
          f"({len(reversed_bad)} mismatches)", failures)
    with ThreadPoolExecutor(max_workers=SWEEP_MIXES) as pool:
        sweep_bad = [
            label for labels in pool.map(
                lambda i: sweep_mismatches(client, i), range(SWEEP_MIXES)
            )
            for label in labels
        ]
    check(not sweep_bad,
          f"{SWEEP_MIXES} 32-point sweeps byte-equal to point solves "
          f"({len(sweep_bad)} mismatches)", failures)
    mixed_bad = mixed_batch_mismatches(handle.address)
    check(not mixed_bad,
          "mixed /batch (two mixes, reversed order, a failed member) "
          f"byte-equal to its in-process encoding ({mixed_bad})", failures)
    hits = handle.service.flights.hits
    check(hits > 0, f"nonzero coalesce hits ({hits})", failures)
    check(handle.service.gate.in_use == 0,
          "all gate tokens released", failures)
    page = client.metrics()
    check("repro_service_requests_total" in page
          and "repro_engine_breaker_state" in page,
          "metrics page renders", failures)
    flushes = client.health()["batcher"]
    on_loop = flushes["loop_flushes"]
    on_worker = flushes["flushes"] - on_loop
    exported = client.metric_value("repro_service_loop_flushes_total")
    check(on_loop >= 1 and on_worker >= 1 and exported == on_loop,
          f"flushes ran on the loop ({on_loop}, /metrics {exported:g}) "
          f"and on the worker ({on_worker})", failures)
    held = handle.service.engine.cache_entries()["solutions"]
    exported = client.metric_value(
        "repro_engine_cache_entries", cache="solutions"
    )
    check(held == 0 and exported == 0.0,
          f"no solution object outlives its reads (engine {held}, "
          f"/metrics {exported:g})", failures)
    handle.stop()
    check(not handle.thread.is_alive(), "clean shutdown (main)", failures)

    print("service smoke: overload daemon (gate 2, 60ms holds)")
    small = start_in_thread(
        ServiceConfig(port=0, gate_capacity=2, batch_window=0.001,
                      min_hold=0.06),
        engine=BatchSolver(EngineConfig()),
    )
    small_client = ServiceClient(*small.address)
    hot = point_request(4)
    small_client.solve(hot)  # warm: holds become ~min_hold
    admitted = rejected = 0

    def overload_call(_index: int) -> None:
        nonlocal admitted, rejected
        try:
            result = small_client.solve(hot)
        except AdmissionRejectedError as exc:
            rejected += 1
            assert exc.retry_after > 0.0
        else:
            admitted += 1
            if result != locals_by_key[hot.cache_key]:
                mismatches.append("overload result")

    with ThreadPoolExecutor(max_workers=16) as pool:
        list(pool.map(overload_call, range(16)))
    check(admitted + rejected == 16 and rejected > 0,
          f"overload cleared with 503s ({admitted} admitted, "
          f"{rejected} rejected)", failures)
    gate = small.service.gate
    check(gate.peak_in_use <= 2,
          f"admission bound held (peak {gate.peak_in_use} <= 2)",
          failures)
    ratio = small_client.metric_value(
        "repro_service_admission_blocking_ratio"
    )
    check(ratio == gate.rejected / gate.offered,
          "metrics blocking ratio exact", failures)
    check(not mismatches, "overload results deterministic", failures)
    small.stop()
    check(not small.thread.is_alive(), "clean shutdown (overload)",
          failures)

    if failures:
        print(f"service smoke: FAILED ({len(failures)} checks)")
        return 1
    print("service smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

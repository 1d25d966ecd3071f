"""Admission control and coalescing edge cases of the daemon.

The gate is a blocked-calls-cleared loss system: under a seeded
overload the daemon must (a) never exceed its admission bound,
(b) clear the excess with structured 503s carrying a ``retry_after``
hint, and (c) report a ``/metrics`` blocking ratio that matches the
observed rejection count *exactly* — the gate counts every offered
request, so the ratio is a measurement, not an estimate.

The coalescing edge cases: identical requests racing across a
batch-window boundary must share the in-flight future; a coalesced
leader's terminal failure must resolve its followers with the same
``FailedResult`` (never hang them); and a client that disconnects
mid-request must not leak its gate tokens.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

pytestmark = pytest.mark.service  # spins up the solve-serving daemon

from repro.api import SolveRequest, solve
from repro.core.traffic import TrafficClass
from repro.engine import BatchSolver, EngineConfig, FailedResult
from repro.service import (
    AdmissionGate,
    AdmissionRejectedError,
    RemoteSolveError,
    ServiceClient,
    ServiceConfig,
    SolveService,
    start_in_thread,
)


def point_request(n: int = 4, rate: float = 0.01) -> SolveRequest:
    return SolveRequest.square(n, [TrafficClass.poisson(rate)])


# ----------------------------------------------------------------------
# Gate unit behaviour
# ----------------------------------------------------------------------


def test_gate_admits_until_capacity_then_clears():
    gate = AdmissionGate(3)
    leases = [gate.try_acquire("solve", 1) for _ in range(3)]
    assert all(lease is not None for lease in leases)
    assert gate.try_acquire("solve", 1) is None  # cleared, not queued
    assert gate.in_use == 3 and gate.peak_in_use == 3
    assert gate.offered == 4 and gate.rejected == 1
    gate.release(leases[0])
    assert gate.try_acquire("solve", 1) is not None
    snapshot = gate.snapshot()
    assert snapshot.blocking_ratio == 1 / 5


def test_gate_weighted_acquire_and_clamp():
    gate = AdmissionGate(4)
    assert gate.effective_weight(0) == 1
    assert gate.effective_weight(99) == 4  # a_r <= min(N1, N2)
    lease = gate.try_acquire("batch", 99)
    assert lease is not None and lease.weight == 4
    assert gate.try_acquire("solve", 1) is None  # full gate taken
    gate.release(lease)
    assert gate.in_use == 0


def test_gate_counts_by_class():
    gate = AdmissionGate(1)
    gate.try_acquire("solve", 1)
    gate.try_acquire("batch", 1)
    assert gate.offered_by_class() == {"solve": 1, "batch": 1}
    assert gate.rejected_by_class() == {"batch": 1}


# ----------------------------------------------------------------------
# Seeded overload: bound respected, structured 503s, exact metrics
# ----------------------------------------------------------------------


def test_overload_never_exceeds_bound_and_meters_exactly():
    capacity = 4
    handle = start_in_thread(
        ServiceConfig(
            port=0, gate_capacity=capacity, batch_window=0.001,
            min_hold=0.15,
        ),
        engine=BatchSolver(EngineConfig()),
    )
    try:
        client = ServiceClient(*handle.address)
        request = point_request()
        client.solve(request)  # warm the cache: holds are then ~min_hold

        admitted = rejected = 0
        lock = threading.Lock()

        def one_call(_index: int) -> None:
            nonlocal admitted, rejected
            try:
                client.solve(request)
            except AdmissionRejectedError as exc:
                with lock:
                    rejected += 1
                assert exc.retry_after > 0.0
                error = exc.payload["error"]
                assert error["kind"] == "admission_rejected"
                assert error["gate_capacity"] == capacity
                assert error["admission_class"] == "solve"
                assert 0.0 < error["blocking_ratio"] <= 1.0
            else:
                with lock:
                    admitted += 1

        # 24 concurrent callers against 4 tokens held ~150 ms each.
        with ThreadPoolExecutor(max_workers=24) as pool:
            list(pool.map(one_call, range(24)))

        assert admitted + rejected == 24
        assert rejected > 0, "overload must clear some calls"
        gate = handle.service.gate
        assert gate.peak_in_use <= capacity
        assert gate.in_use == 0  # everything released
        # Exact bookkeeping: the daemon saw exactly our requests.
        assert gate.offered == 25  # warmup + 24
        assert gate.rejected == rejected
        # /metrics reports the measured ratio exactly (repr round-trip).
        ratio = client.metric_value("repro_service_admission_blocking_ratio")
        assert ratio == gate.rejected / gate.offered
        assert client.metric_value(
            "repro_service_admission_rejected_total", **{"class": "solve"}
        ) == float(rejected)
        assert client.metric_value(
            "repro_service_admission_offered_total", **{"class": "solve"}
        ) == 25.0
    finally:
        handle.stop()


def test_503_carries_retry_after_header_and_hint():
    handle = start_in_thread(
        ServiceConfig(port=0, gate_capacity=1, batch_window=0.001,
                      min_hold=0.4, retry_after_floor=0.07),
        engine=BatchSolver(EngineConfig()),
    )
    try:
        client = ServiceClient(*handle.address)
        request = point_request()
        holder = threading.Thread(target=client.solve, args=(request,))
        holder.start()
        time.sleep(0.1)  # let the holder take the only token
        with pytest.raises(AdmissionRejectedError) as excinfo:
            client.solve(request)
        assert excinfo.value.retry_after >= 0.07
        holder.join()
    finally:
        handle.stop()


def test_batch_weight_scales_with_size():
    """A sweep takes one token per member, like multi-rate ``a_r``."""
    handle = start_in_thread(
        ServiceConfig(port=0, gate_capacity=8, batch_member_weight=1,
                      batch_window=0.001, min_hold=0.3),
        engine=BatchSolver(EngineConfig()),
    )
    try:
        client = ServiceClient(*handle.address)
        sweep = [point_request(n) for n in (4, 5, 6, 7, 8)]  # weight 5
        runner = threading.Thread(target=client.solve_many, args=(sweep,))
        runner.start()
        time.sleep(0.1)
        # 5 of 8 tokens held: a weight-4 batch must be cleared...
        with pytest.raises(AdmissionRejectedError):
            client.solve_many([point_request(n) for n in (4, 5, 6, 7)])
        # ...but a single point solve (weight 1) still fits.
        client.solve(point_request())
        runner.join()
        assert handle.service.gate.peak_in_use <= 8
    finally:
        handle.stop()


# ----------------------------------------------------------------------
# Identical requests racing across the batch-window boundary
# ----------------------------------------------------------------------


def test_identical_requests_race_across_window_boundary():
    """The follower arrives *after* the leader's window flushed — while
    the engine is still computing — and must join the open flight
    rather than start a second computation."""

    release = threading.Event()
    computed = []

    async def scenario() -> None:
        service = SolveService(
            ServiceConfig(port=0, batch_window=0.01),
            engine=BatchSolver(EngineConfig()),
        )
        local = solve(point_request())

        def gated_runner(requests):
            computed.append(list(requests))
            assert release.wait(5.0), "runner was never released"
            return [local for _ in requests]

        service.batcher._runner = gated_runner
        try:
            leader = asyncio.create_task(
                service._execute(point_request())
            )
            # Past the window: the leader's flush is now blocked inside
            # the runner, holding the flight open.
            await asyncio.sleep(0.08)
            assert len(computed) == 1
            follower = asyncio.create_task(
                service._execute(point_request())
            )
            await asyncio.sleep(0.02)
            release.set()
            (lead_result, lead_coalesced), (follow_result,
                                            follow_coalesced) = \
                await asyncio.gather(leader, follower)
            assert lead_coalesced is False
            assert follow_coalesced is True
            assert lead_result == follow_result == local
            assert len(computed) == 1, "follower must not recompute"
            assert service.flights.hits == 1
        finally:
            await service.batcher.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# A failing leader resolves its followers (no hangs)
# ----------------------------------------------------------------------


def test_failed_leader_resolves_followers_with_failed_result():
    request = point_request(5, 0.03)
    failure = FailedResult(
        request=request,
        error_type="ConvergenceError",
        error_message="injected terminal failure",
    )
    handle = start_in_thread(
        ServiceConfig(port=0, batch_window=0.05),
        engine=BatchSolver(EngineConfig()),
    )
    try:
        def failing_runner(requests):
            time.sleep(0.3)  # keep the flight open for the followers
            return [failure for _ in requests]

        handle.service.batcher._runner = failing_runner
        client = ServiceClient(*handle.address)
        errors: list[Exception] = []

        def one_call(_index: int) -> None:
            try:
                client.solve(request)
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(one_call, range(6)))

        assert len(errors) == 6, "every caller must get an answer"
        for error in errors:
            assert isinstance(error, RemoteSolveError)
            assert error.failed.error_type == "ConvergenceError"
            assert error.failed.error_message == "injected terminal failure"
            assert error.failed.request == request
        assert handle.service.flights.hits >= 1, "followers coalesced"
        assert len(handle.service.flights) == 0, "flight evicted"
        assert handle.service.gate.in_use == 0, "all tokens released"
        assert client.metric_value(
            "repro_service_solve_failures_total"
        ) == 6.0
    finally:
        handle.stop()


# ----------------------------------------------------------------------
# Gate tokens release when the client disconnects
# ----------------------------------------------------------------------


def test_gate_releases_tokens_on_client_disconnect():
    handle = start_in_thread(
        ServiceConfig(port=0, gate_capacity=1, batch_window=0.001,
                      min_hold=0.25),
        engine=BatchSolver(EngineConfig()),
    )
    try:
        client = ServiceClient(*handle.address)
        request = point_request()
        client.solve(request)  # warm the cache

        body = json.dumps({"request": request.to_dict()}).encode()
        raw = (
            b"POST /solve HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            + body
        )
        with socket.create_connection(handle.address, timeout=5.0) as sock:
            sock.sendall(raw)
        # Socket closed before the reply: the daemon still holds the
        # token for ~min_hold...
        time.sleep(0.1)
        with pytest.raises(AdmissionRejectedError):
            client.solve(request)
        # ...then releases it even though the reply could not be sent.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if handle.service.gate.in_use == 0:
                break
            time.sleep(0.02)
        assert handle.service.gate.in_use == 0
        result = client.solve(request)  # gate is free again
        assert result == solve(request)
    finally:
        handle.stop()

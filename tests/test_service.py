"""The solve-serving daemon: wire protocol, byte identity, batching.

The headline contract is **byte identity**: a result served over the
JSON wire compares equal — field by field, ``float.hex`` by
``float.hex`` — to a direct :func:`repro.api.solve` on the same
request, whether it was computed, micro-batched, coalesced or served
from cache.  Python's ``json`` emits floats via ``repr`` (shortest
exact round-trip), so nothing is lost in transit; these tests prove
it on the paper's own Table 1 configurations.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

pytestmark = pytest.mark.service  # spins up the solve-serving daemon

from repro.api import SolveRequest, solve, solve_many
from repro.core.traffic import TrafficClass
from repro.engine import BatchSolver, EngineConfig
from repro.exceptions import ConfigurationError
from repro.methods import SolveMethod
from repro.service import (
    BatcherClosedError,
    MicroBatcher,
    ServiceClient,
    ServiceConfig,
    ServiceProtocolError,
    SingleFlight,
    SolveService,
    start_in_thread,
)
from repro.service.protocol import (
    decode_request,
    decode_result,
    encode_result,
    new_request_id,
)
from repro.workloads.scenarios import TABLE1_PAPER

# Table 1 sizes small enough to solve quickly in tests.
TABLE1_TEST_SIZES = (4, 8, 16)


def table1_requests(n: int) -> list[SolveRequest]:
    """The two Table 1 classes of size ``n`` as separate requests."""
    rho1, rho2 = TABLE1_PAPER[n]
    return [
        SolveRequest.square(
            n, [TrafficClass.from_aggregate(rho1, 0.0, n2=n, mu=1.0, a=1)]
        ),
        SolveRequest.square(
            n, [TrafficClass.from_aggregate(rho2, 0.0, n2=n, mu=1.0, a=2)]
        ),
    ]


def mixed_request(n: int = 6) -> SolveRequest:
    return SolveRequest.square(
        n,
        [
            TrafficClass.poisson(0.02, name="data"),
            TrafficClass(alpha=0.01, beta=0.02, mu=1.0, a=2, name="burst"),
        ],
    )


def assert_byte_identical(remote, local) -> None:
    """Equality plus ``float.hex`` identity on every scalar measure."""
    assert remote == local
    assert remote.request == local.request
    for name in ("blocking", "concurrency", "acceptance", "throughput"):
        for got, want in zip(getattr(remote, name), getattr(local, name)):
            assert got.hex() == want.hex(), f"{name}: {got!r} != {want!r}"
    assert remote.revenue.hex() == local.revenue.hex()
    assert remote.mean_occupancy.hex() == local.mean_occupancy.hex()
    assert remote.utilization.hex() == local.utilization.hex()


@pytest.fixture(scope="module")
def service():
    """One daemon on an ephemeral port with its own private engine."""
    handle = start_in_thread(
        ServiceConfig(port=0, batch_window=0.005),
        engine=BatchSolver(EngineConfig()),
    )
    try:
        yield handle
    finally:
        handle.stop()


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(*service.address)


# ----------------------------------------------------------------------
# Byte identity over the wire
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", TABLE1_TEST_SIZES)
def test_solve_byte_identical_to_local_table1(client, n):
    for request in table1_requests(n):
        remote = client.solve(request)
        local = solve(request)
        assert_byte_identical(remote, local)


def test_solve_byte_identical_mixed_classes(client):
    request = mixed_request()
    assert_byte_identical(client.solve(request), solve(request))


def test_solve_byte_identical_from_cache(client):
    """A repeat of the same request (now cached) is still identical."""
    request = table1_requests(4)[0]
    first = client.solve(request)
    second = client.solve(request)
    assert_byte_identical(second, first)
    assert_byte_identical(second, solve(request))


def test_batch_byte_identical_to_solve_many(client):
    requests = [r for n in TABLE1_TEST_SIZES for r in table1_requests(n)]
    remote = client.solve_many(requests)
    local = solve_many(requests)
    assert len(remote) == len(local)
    for got, want in zip(remote, local):
        assert_byte_identical(got, want)


def test_concurrent_identical_requests_coalesce_and_stay_identical():
    """Racing identical requests share one computation, byte-identically.

    A wide batch window plus a fresh engine guarantees the concurrent
    callers arrive while the leader's flight is still open, so at least
    one of them must coalesce — and every result must still compare
    equal to the local solve.
    """
    engine = BatchSolver(EngineConfig())
    handle = start_in_thread(
        ServiceConfig(port=0, batch_window=0.25), engine=engine
    )
    try:
        remote_client = ServiceClient(*handle.address)
        request = mixed_request(8)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda _: remote_client.solve(request), range(8))
            )
        local = solve(request)
        for result in results:
            assert_byte_identical(result, local)
        assert handle.service.flights.hits >= 1
        assert remote_client.metric_value(
            "repro_service_coalesce_hits_total"
        ) >= 1.0
    finally:
        handle.stop()


# ----------------------------------------------------------------------
# Endpoints
# ----------------------------------------------------------------------


def test_healthz_reports_gate_and_engine(client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["gate"]["capacity"] == 64
    assert health["gate"]["in_use"] == 0
    assert 0.0 <= health["gate"]["blocking_ratio"] <= 1.0
    assert "lookups" in health["engine"]
    assert health["coalesce"]["in_flight"] == 0


def test_metrics_page_renders_prometheus_text(client):
    client.solve(table1_requests(4)[0])  # ensure nonzero counters
    page = client.metrics()
    assert "# TYPE repro_service_requests_total counter" in page
    assert "# TYPE repro_service_request_seconds histogram" in page
    assert "repro_service_admission_blocking_ratio" in page
    assert "repro_engine_stat{" in page
    assert "repro_engine_breaker_state{" in page
    assert "repro_service_info{" in page
    assert client.metric_value("repro_service_gate_tokens",
                               state="capacity") == 64.0
    assert client.metric_value("repro_service_requests_total",
                               endpoint="POST /solve", status="200") >= 1.0


def test_unknown_route_is_404(client):
    status, payload = client._roundtrip("GET", "/nope")
    assert status == 404
    assert payload["error"]["kind"] == "not_found"


def test_wrong_method_is_405(client):
    status, payload = client._roundtrip("GET", "/solve")
    assert status == 405
    assert payload["error"]["kind"] == "method_not_allowed"


def test_malformed_json_is_400(client):
    status, payload = client._roundtrip("POST", "/solve", {"request": 42})
    assert status == 400
    assert payload["error"]["kind"] == "bad_request"


def test_request_ids_are_unique_and_echoed(client):
    first = client.health()
    second = client.health()
    assert first["id"] != second["id"]
    assert first["id"].startswith("req-")


# ----------------------------------------------------------------------
# Micro-batching
# ----------------------------------------------------------------------


def test_nearby_requests_share_one_flush():
    """Distinct requests inside one window land in one engine batch."""
    engine = BatchSolver(EngineConfig())
    handle = start_in_thread(
        ServiceConfig(port=0, batch_window=0.25), engine=engine
    )
    try:
        remote_client = ServiceClient(*handle.address)
        requests = table1_requests(4) + table1_requests(8)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(remote_client.solve, requests))
        for got, request in zip(results, requests):
            assert_byte_identical(got, solve(request))
        batcher = handle.service.batcher
        assert batcher.flush_count >= 1
        assert batcher.batched_requests >= len(requests)
        # All four fit one window: strictly fewer flushes than requests.
        assert batcher.flush_count < len(requests)
    finally:
        handle.stop()


def test_max_batch_flushes_immediately():
    flushed: list[int] = []

    async def scenario() -> None:
        batcher = MicroBatcher(
            lambda requests: [object() for _ in requests],
            window=60.0, max_batch=3,
            observer=lambda size, _elapsed: flushed.append(size),
        )
        loop = asyncio.get_running_loop()
        futures = [loop.create_future() for _ in range(3)]
        request = mixed_request(4)
        for future in futures:
            batcher.submit(request, future)
        await asyncio.wait_for(asyncio.gather(*futures), timeout=5.0)
        await batcher.close()

    asyncio.run(scenario())
    assert flushed == [3]


def test_idle_batcher_flushes_one_loop_turn_as_one_batch():
    """window=0: everything submitted in one turn shares the next-turn
    flush (the gathered members of a ``/batch`` ride together)."""
    flushed: list[int] = []

    async def scenario() -> None:
        batcher = MicroBatcher(
            lambda requests: [object() for _ in requests],
            window=0.0,
            observer=lambda size, _elapsed: flushed.append(size),
        )
        loop = asyncio.get_running_loop()
        futures = [loop.create_future() for _ in range(32)]
        for n, future in enumerate(futures):
            batcher.submit(mixed_request(4 + n % 3), future)
        await asyncio.wait_for(asyncio.gather(*futures), timeout=5.0)
        await batcher.close()

    asyncio.run(scenario())
    assert flushed == [32]


def test_busy_batcher_accumulates_into_one_follow_up_flush():
    """Submits made while a flush computes wait for it, then flush
    together: no parallel flush queues behind the worker."""
    entered = threading.Event()
    release = threading.Event()
    batches: list[int] = []

    def gated_runner(requests):
        batches.append(len(requests))
        entered.set()
        assert release.wait(5.0), "runner was never released"
        return [object() for _ in requests]

    async def scenario() -> None:
        batcher = MicroBatcher(gated_runner, window=0.0)
        loop = asyncio.get_running_loop()
        first = loop.create_future()
        batcher.submit(mixed_request(4), first)
        assert await loop.run_in_executor(None, entered.wait, 5.0)
        followers = [loop.create_future() for _ in range(5)]
        for future in followers:
            batcher.submit(mixed_request(5), future)
            await asyncio.sleep(0.002)  # separate loop turns
        assert batches == [1]
        assert batcher.queue_depth == len(followers)
        release.set()
        await asyncio.wait_for(
            asyncio.gather(first, *followers), timeout=5.0
        )
        await batcher.close()
        assert batcher.flush_count == 2

    asyncio.run(scenario())
    assert batches == [1, 5]


def test_positive_window_still_holds_for_its_full_length():
    window = 0.1
    started: list[float] = []
    waits: list[float] = []

    def runner(requests):
        started.append(time.monotonic())
        return [object() for _ in requests]

    async def scenario() -> float:
        batcher = MicroBatcher(runner, window=window,
                               wait_observer=waits.append)
        future = asyncio.get_running_loop().create_future()
        submitted = time.monotonic()
        batcher.submit(mixed_request(4), future)
        await asyncio.wait_for(future, timeout=5.0)
        await batcher.close()
        return submitted

    submitted = asyncio.run(scenario())
    assert started[0] - submitted >= window - 1e-3
    assert len(waits) == 1 and waits[0] >= window - 1e-3


def test_close_with_next_turn_flush_armed_fails_pending():
    calls: list[int] = []

    def runner(requests):
        calls.append(len(requests))
        return [object() for _ in requests]

    async def scenario() -> MicroBatcher:
        batcher = MicroBatcher(runner, window=0.0)
        future = asyncio.get_running_loop().create_future()
        batcher.submit(mixed_request(4), future)  # arms the next turn
        await batcher.close()
        with pytest.raises(BatcherClosedError):
            await future
        await asyncio.sleep(0.05)  # any stray flush would fire here
        return batcher

    batcher = asyncio.run(scenario())
    assert calls == []
    assert batcher.flush_count == 0 and not batcher.busy


# ----------------------------------------------------------------------
# Protocol round-trips
# ----------------------------------------------------------------------


def test_protocol_result_roundtrip_is_exact():
    request = mixed_request(5)
    local = solve(request)
    wire = json.loads(json.dumps(encode_result(local)))
    assert decode_result(wire) == local
    for r in range(len(request.classes)):
        assert decode_result(wire).blocking[r].hex() == \
            local.blocking[r].hex()


def test_protocol_accepts_bare_and_wrapped_requests():
    request = table1_requests(4)[0]
    assert decode_request(request.to_dict()) == request
    assert decode_request({"request": request.to_dict()}) == request


def test_protocol_rejects_garbage():
    with pytest.raises(ConfigurationError):
        decode_request({"request": []})
    with pytest.raises(ConfigurationError):
        decode_request("not a mapping")


def test_request_ids_monotonic():
    a, b = new_request_id(), new_request_id()
    assert a != b and a.startswith("req-") and b.startswith("req-")


# ----------------------------------------------------------------------
# SingleFlight unit behaviour
# ----------------------------------------------------------------------


def test_singleflight_join_then_evict():
    async def scenario() -> None:
        flights = SingleFlight()
        loop = asyncio.get_running_loop()
        assert flights.join("k") is None
        future = flights.lead("k", loop)
        assert flights.join("k") is future
        assert flights.hits == 1 and flights.leaders == 1
        future.set_result("done")
        await asyncio.sleep(0)  # run the eviction callback
        assert len(flights) == 0
        assert flights.join("k") is None  # next caller leads afresh

    asyncio.run(scenario())


def test_singleflight_evicts_on_failure_too():
    async def scenario() -> None:
        flights = SingleFlight()
        loop = asyncio.get_running_loop()
        future = flights.lead("k", loop)
        future.set_exception(RuntimeError("boom"))
        await asyncio.sleep(0)
        assert len(flights) == 0
        future.exception()  # consume so the loop does not warn

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


def test_start_in_thread_binds_ephemeral_port(service):
    assert service.port > 0
    assert service.host == "127.0.0.1"


def test_stop_is_idempotent():
    handle = start_in_thread(engine=BatchSolver(EngineConfig()))
    handle.stop()
    handle.stop()  # second stop is a no-op
    assert not handle.thread.is_alive()


def test_service_config_validation():
    with pytest.raises(ConfigurationError):
        ServiceConfig(gate_capacity=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(point_weight=0)


def test_series_method_round_trips_too(client):
    request = SolveRequest.square(
        6, [TrafficClass.poisson(0.05)], method=SolveMethod.EXACT
    )
    assert_byte_identical(client.solve(request), solve(request))

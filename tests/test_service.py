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
import dataclasses
import gc
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

pytestmark = pytest.mark.service  # spins up the solve-serving daemon

from repro.api import SolveRequest, SolveResult, solve, solve_many
from repro.core.traffic import TrafficClass
from repro.engine import BatchSolver, EngineConfig, FailedResult, readdressed
from repro.exceptions import ConfigurationError
from repro.methods import SolveMethod
from repro.service import (
    BatcherClosedError,
    BrownoutConfig,
    MicroBatcher,
    ServiceClient,
    ServiceConfig,
    ServiceProtocolError,
    SingleFlight,
    SolveService,
    start_in_thread,
)
from repro.service.brownout import STAGE_CHEAP_METHOD, STAGE_STALE_CACHE
from repro.service.httpio import HttpRequest
from repro.service.protocol import (
    decode_request,
    decode_request_list,
    decode_result,
    encode_failed,
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


def sweep_requests(sizes=range(1, 33), rate: float = 0.013) -> list[SolveRequest]:
    """A 32-point capacity sweep over one Poisson + Pascal mix."""
    classes = (
        TrafficClass.poisson(rate, name="data"),
        TrafficClass(alpha=rate / 3, beta=0.3, mu=1.0, a=2, name="video"),
    )
    return [SolveRequest.square(n, classes) for n in sizes]


async def post_raw(port: int, path: str, payload: dict) -> tuple[int, dict]:
    """One HTTP/1.1 POST over a fresh loopback connection."""
    status, body = await post_bytes(port, path, payload)
    return status, json.loads(body)


async def post_bytes(port: int, path: str, payload: dict) -> tuple[int, bytes]:
    """:func:`post_raw`, returning the reply body as sent."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode()
    writer.write(
        f"POST {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        .encode() + body
    )
    head = await reader.readuntil(b"\r\n\r\n")
    length = next(
        int(line.split(b":", 1)[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    body = await reader.readexactly(length)
    writer.close()
    return int(head.split()[1]), body


def test_full_memos_are_refilled_not_frozen(monkeypatch):
    """A memo holding 4096 entries is cleared before the next insert:
    a new body seen twice is decoded once and served from the memo."""
    import repro.service.server as server_module

    decoded: list[int] = []
    real_decode = server_module.decode_request

    def counting_decode(payload):
        decoded.append(1)
        return real_decode(payload)

    monkeypatch.setattr(server_module, "decode_request", counting_decode)
    request = mixed_request(5)
    with start_in_thread(
        ServiceConfig(port=0), engine=BatchSolver(EngineConfig())
    ) as handle:
        service = handle.service
        filler = table1_requests(4)[0]
        for i in range(4096):  # 4096 distinct bodies and keys seen
            service._parse_memo[b"filler-%d" % i] = (filler, None)
            service._result_memo[f"filler-{i}"] = b"{}"

        async def twice() -> list[tuple[int, dict]]:
            payload = {"request": request.to_dict()}
            return [
                await post_raw(handle.port, "/solve", payload)
                for _ in range(2)
            ]

        replies = asyncio.run(twice())
        assert [status for status, _ in replies] == [200, 200]
        assert decode_result(replies[1][1]["result"]) == solve(request)
        assert decoded == [1]  # the second sighting hit the parse memo
        assert len(service._parse_memo) == 1
        assert list(service._result_memo) == [request.cache_key]


def data_video_mix(reverse: bool = False) -> SolveRequest:
    classes = [
        TrafficClass.poisson(0.01, name="data"),
        TrafficClass(alpha=0.004, beta=0.2, mu=1.0, a=2, name="video"),
    ]
    return SolveRequest.square(8, classes[::-1] if reverse else classes)


def post_in_turn(port: int, requests: list[SolveRequest]) -> list[dict]:
    async def in_turn() -> list[dict]:
        replies = []
        for request in requests:
            status, reply = await post_raw(
                port, "/solve", {"request": request.to_dict()}
            )
            assert status == 200, reply
            replies.append(reply)
        return replies

    return asyncio.run(in_turn())


def test_reversed_class_order_is_spliced_its_own_result():
    """The fragment memo is keyed by the order-insensitive cache key:
    a reversed mix must still get the bytes of the result served to it,
    not the stored order's."""
    forward, reverse = data_video_mix(), data_video_mix(reverse=True)
    with start_in_thread(
        ServiceConfig(port=0), engine=BatchSolver(EngineConfig())
    ) as handle:
        _, flipped = post_in_turn(handle.port, [forward, reverse])
    # The daemon solved the forward order and re-addressed the stored
    # result; a local engine with the same history serves these bytes.
    local = BatchSolver(EngineConfig())
    local.solve(forward)
    served = local.cached_result(reverse)
    assert json.dumps(flipped["result"]) == json.dumps(encode_result(served))
    names = [c["name"] for c in flipped["result"]["request"]["classes"]]
    assert names == ["video", "data"]
    direct = solve(reverse, engine=BatchSolver(EngineConfig()))
    assert flipped["result"]["blocking"] == pytest.approx(
        list(direct.blocking), rel=1e-12
    )
    assert flipped["result"]["blocking"][0] > flipped["result"]["blocking"][1]


def test_repeat_request_reports_from_cache_inside_and_out():
    request = data_video_mix()
    engine = BatchSolver(EngineConfig())
    with start_in_thread(ServiceConfig(port=0), engine=engine) as handle:
        first, second, third = post_in_turn(handle.port, [request] * 3)
        served = engine.cached_result(request, memory_only=True)
    assert (first["from_cache"], first["result"]["from_cache"]) == (
        False, False
    )
    for reply in (second, third):
        assert reply["from_cache"] is True
        assert reply["result"]["from_cache"] is True
        assert json.dumps(reply["result"]) == json.dumps(
            encode_result(served)
        )


def test_keepalive_hot_requests_arm_one_read_timer_and_no_task():
    """100 cache hits on one keep-alive connection share the
    connection's single read timer, and closing the connection
    disarms it."""
    request = mixed_request(5)
    body = json.dumps({"request": request.to_dict()}).encode()
    wire = (
        f"POST /solve HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )

    async def exchange(reader, writer) -> int:
        writer.write(wire)
        head = await reader.readuntil(b"\r\n\r\n")
        length = next(
            int(line.split(b":", 1)[1])
            for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length:")
        )
        await reader.readexactly(length)
        return int(head.split()[1])

    async def scenario() -> tuple[list, int, list[int]]:
        loop = asyncio.get_running_loop()
        handles: list[asyncio.TimerHandle] = []
        tasks = 0
        real_call_at = loop.call_at

        def counting_call_at(*args, **kwargs):
            handle = real_call_at(*args, **kwargs)
            handles.append(handle)
            return handle

        def counting_factory(loop, coro, **kwargs):
            nonlocal tasks
            tasks += 1
            return asyncio.Task(coro, loop=loop, **kwargs)

        service = SolveService(
            ServiceConfig(port=0, read_timeout=30.0,
                          brownout=BrownoutConfig(enabled=False)),
            engine=BatchSolver(EngineConfig()),
        )
        await service.start()
        try:
            # Warm the cache on another connection: the miss path's own
            # timers are not the read path's.
            await post_raw(service.port, "/solve",
                           {"request": request.to_dict()})
            loop.call_at = counting_call_at
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            statuses = [await exchange(reader, writer)]
            loop.set_task_factory(counting_factory)
            try:
                for _ in range(100):
                    statuses.append(await exchange(reader, writer))
            finally:
                loop.set_task_factory(None)
                del loop.call_at
            writer.close()
            await writer.wait_closed()
            for _ in range(200):
                if not service._conn_busy:
                    break
                await asyncio.sleep(0.01)
            return handles, tasks, statuses
        finally:
            await service.stop()

    handles, tasks, statuses = asyncio.run(scenario())
    assert statuses == [200] * 101
    assert tasks == 0
    assert len(handles) == 1  # armed by the first read, never again
    assert handles[0].cancelled()  # closing the connection disarmed it


def test_batch_byte_identical_to_independent_point_solves(client):
    """Each member of a 32-point /batch equals its own point solve (not
    a shared-grid read, which is the code under test)."""
    requests = sweep_requests(rate=0.0123)
    remote = client.solve_many(requests)
    assert len(remote) == 32
    for got, request in zip(remote, requests):
        assert_byte_identical(
            got, solve(request, engine=BatchSolver(EngineConfig()))
        )


def test_batch_of_32_creates_no_task_per_member():
    requests = sweep_requests(rate=0.0171)
    created: list[str] = []

    def counting_factory(loop, coro, **kwargs):
        created.append(coro.__qualname__)
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def scenario() -> tuple[int, dict]:
        service = SolveService(
            ServiceConfig(port=0), engine=BatchSolver(EngineConfig())
        )
        await service.start()
        loop = asyncio.get_running_loop()
        loop.set_task_factory(counting_factory)
        try:
            return await post_raw(service.port, "/batch", {
                "requests": [r.to_dict() for r in requests]
            })
        finally:
            loop.set_task_factory(None)
            await service.stop()

    status, payload = asyncio.run(scenario())
    assert status == 200 and payload["failed"] == 0
    assert len(payload["results"]) == 32
    # Accepting the connection, its handler and one flush of all 32
    # members: nothing per member.
    assert created.count("MicroBatcher._flush") == 1
    assert len(created) <= 3, created


def test_batch_member_joins_in_flight_solve_and_gets_its_bytes():
    # The wide window keeps the /solve's flight open until the /batch
    # whose first member is the same request arrives.
    engine = BatchSolver(EngineConfig())
    handle = start_in_thread(
        ServiceConfig(port=0, batch_window=0.5), engine=engine
    )
    try:
        remote_client = ServiceClient(*handle.address)
        requests = sweep_requests(range(4, 8), rate=0.0147)
        with ThreadPoolExecutor(max_workers=1) as pool:
            leader = pool.submit(
                remote_client._roundtrip, "POST", "/solve",
                {"request": requests[0].to_dict()},
            )
            deadline = time.monotonic() + 5.0
            while not len(handle.service.flights):
                assert time.monotonic() < deadline, "solve never led"
                time.sleep(0.005)
            status, batch = remote_client._roundtrip(
                "POST", "/batch",
                {"requests": [r.to_dict() for r in requests]},
            )
            solve_status, solo = leader.result(timeout=10.0)
        assert (status, solve_status) == (200, 200)
        assert batch["coalesced"] == 1
        assert batch["results"][0] == solo["result"]
        assert handle.service.flights.hits == 1
    finally:
        handle.stop()


def lead_then_join(
    handle, leader: SolveRequest, path: str, joiners: list[SolveRequest]
) -> tuple[dict, dict]:
    """``/solve`` ``leader``, then (while its flight is open) send
    ``joiners`` to ``path``; returns both replies."""
    remote_client = ServiceClient(*handle.address)
    with ThreadPoolExecutor(max_workers=1) as pool:
        led = pool.submit(
            remote_client._roundtrip, "POST", "/solve",
            {"request": leader.to_dict()},
        )
        deadline = time.monotonic() + 5.0
        while not len(handle.service.flights):
            assert time.monotonic() < deadline, "solve never led"
            time.sleep(0.005)
        body = (
            {"request": joiners[0].to_dict()} if path == "/solve"
            else {"requests": [r.to_dict() for r in joiners]}
        )
        status, joined = remote_client._roundtrip("POST", path, body)
        leader_status, solo = led.result(timeout=10.0)
    assert (status, leader_status) == (200, 200)
    return solo, joined


def readdressed_locally(
    stored: SolveRequest, request: SolveRequest
) -> dict:
    """What a local engine that solved ``stored`` answers ``request``."""
    return encode_result(
        readdressed(BatchSolver(EngineConfig()).solve(stored), request)
    )


def test_coalesced_solve_is_answered_in_its_own_class_order():
    # The wide window keeps the leader's flight open for the follower.
    forward, reverse = data_video_mix(), data_video_mix(reverse=True)
    with start_in_thread(
        ServiceConfig(port=0, batch_window=0.5),
        engine=BatchSolver(EngineConfig()),
    ) as handle:
        solo, follower = lead_then_join(handle, forward, "/solve", [reverse])
        assert handle.service.flights.hits == 1
    assert follower["coalesced"] is True
    names = [c["name"] for c in follower["result"]["request"]["classes"]]
    assert names == ["video", "data"]
    assert json.dumps(follower["result"]) == json.dumps(
        readdressed_locally(forward, reverse)
    )
    assert follower["result"]["blocking"] == solo["result"]["blocking"][::-1]


def test_batch_member_joining_a_solve_gets_its_own_class_order():
    forward = data_video_mix()
    members = [
        SolveRequest.square(n, forward.classes[::-1]) for n in (8, 6, 7)
    ]
    with start_in_thread(
        ServiceConfig(port=0, batch_window=0.5),
        engine=BatchSolver(EngineConfig()),
    ) as handle:
        _, batch = lead_then_join(handle, forward, "/batch", members)
        assert handle.service.flights.hits == 1
    assert batch["coalesced"] == 1
    assert json.dumps(batch["results"][0]) == json.dumps(
        readdressed_locally(forward, members[0])
    )
    for request, record in zip(members[1:], batch["results"][1:]):
        assert_byte_identical(decode_result(record), solve(request))


def test_serving_keeps_results_not_solution_objects():
    """A /solve miss, a 32-point sweep and a two-size same-mix /batch
    leave no Algorithm 1 grid behind: only their results are kept."""
    engine = BatchSolver(EngineConfig())
    point = mixed_request(7)
    sweep = sweep_requests(rate=0.0171)
    pair = [SolveRequest.square(n, data_video_mix().classes) for n in (5, 9)]
    with start_in_thread(ServiceConfig(port=0), engine=engine) as handle:
        remote_client = ServiceClient(*handle.address)
        assert_byte_identical(remote_client.solve(point), solve(point))
        for requests in (sweep, pair):
            for request, result in zip(
                requests, remote_client.solve_many(requests)
            ):
                assert_byte_identical(result, solve(request))
        gauge = remote_client.metric_value(
            "repro_engine_cache_entries", cache="solutions"
        )
        results_gauge = remote_client.metric_value(
            "repro_engine_cache_entries", cache="results"
        )
    assert engine.cache_entries() == {"results": 35, "solutions": 0}
    assert (gauge, results_gauge) == (0.0, 35.0)


@pytest.mark.parametrize("path", ["/solve", "/batch"])
def test_flight_failure_after_an_early_504_is_still_retrieved(path):
    """A flight that fails after its request already answered 504 must
    not log "exception was never retrieved"."""
    release = threading.Event()
    unretrieved: list[dict] = []

    def dying_runner(requests):
        release.wait(5.0)
        raise RuntimeError("flush worker died")

    async def scenario() -> tuple[int, dict]:
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _loop, ctx: unretrieved.append(ctx))
        service = SolveService(
            ServiceConfig(port=0), engine=BatchSolver(EngineConfig())
        )
        service.batcher._runner = dying_runner
        await service.start()
        try:
            requests = [r.to_dict() for r in sweep_requests(range(2, 6))]
            body = (
                {"requests": requests} if path == "/batch"
                else {"request": requests[0]}
            )
            reply = await post_raw(
                service.port, path, body | {"deadline_ms": 50}
            )
            release.set()
            while service.batcher.busy:
                await asyncio.sleep(0.01)
            gc.collect()
            await asyncio.sleep(0)
        finally:
            await service.stop()
        return reply

    status, payload = asyncio.run(scenario())
    assert status == 504
    assert payload["error"]["phase"] == "wait"
    assert unretrieved == []


def test_cache_hit_for_renamed_classes_is_answered_with_its_names():
    """Class names are outside the key: a hit for a mix that differs
    only by names is served the stored measures under its own names."""
    forward = data_video_mix()
    renamed = renamed_classes(forward, "x", "y")
    with start_in_thread(
        ServiceConfig(port=0), engine=BatchSolver(EngineConfig())
    ) as handle:
        first, hit = post_in_turn(handle.port, [forward, renamed])
    assert hit["from_cache"] is True
    names = [c["name"] for c in hit["result"]["request"]["classes"]]
    assert names == ["x", "y"]
    assert_byte_identical(
        decode_result(hit["result"]), decode_result(first["result"])
    )


def renamed_classes(request: SolveRequest, *names: str) -> SolveRequest:
    return SolveRequest(request.dims, tuple(
        dataclasses.replace(c, name=name)
        for c, name in zip(request.classes, names)
    ), request.method)


def test_solve_joins_a_batch_members_flight_and_gets_its_own_bytes():
    """A /solve arriving while a /batch member's flight is open joins
    that member (the batch leads all its members with one future) and
    is answered in its own class order."""
    members = [SolveRequest.square(n, data_video_mix().classes)
               for n in (5, 6, 7)]
    joiner = SolveRequest.square(6, data_video_mix(reverse=True).classes)
    # The wide window keeps the batch's flight open for the /solve.
    with start_in_thread(
        ServiceConfig(port=0, batch_window=0.5),
        engine=BatchSolver(EngineConfig()),
    ) as handle:
        remote_client = ServiceClient(*handle.address)
        with ThreadPoolExecutor(max_workers=1) as pool:
            led = pool.submit(
                remote_client._roundtrip, "POST", "/batch",
                {"requests": [r.to_dict() for r in members]},
            )
            deadline = time.monotonic() + 5.0
            while not len(handle.service.flights):
                assert time.monotonic() < deadline, "batch never led"
                time.sleep(0.005)
            status, joined = remote_client._roundtrip(
                "POST", "/solve", {"request": joiner.to_dict()}
            )
            batch_status, batch = led.result(timeout=10.0)
        assert handle.service.flights.hits == 1
    assert (status, batch_status) == (200, 200)
    assert joined["coalesced"] is True and batch["coalesced"] == 0
    assert json.dumps(joined["result"]) == json.dumps(
        readdressed_locally(members[1], joiner)
    )
    assert joined["result"]["blocking"] == \
        batch["results"][1]["blocking"][::-1]
    for request, record in zip(members, batch["results"]):
        assert_byte_identical(
            decode_result(record),
            solve(request, engine=BatchSolver(EngineConfig())),
        )


def test_batch_loop_work_does_not_grow_with_its_members():
    """An all-miss /batch of 8 members and one of 32 schedule the same
    number of loop callbacks: the members share one flight, one batcher
    entry and one wake-up."""

    async def callbacks(members: int) -> int:
        service = SolveService(
            ServiceConfig(port=0), engine=BatchSolver(EngineConfig())
        )
        requests = sweep_requests(range(1, members + 1),
                                  rate=0.0101 + 1e-4 * members)
        http = HttpRequest("POST", "/batch", "", {}, json.dumps(
            {"requests": [r.to_dict() for r in requests]}
        ).encode())
        loop = asyncio.get_running_loop()
        scheduled = 0

        def counting(schedule):
            def wrapper(*args, **kwargs):
                nonlocal scheduled
                scheduled += 1
                return schedule(*args, **kwargs)
            return wrapper

        loop.call_soon = counting(loop.call_soon)
        loop.call_soon_threadsafe = counting(loop.call_soon_threadsafe)
        try:
            reply = await service._route(http, "req-test")
        finally:
            del loop.call_soon, loop.call_soon_threadsafe
            await service.batcher.close()
        assert reply.status == 200
        payload = json.loads(reply.payload)
        assert payload["failed"] == 0 and len(payload["results"]) == members
        assert service.engine.stats.snapshot()["solves"] == members
        return scheduled

    assert asyncio.run(callbacks(8)) == asyncio.run(callbacks(32))


INADMISSIBLE = SolveRequest.square(400, (
    TrafficClass(0.31, 0.2), TrafficClass(0.155, -0.01, a=2),
))


def parent_record(item) -> dict:
    """One /batch record as the dict envelope carried it."""
    if isinstance(item, SolveResult):
        return encode_result(item)
    if isinstance(item, FailedResult):
        return encode_failed(item) | {"failed": True}
    return item


def _reversed_members() -> list[dict]:
    forward = data_video_mix()
    flipped = data_video_mix(reverse=True)
    return [r.to_dict() for r in (
        forward, forward.with_dims(6), flipped, flipped.with_dims(7),
    )]


def _renamed_members() -> list[dict]:
    forward = data_video_mix()
    other = renamed_classes(forward, "x", "y")
    return [r.to_dict() for r in (
        forward.with_dims(5), other.with_dims(5), other.with_dims(9),
    )]


def _signed_zero_members() -> list[dict]:
    mix = [{"alpha": 0.01, "beta": -0.0, "name": "z"},
           {"alpha": 0.004, "beta": 0.2, "a": 2, "name": "v"}]
    return [{"n1": n, "n2": n, "classes": mix} for n in (4, 5, 6)]


#: case -> (records, brownout stage or None, (failed, coalesced)).
BATCH_REPLY_CASES = {
    "two-mixes": (lambda: sweep_records((4, 5, 6)) + [
        SolveRequest.square(n, data_video_mix().classes).to_dict()
        for n in (5, 7)
    ], None, (0, 0)),
    "reversed-order": (_reversed_members, None, (0, 1)),
    "renamed": (_renamed_members, None, (0, 1)),
    "signed-zero": (_signed_zero_members, None, (0, 0)),
    "failed-member": (
        lambda: sweep_records((4, 5)) + [INADMISSIBLE.to_dict()],
        None, (1, 0),
    ),
    "coalesced": (lambda: sweep_records((4, 5, 4)), None, (0, 1)),
    "degraded": (lambda: sweep_records((4, 5, 6)), STAGE_CHEAP_METHOD,
                 (0, 0)),
    "stale-only": (lambda: sweep_records((4, 5)), STAGE_STALE_CACHE,
                   (1, 0)),
}


@pytest.mark.parametrize("case", list(BATCH_REPLY_CASES))
def test_batch_reply_is_the_dict_envelope_byte_for_byte(monkeypatch, case):
    """The spliced /batch body equals ``json.dumps`` of the dict
    envelope built from ``encode_result``/``encode_failed`` records, with
    the same id and elapsed_ms."""
    import repro.service.server as server_module

    records, stage, (failed, coalesced) = BATCH_REPLY_CASES[case]
    records = records()
    encoded: list[tuple[str, list, dict]] = []
    real_encode = server_module.encode_batch

    def spy(request_id, items, tail):
        encoded.append((request_id, list(items), dict(tail)))
        return real_encode(request_id, items, tail)

    monkeypatch.setattr(server_module, "encode_batch", spy)

    async def scenario() -> tuple[int, bytes]:
        service = SolveService(
            ServiceConfig(port=0, brownout=BrownoutConfig(enabled=False)),
            engine=BatchSolver(EngineConfig()),
        )
        await service.start()
        try:
            if stage == STAGE_STALE_CACHE:  # one member is cached
                await post_raw(service.port, "/solve",
                               {"request": records[0]})
            if stage is not None:
                service.brownout.force_stage(stage)
            return await post_bytes(
                service.port, "/batch", {"requests": records}
            )
        finally:
            await service.stop()

    status, body = asyncio.run(scenario())
    assert status == 200
    (request_id, items, tail), = encoded
    assert body == json.dumps({
        "id": request_id,
        "results": [parent_record(item) for item in items],
        **tail,
    }).encode()
    reply = json.loads(body)
    assert (reply["failed"], reply["coalesced"]) == (failed, coalesced)
    assert reply.get("degraded", False) is (stage is not None)


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
    flush (the members of a ``/batch``, started in one pass, ride
    together)."""
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


def sweep_records(sizes=(4, 5, 6)) -> list[dict]:
    """Wire records of one size sweep over one Poisson + Pascal mix."""
    return [
        SolveRequest.square(n, mixed_request().classes).to_dict()
        for n in sizes
    ]


def test_batch_decode_shares_one_class_tuple_per_mix():
    records = sweep_records((4, 5, 6))
    other = mixed_request().classes[:1]
    records.insert(2, SolveRequest.square(7, other).to_dict())
    decoded = decode_request_list({"requests": records})
    assert decoded == [SolveRequest.from_dict(r) for r in records]
    assert decoded[1].classes is decoded[0].classes
    assert decoded[2].classes is not decoded[1].classes
    assert decoded[2].classes == other
    # After a differing mix, the next record decodes on its own.
    assert decoded[3].classes is not decoded[0].classes
    assert decoded[3].cache_key == SolveRequest.from_dict(records[3]).cache_key


def test_batch_decode_canonicalizes_each_mix_once(monkeypatch):
    from repro.engine import keys

    real, calls = keys.classes_key, []
    monkeypatch.setattr(
        keys, "classes_key", lambda classes: calls.append(1) or real(classes)
    )
    records = sweep_records(range(1, 33))
    got = [r.cache_key for r in decode_request_list(records)]
    # The first record keys its own mix; the derived chain shares one.
    assert len(calls) <= 2
    monkeypatch.undo()
    assert got == [SolveRequest.from_dict(r).cache_key for r in records]


def test_batch_decode_reuse_keeps_signed_zeros_and_name_types():
    """``==`` on raw JSON calls 0.0 and -0.0, or 1 and true, equal; the
    decoded classes are not, so such records must decode on their own."""
    base = {"alpha": 0.01, "beta": 0.0, "name": "x"}
    flipped = {"alpha": 0.01, "beta": -0.0, "name": "x"}
    decoded = decode_request_list([
        {"n1": 4, "n2": 4, "classes": [base]},
        {"n1": 5, "n2": 5, "classes": [flipped]},
        {"n1": 6, "n2": 6, "classes": [dict(base, name=1)]},
        {"n1": 7, "n2": 7, "classes": [dict(base, name=True)]},
    ])
    assert decoded[1].classes[0].beta.hex() == (-0.0).hex()
    assert decoded[1].cache_key != decoded[0].with_dims(5).cache_key
    assert [d.classes[0].name for d in decoded[2:]] == ["1", "True"]


def test_batch_decode_shared_mix_carries_the_method():
    records = sweep_records((4, 5))
    records[1]["method"] = "mva"
    decoded = decode_request_list(records)
    assert decoded[1].classes is decoded[0].classes
    assert decoded[1].method is SolveMethod.MVA
    assert decoded[1] == SolveRequest.from_dict(records[1])


def _unknown_class_field(records: list[dict]) -> dict:
    bad = dict(records[-1])
    bad["classes"] = [dict(bad["classes"][0], colour="red")]
    return bad


@pytest.mark.parametrize("breakage", [
    pytest.param(lambda r: {k: v for k, v in r[-1].items() if k != "n2"},
                 id="missing-n2"),
    pytest.param(_unknown_class_field, id="unknown-class-field"),
    pytest.param(lambda r: dict(r[-1], method="simplex"), id="bad-method"),
    pytest.param(lambda r: dict(r[-1], method=[]), id="unhashable-method"),
])
def test_batch_decode_rejects_a_malformed_later_record(client, breakage):
    records = sweep_records((4, 5, 6))
    bad = breakage(records)
    with pytest.raises(ConfigurationError) as alone:
        decode_request(bad)
    with pytest.raises(ConfigurationError) as in_batch:
        decode_request_list(records + [bad])
    assert str(in_batch.value) == str(alone.value)
    status, payload = client._roundtrip(
        "POST", "/batch", {"requests": records + [bad]}
    )
    assert status == 400
    assert payload["error"] == {
        "kind": "bad_request", "message": str(alone.value),
    }


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


def test_singleflight_start_many_leads_new_keys_with_one_flight():
    async def scenario() -> None:
        flights = SingleFlight()
        loop = asyncio.get_running_loop()
        solo = flights.lead("a", loop)
        flight, sources = flights.start_many(["a", "b", "c", "b"], loop)
        assert sources == [
            (solo, None, True), (flight, 0, False), (flight, 1, False),
            (flight, 0, True),
        ]
        assert (flights.hits, flights.leaders, len(flights)) == (2, 3, 3)
        joined = flights.join("c")  # a /solve joining a batch member
        flight.set_result(["B", "C"])
        assert await joined == "C"
        assert len(flights) == 1  # only "a" is still in flight
        failing, _ = flights.start_many(["d"], loop)
        late = flights.join("d")
        failing.set_exception(RuntimeError("boom"))
        with pytest.raises(RuntimeError):
            await late
        failing.exception()
        solo.set_result("A")
        await asyncio.sleep(0)
        assert len(flights) == 0

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

"""Overload resilience of the daemon: deadlines, timeouts, drain.

The contract under stress mirrors the model's own philosophy — fail
one request, never the fabric:

* a client ``deadline_ms`` budget bounds the batcher queue and the
  handler's wait, a blown budget is a structured 504 with every
  admission token returned, and the engine solves the request once;
* a slow-loris peer is cut off by the read timeout without ever
  touching the gate;
* a client that vanishes mid-request leaks nothing;
* SIGTERM drains: admitted work completes (followers included), new
  work is cleared, and a second signal forces exit.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

pytestmark = pytest.mark.service  # spins up the solve-serving daemon

from repro.api import SolveRequest, solve
from repro.core.traffic import TrafficClass
from repro.engine import BatchSolver, EngineConfig, ServiceFaultInjector, ServiceFaultPlan
from repro.exceptions import ConfigurationError
from repro.service import (
    AdmissionRejectedError,
    BrownoutConfig,
    DeadlineExceededError,
    MicroBatcher,
    RequestExpiredError,
    ServiceClient,
    ServiceConfig,
    start_in_thread,
)
from repro.service.protocol import decode_deadline_ms


def point_request(n: int = 4, rate: float = 0.01) -> SolveRequest:
    return SolveRequest.square(n, [TrafficClass.poisson(rate)])


def quiet_config(**overrides) -> ServiceConfig:
    """Ephemeral port, brownout off (these tests isolate other layers)."""
    defaults = dict(
        port=0, batch_window=0.005,
        brownout=BrownoutConfig(enabled=False),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


# ----------------------------------------------------------------------
# Deadline decoding (wire layer)
# ----------------------------------------------------------------------


def test_decode_deadline_ms_returns_seconds():
    assert decode_deadline_ms({"deadline_ms": 250}) == 0.25
    assert decode_deadline_ms({"deadline_ms": 1500.0}) == 1.5


@pytest.mark.parametrize(
    "raw", [None, 0, -5, float("nan"), float("inf")]
)
def test_decode_deadline_ms_nonpositive_means_unbounded(raw):
    assert decode_deadline_ms({"deadline_ms": raw}) is None


def test_decode_deadline_ms_absent_and_nondict():
    assert decode_deadline_ms({}) is None
    assert decode_deadline_ms([1, 2]) is None


def test_decode_deadline_ms_rejects_garbage():
    with pytest.raises(ConfigurationError):
        decode_deadline_ms({"deadline_ms": "soon"})


# ----------------------------------------------------------------------
# Batcher deadline semantics (unit)
# ----------------------------------------------------------------------


def test_batcher_drops_expired_members_at_flush():
    """An expired member never occupies a batch slot."""
    ran: list[int] = []

    def runner(requests):
        ran.append(len(requests))
        return [object()] * len(requests)

    async def scenario() -> None:
        batcher = MicroBatcher(runner, window=0.005, max_batch=8)
        loop = asyncio.get_running_loop()
        expired = loop.create_future()
        live = loop.create_future()
        batcher.submit(point_request(4), expired,
                       time.monotonic() - 0.001)  # already blown
        batcher.submit(point_request(5), live, None)
        with pytest.raises(RequestExpiredError):
            await expired
        await live
        await batcher.close()

    asyncio.run(scenario())
    assert ran == [1]  # only the live member reached the engine


def test_batcher_expires_member_queued_behind_computing_flush():
    """Expiry is judged when the runner starts, not when the flush is
    scheduled: a member whose deadline passes while it waits behind a
    computing flush is dropped, never solved on a stale budget."""
    entered = threading.Event()
    release = threading.Event()
    ran: list[int] = []

    def gated_runner(requests):
        ran.append(len(requests))
        entered.set()
        assert release.wait(5.0), "runner was never released"
        return [object()] * len(requests)

    async def scenario() -> int:
        batcher = MicroBatcher(gated_runner, window=0.0, max_batch=8)
        loop = asyncio.get_running_loop()
        first = loop.create_future()
        batcher.submit(point_request(4), first)
        assert await loop.run_in_executor(None, entered.wait, 5.0)
        late = loop.create_future()
        batcher.submit(point_request(5), late, time.monotonic() + 0.05)
        await asyncio.sleep(0.15)  # the deadline passes mid-computation
        release.set()
        await asyncio.wait_for(first, timeout=5.0)
        with pytest.raises(RequestExpiredError):
            await asyncio.wait_for(late, timeout=5.0)
        await batcher.close()
        return batcher.expired_requests

    assert asyncio.run(scenario()) == 1
    assert ran == [1]  # the late member never reached the runner


def test_batcher_respawns_worker_and_requeues_once():
    """A runner death is supervised: rebuild the worker, rerun, serve."""
    calls = {"n": 0}

    def dying_runner(requests):
        calls["n"] += 1
        if calls["n"] == 1:
            raise OSError("chaos: runner died")
        return [object()] * len(requests)

    async def scenario() -> list:
        batcher = MicroBatcher(dying_runner, window=0.001, max_batch=8)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        batcher.submit(point_request(4), future)
        result = await future
        await batcher.close()
        return [result, batcher.worker_respawns]

    result, respawns = asyncio.run(scenario())
    assert result is not None
    assert respawns == 1
    assert calls["n"] == 2


def test_batcher_double_death_relays_failure():
    def always_dying(requests):
        raise OSError("chaos: runner died again")

    async def scenario() -> None:
        batcher = MicroBatcher(always_dying, window=0.001, max_batch=8)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        batcher.submit(point_request(4), future)
        with pytest.raises(OSError):
            await future
        await batcher.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Deadlines end to end
# ----------------------------------------------------------------------


def test_generous_deadline_is_byte_identical():
    with start_in_thread(
        quiet_config(), engine=BatchSolver(EngineConfig())
    ) as handle:
        client = ServiceClient(*handle.address)
        request = point_request(6)
        remote = client.solve(request, deadline_ms=30_000)
        assert remote == solve(request)
        gate = handle.service.gate
        assert gate.in_use == 0


def test_blown_deadline_returns_structured_504():
    engine = BatchSolver(EngineConfig())
    with start_in_thread(quiet_config(), engine=engine) as handle:
        service = handle.service
        # Slow the flush runner down far past the budget.
        real = service._run_batch

        def slow_runner(requests):
            time.sleep(0.3)
            return real(requests)

        service.batcher._runner = slow_runner
        client = ServiceClient(*handle.address)
        with pytest.raises(DeadlineExceededError) as excinfo:
            client.solve(point_request(7), deadline_ms=50)
        assert excinfo.value.phase in ("wait", "batch", "engine")
        # Every admission token must come back despite the 504.
        deadline = time.monotonic() + 5.0
        while service.gate.in_use and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service.gate.in_use == 0
        # The daemon is still healthy for bounded-free requests.
        request = point_request(8)
        assert client.solve(request) == solve(request)


def test_batch_deadline_applies_to_envelope():
    engine = BatchSolver(EngineConfig())
    with start_in_thread(quiet_config(), engine=engine) as handle:
        service = handle.service
        real = service._run_batch

        def slow_runner(requests):
            time.sleep(0.3)
            return real(requests)

        service.batcher._runner = slow_runner
        client = ServiceClient(*handle.address)
        with pytest.raises(DeadlineExceededError):
            client.solve_many(
                [point_request(4), point_request(5)], deadline_ms=50
            )
        deadline = time.monotonic() + 5.0
        while service.gate.in_use and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service.gate.in_use == 0


def test_deadline_504_reported_on_metrics():
    engine = BatchSolver(EngineConfig())
    with start_in_thread(quiet_config(), engine=engine) as handle:
        service = handle.service
        service.batcher._runner = (
            lambda requests: (time.sleep(0.3), [None])[1] * len(requests)
        )
        client = ServiceClient(*handle.address)
        with pytest.raises(DeadlineExceededError):
            client.solve(point_request(9), deadline_ms=40)
        page = client.metrics()
        assert "repro_service_deadline_exceeded_total" in page
        phased = [
            line for line in page.splitlines()
            if line.startswith("repro_service_deadline_exceeded_total{")
            and not line.endswith(" 0")
        ]
        assert phased  # at least one phase bucket moved


def test_blown_deadline_solves_the_request_once():
    """A budget shorter than the solve bounds the client's wait, not the
    engine: the flush runs the solve to completion exactly once, and no
    abandoned duplicate keeps computing behind it."""
    slow = SolveRequest.square(900, (
        TrafficClass(0.30, 0.2),
        TrafficClass(0.15, 0.1, a=2),
        TrafficClass(0.10, 0.0, a=3),
    ))  # ~0.1 s alone on a 2-vCPU host
    engine = BatchSolver(EngineConfig())
    with start_in_thread(
        quiet_config(batch_window=0.0), engine=engine
    ) as handle:
        client = ServiceClient(*handle.address)
        with pytest.raises(DeadlineExceededError):
            client.solve(slow, deadline_ms=10)
        batcher = handle.service.batcher
        deadline = time.monotonic() + 10.0
        while batcher.busy and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not batcher.busy
        # Give any stray duplicate time to land before counting.
        settle = time.monotonic() + 1.0
        while engine.stats.solves <= 1 and time.monotonic() < settle:
            time.sleep(0.02)
        assert engine.stats.solves == 1


# ----------------------------------------------------------------------
# Slow loris and vanished clients
# ----------------------------------------------------------------------


_HEAD_STALL = b"POST /solve HTTP/1.1\r\n"
# A complete head promising 100 body bytes, then 10 of them and silence.
_BODY_STALL = (
    b"POST /solve HTTP/1.1\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: 100\r\n\r\n"
    + b"{" * 10
)


@pytest.mark.parametrize(
    "partial", [_HEAD_STALL, _BODY_STALL], ids=["head", "body"]
)
def test_slow_loris_is_cut_off_by_read_timeout(partial):
    with start_in_thread(
        quiet_config(read_timeout=0.2),
        engine=BatchSolver(EngineConfig()),
    ) as handle:
        injector = ServiceFaultInjector(
            ServiceFaultPlan.from_seed(11, stalls=1)
        )
        began = time.monotonic()
        sock = injector.stalled_socket(*handle.address, partial=partial)
        try:
            sock.settimeout(5.0)
            raw = b""
            while b"\r\n\r\n" not in raw:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                raw += chunk
            elapsed = time.monotonic() - began
            assert b"408" in raw.split(b"\r\n", 1)[0]
            assert elapsed < 3.0  # the bound, not the 30s client patience
        finally:
            sock.close()
        gate = handle.service.gate
        assert gate.in_use == 0
        assert gate.offered == 0  # never reached the gate
        # And the daemon still serves normal traffic afterwards.
        client = ServiceClient(*handle.address)
        request = point_request(5)
        assert client.solve(request) == solve(request)


def test_read_timeout_disabled_by_default_config_is_bounded():
    # The default config has a finite read timeout: a daemon with the
    # stock knobs cannot be pinned by a silent connection.
    assert ServiceConfig().read_timeout is not None
    assert ServiceConfig().read_timeout > 0


@pytest.mark.parametrize("path", ["/solve", "/batch"])
def test_disconnect_mid_request_leaks_no_tokens(path):
    engine = BatchSolver(EngineConfig())
    with start_in_thread(
        quiet_config(min_hold=0.05), engine=engine
    ) as handle:
        service = handle.service
        request = point_request(6)
        if path == "/solve":
            body = json.dumps({"request": request.to_dict()})
        else:
            body = json.dumps({
                "requests": [request.to_dict(),
                             point_request(7).to_dict()],
            })
        injector = ServiceFaultInjector(
            ServiceFaultPlan.from_seed(13, disconnects=3)
        )
        for _ in range(3):
            injector.disconnect_mid_request(
                *handle.address, body.encode("utf-8"), path=path
            )
        # The daemon finishes the work it admitted, fails the writes,
        # and releases every token.
        deadline = time.monotonic() + 10.0
        while service.gate.in_use and time.monotonic() < deadline:
            time.sleep(0.02)
        assert service.gate.in_use == 0
        assert service.gate.admitted == service.gate.released
        assert service.instruments._inflight_count == 0
        # Byte identity is unharmed for the next caller.
        client = ServiceClient(*handle.address)
        assert client.solve(request) == solve(request)


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------


def test_drain_completes_inflight_work_and_followers():
    engine = BatchSolver(EngineConfig())
    with start_in_thread(quiet_config(), engine=engine) as handle:
        service = handle.service
        real = service._run_batch
        release = threading.Event()

        def gated_runner(requests):
            release.wait(5.0)
            return real(requests)

        service.batcher._runner = gated_runner
        request = point_request(6)
        with ThreadPoolExecutor(max_workers=2) as pool:
            client = ServiceClient(*handle.address)
            leader = pool.submit(client.solve, request)
            follower = pool.submit(client.solve, request)
            # Wait until both are inside the daemon.
            deadline = time.monotonic() + 5.0
            while (
                service.instruments._inflight_count < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            drainer = pool.submit(handle.drain, 10.0)
            time.sleep(0.05)
            release.set()
            assert drainer.result(15.0) is True
            local = solve(request)
            assert leader.result(10.0) == local
            assert follower.result(10.0) == local
        assert service.gate.in_use == 0
        assert not service.batcher.busy
        assert len(service.flights) == 0


def test_drained_daemon_clears_new_work():
    engine = BatchSolver(EngineConfig())
    handle = start_in_thread(quiet_config(), engine=engine)
    try:
        client = ServiceClient(*handle.address)
        request = point_request(4)
        assert client.solve(request) == solve(request)
        assert handle.drain(5.0) is True
        # The listener is closed; new connections are refused outright.
        with pytest.raises((ConnectionError, OSError)):
            client.solve(request)
    finally:
        handle.stop()


def test_drain_times_out_on_wedged_engine():
    engine = BatchSolver(EngineConfig())
    with start_in_thread(quiet_config(), engine=engine) as handle:
        service = handle.service
        real = service._run_batch
        wedge = threading.Event()

        def wedged_runner(requests):
            wedge.wait(20.0)
            return real(requests)

        service.batcher._runner = wedged_runner
        client = ServiceClient(*handle.address, timeout=30.0)
        with ThreadPoolExecutor(max_workers=1) as pool:
            stuck = pool.submit(client.solve, point_request(5))
            deadline = time.monotonic() + 5.0
            while (
                service.instruments._inflight_count < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert handle.drain(0.3) is False  # honest about the wedge
            wedge.set()
            stuck.result(15.0)


# ----------------------------------------------------------------------
# SIGTERM end to end (subprocess)
# ----------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def spawn_daemon(tmp_path):
    """Start ``repro serve`` in a subprocess: ``spawn(port, *flags)``.

    stdout goes to ``/dev/null`` and stderr to a log file under
    ``tmp_path``, so nothing fills an unread pipe.  Teardown kills a
    daemon still running, closes its log and prints it (pytest shows
    a test's teardown output only when the test fails).
    """
    spawned: list[tuple[subprocess.Popen, object]] = []

    def spawn(port: int, *extra: str) -> subprocess.Popen:
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        log = open(tmp_path / f"daemon-{len(spawned)}.log", "wb")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", str(port), *extra],
            env=env,
            stdout=subprocess.DEVNULL, stderr=log,
        )
        spawned.append((proc, log))
        return proc

    yield spawn
    for proc, log in spawned:
        if proc.poll() is None:
            proc.kill()
            proc.wait(5.0)
        log.close()
        print(f"--- daemon stderr ({log.name}) ---")
        with open(log.name, encoding="utf-8", errors="replace") as text:
            print(text.read())


def _wait_healthy(port: int, timeout: float = 20.0) -> ServiceClient:
    client = ServiceClient("127.0.0.1", port, timeout=10.0)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            client.health()
            return client
        except OSError:
            time.sleep(0.05)
    raise RuntimeError("daemon did not come up")


@pytest.mark.slow
def test_sigterm_drains_inflight_then_exits(spawn_daemon):
    port = _free_port()
    proc = spawn_daemon(port, "--min-hold", "0.5")
    client = _wait_healthy(port)
    request = point_request(5)
    with ThreadPoolExecutor(max_workers=1) as pool:
        inflight = pool.submit(client.solve, request)
        time.sleep(0.15)  # let it pass admission and start holding
        proc.send_signal(signal.SIGTERM)
        # The admitted request completes despite the signal.
        assert inflight.result(15.0) == solve(request)
    assert proc.wait(15.0) == 0


@pytest.mark.slow
def test_fleet_sigterm_drains_inflight_then_exits(spawn_daemon):
    """The fleet keeps the single daemon's drain contract: a /solve
    admitted through the router before SIGTERM is answered, then the
    supervisor and its workers exit cleanly."""
    port = _free_port()
    proc = spawn_daemon(port, "--workers", "2", "--min-hold", "0.5")
    client = _wait_healthy(port)
    request = point_request(5)
    with ThreadPoolExecutor(max_workers=1) as pool:
        inflight = pool.submit(client.solve, request)
        time.sleep(0.15)  # let it pass admission and start holding
        proc.send_signal(signal.SIGTERM)
        served = inflight.result(15.0)
    expected = solve(request)
    assert served == expected
    assert [x.hex() for x in served.blocking] == [
        x.hex() for x in expected.blocking
    ]
    assert proc.wait(15.0) == 0


@pytest.mark.slow
def test_second_sigterm_forces_exit(spawn_daemon):
    port = _free_port()
    # A huge min-hold wedges the drain; only the second signal exits.
    proc = spawn_daemon(
        port, "--min-hold", "30", "--drain-timeout", "60"
    )
    client = _wait_healthy(port)
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(
            lambda: ServiceClient(
                "127.0.0.1", port, timeout=5.0
            ).solve(point_request(4))
        )
        time.sleep(0.3)
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.5)
        assert proc.poll() is None  # still draining the 30s hold
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(15.0) is not None

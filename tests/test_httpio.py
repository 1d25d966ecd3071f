"""The socket bounds of :mod:`repro.service.httpio`.

Driven against a real ``asyncio.start_server`` socket on loopback:

* a peer that never reads a large reply is cut off by the write
  timeout with :class:`SlowClientError`;
* a reply the kernel takes whole arms no timer and creates no task --
  the bound costs nothing when there is nothing to wait for;
* a reply written to a lost connection still raises;
* a :class:`ReadDeadline` bounds each framing phase from its own
  start (a slow head followed by a slow body is served), turns a stall
  into a 408, and leaves a cancellation from elsewhere a cancellation.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import struct
import time

import pytest

from repro.service.httpio import (
    HttpError,
    ReadDeadline,
    SlowClientError,
    read_request,
    write_response,
)

pytestmark = pytest.mark.service  # real sockets and clocks


@contextlib.asynccontextmanager
async def connected_pair():
    """Yield ``(client_reader, client_writer, server_writer,
    server_reader)`` over loopback."""
    accepted: asyncio.Future = asyncio.get_running_loop().create_future()

    async def on_connect(reader, writer):
        accepted.set_result((writer, reader))

    server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    client_reader, client_writer = await asyncio.open_connection(
        "127.0.0.1", port
    )
    server_writer, server_reader = await accepted
    try:
        yield client_reader, client_writer, server_writer, server_reader
    finally:
        server_writer.transport.abort()
        client_writer.transport.abort()
        server.close()
        await server.wait_closed()


async def read_reply(reader: asyncio.StreamReader) -> tuple[bytes, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    length = next(
        int(line.split(b":", 1)[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    return head, await reader.readexactly(length)


def test_peer_that_never_reads_raises_slow_client_error():
    body = b"x" * (8 * 1024 * 1024)

    async def scenario() -> float:
        async with connected_pair() as (
            _reader, client_writer, server_writer, _sr
        ):
            # Keep the peer's receive window small so the reply cannot
            # vanish into kernel buffers.
            client_writer.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, 4096
            )
            began = time.monotonic()
            with pytest.raises(SlowClientError):
                await write_response(server_writer, 200, body, timeout=0.2)
            return time.monotonic() - began

    elapsed = asyncio.run(scenario())
    assert 0.2 <= elapsed < 2.0


def test_reply_taken_whole_arms_no_timer_and_creates_no_task():
    body = b"y" * 1024

    async def scenario() -> tuple[int, int, bytes, bytes]:
        loop = asyncio.get_running_loop()
        async with connected_pair() as (
            client_reader, _cw, server_writer, _sr
        ):
            timers = tasks = 0
            real_call_at = loop.call_at

            def counting_call_at(*args, **kwargs):
                nonlocal timers
                timers += 1
                return real_call_at(*args, **kwargs)

            def counting_factory(loop, coro, **kwargs):
                nonlocal tasks
                tasks += 1
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.call_at = counting_call_at
            loop.set_task_factory(counting_factory)
            try:
                await write_response(
                    server_writer, 200, body, timeout=5.0, close=False
                )
            finally:
                loop.set_task_factory(None)
                del loop.call_at
            head, got = await read_reply(client_reader)
            return timers, tasks, head, got

    timers, tasks, head, got = asyncio.run(scenario())
    assert (timers, tasks) == (0, 0)
    assert head.startswith(b"HTTP/1.1 200 OK\r\n")
    assert b"Connection: keep-alive\r\n" in head
    assert got == body


def test_write_to_lost_connection_still_raises():
    async def scenario() -> None:
        async with connected_pair() as (
            _reader, client_writer, server_writer, _sr
        ):
            # Reset (RST), not FIN: the server side sees a lost
            # connection rather than a half-close.
            client_writer.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            client_writer.transport.abort()
            for _ in range(100):
                if server_writer.transport.is_closing():
                    break
                await asyncio.sleep(0.01)
            with pytest.raises(ConnectionError):
                await write_response(server_writer, 200, b"z", timeout=5.0)

    asyncio.run(scenario())


def read_fed(chunks: list[tuple[bytes, float]], timeout: float):
    """``read_request`` under a ``ReadDeadline(timeout)`` while a peer
    sends each chunk and then pauses; returns (outcome, seconds)."""

    async def scenario():
        loop = asyncio.get_running_loop()
        async with connected_pair() as (_cr, client_writer, _sw, reader):
            async def feed() -> None:
                for chunk, pause in chunks:
                    client_writer.write(chunk)
                    await asyncio.sleep(pause)

            feeder = loop.create_task(feed())
            deadline = ReadDeadline(timeout)
            began = loop.time()
            try:
                outcome = await read_request(reader, deadline=deadline)
            except HttpError as exc:
                outcome = exc
            finally:
                deadline.close()
                feeder.cancel()
            return outcome, loop.time() - began

    return asyncio.run(scenario())


def test_read_bound_is_per_phase_not_per_request():
    # Head and body each take 0.6 x timeout: 1.2 x timeout in all.
    http, elapsed = read_fed([
        (b"POST /solve HTTP/1.1\r\n", 0.3),
        (b"Content-Length: 4\r\n\r\nab", 0.3),
        (b"cd", 0.0),
    ], timeout=0.5)
    assert not isinstance(http, HttpError), http
    assert (http.method, http.path, http.body) == ("POST", "/solve", b"abcd")
    assert elapsed >= 0.55


@pytest.mark.parametrize("what", ["head", "body"])
def test_read_stall_is_a_408_within_the_bound(what):
    stalled = (
        b"POST /solve HTTP/1.1\r\n" if what == "head"
        else b"POST /solve HTTP/1.1\r\nContent-Length: 10\r\n\r\nab"
    )
    error, elapsed = read_fed([(stalled, 5.0)], timeout=0.2)
    assert isinstance(error, HttpError) and error.status == 408
    assert f"request {what}" in str(error)
    assert 0.15 <= elapsed < 1.0


def test_read_deadline_leaves_an_outside_cancel_a_cancel():
    async def scenario() -> bool:
        async with connected_pair() as (_cr, _cw, _sw, reader):
            async def reading() -> None:
                deadline = ReadDeadline(5.0)
                try:
                    await read_request(reader, deadline=deadline)
                finally:
                    deadline.close()

            task = asyncio.get_running_loop().create_task(reading())
            await asyncio.sleep(0.05)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return task.cancelled()

    assert asyncio.run(scenario())

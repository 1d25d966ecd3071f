"""The framing floor: ``httpio`` with a null handler.

Serves every request with a constant body the size of a hot ``/solve``
reply, through the same :func:`repro.service.httpio.read_request` /
:func:`~repro.service.httpio.write_response` framing the daemon uses
and nothing else -- no gate, coalescer, batcher, engine or encoder.
Driven by the same two-connection client, its latency and rate bound
what ``hot-solve`` can reach on this machine.

Usage: ``PYTHONPATH=src python benchmarks/layers/null_server.py PORT BYTES``
"""

from __future__ import annotations

import asyncio
import signal
import sys

__all__ = ["serve"]


async def serve(port: int, body: bytes) -> None:
    from repro.service.httpio import read_request, write_response

    async def handle(reader, writer) -> None:
        try:
            while (http := await read_request(reader)) is not None:
                status = 200 if http.path in ("/solve", "/healthz") else 404
                await write_response(writer, status, body, close=False)
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    async with server:
        await stop.wait()


if __name__ == "__main__":
    asyncio.run(serve(int(sys.argv[1]), b"x" * int(sys.argv[2])))

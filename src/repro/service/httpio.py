"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

Just enough of RFC 9112 for a JSON point-to-point API: request-line +
headers + ``Content-Length`` bodies in, status + headers + body out.
No chunked encoding, no pipelining.  Connections persist by default
(HTTP/1.1 keep-alive: the server loops ``read_request`` /
``write_response`` until either side closes); pass ``close=True`` to
``write_response`` to advertise ``Connection: close`` and end the
exchange.  Deliberately boring framing so the interesting parts of the
daemon (admission, coalescing, batching) stay testable.

Timeouts
--------
Both directions are clock-bounded so a misbehaving peer cannot pin a
connection open.  Each bound is an ``asyncio.timeout`` on the calling
task — one timer handle, no extra task and no extra event-loop turn:

* **reads** — ``read_request(..., timeout=...)`` caps the wall-clock
  spent waiting for the request head and, separately, for the body.
  A peer that trickles bytes (slow loris) or stalls after the header
  gets a :class:`HttpError` with status 408 and the connection is
  closed; the request never reaches the admission gate, so it holds
  no tokens.
* **writes** — ``write_response(..., timeout=...)`` caps the flush,
  but only when the kernel did not take the whole reply at once.  A
  reply that left nothing in the transport buffer has nothing to wait
  for, so it arms no timer.  A client that stops reading a buffered
  reply raises :class:`SlowClientError` (an ``OSError``); the caller
  treats it as a disconnect and aborts the transport rather than
  waiting on a full kernel buffer.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from ..exceptions import ConfigurationError

__all__ = [
    "HttpError",
    "HttpRequest",
    "SlowClientError",
    "read_request",
    "write_response",
]

#: Hard header-section cap; a peer sending more is not speaking our
#: dialect of HTTP.
MAX_HEADER_BYTES = 16 * 1024

#: Default request-body cap (a batch of a few thousand requests).
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(ConfigurationError):
    """A malformed, oversized or stalled HTTP request (maps to a 4xx)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class SlowClientError(OSError):
    """The peer stopped reading its reply before the write timeout."""


@dataclass
class HttpRequest:
    """One parsed request: method, path (query split off), headers, body."""

    method: str
    path: str
    query: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""


async def _read_bounded(awaitable, timeout: float | None, what: str):
    """Await a read, converting a stall into a 408 :class:`HttpError`."""
    if timeout is None or timeout <= 0:
        return await awaitable
    try:
        async with asyncio.timeout(timeout):
            return await awaitable
    except TimeoutError as exc:
        raise HttpError(
            408, f"timed out after {timeout:.3g}s reading the {what}"
        ) from exc


async def read_request(
    reader: asyncio.StreamReader,
    max_body: int = MAX_BODY_BYTES,
    timeout: float | None = None,
) -> HttpRequest | None:
    """Parse one request; None on a clean EOF before any bytes.

    ``timeout`` bounds each framing phase (head, then body)
    independently: a connection that goes quiet — or trickles bytes
    slower than a whole section per window — raises
    ``HttpError(408)``.  ``None`` (or ``0``) disables the bound.
    """
    try:
        head = await _read_bounded(
            reader.readuntil(b"\r\n\r\n"), timeout, "request head"
        )
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(413, "request head too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    path, _, query = target.partition("?")

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError as exc:
            raise HttpError(400, "bad Content-Length") from exc
        if length < 0 or length > max_body:
            raise HttpError(413, f"body of {length} bytes exceeds the cap")
        if length:
            try:
                body = await _read_bounded(
                    reader.readexactly(length), timeout, "request body"
                )
            except asyncio.IncompleteReadError as exc:
                raise HttpError(400, "truncated request body") from exc
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")

    return HttpRequest(
        method=method.upper(), path=path, query=query,
        headers=headers, body=body,
    )


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
    timeout: float | None = None,
    close: bool = True,
) -> None:
    """Serialize one response and flush it (connection stays ours).

    ``timeout`` bounds the flush when the kernel did not take the
    whole reply; a peer that stops draining its receive buffer raises
    :class:`SlowClientError` so the caller can abort the transport
    instead of blocking on it.  ``close=False`` advertises
    ``Connection: keep-alive`` so the peer may reuse the connection
    for its next request.
    """
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    writer.write(head + body)
    if (
        timeout is None or timeout <= 0
        or writer.transport.get_write_buffer_size() == 0
    ):
        # Nothing left buffered: this drain cannot block, and it still
        # raises if the connection was lost.
        await writer.drain()
        return
    try:
        async with asyncio.timeout(timeout):
            await writer.drain()
    except TimeoutError as exc:
        raise SlowClientError(
            f"client did not drain the reply within {timeout:.3g}s"
        ) from exc

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
connection open, and neither bound creates a task or an extra
event-loop turn:

* **reads** — a :class:`ReadDeadline` passed to ``read_request(...,
  deadline=...)`` caps the wall-clock spent waiting for the request
  head and, separately, for the body: each phase must finish within
  ``timeout`` seconds of its own start.  A peer that trickles bytes
  (slow loris) or stalls after the header gets a :class:`HttpError`
  with status 408 and the connection is closed; the request never
  reaches the admission gate, so it holds no tokens.  One deadline
  serves a whole keep-alive connection with a single timer: a phase
  only stamps its start, and the timer is re-armed when it fires, so
  a connection of short exchanges arms about one timer per
  ``timeout`` window instead of two per request.
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
    "ReadDeadline",
    "SlowClientError",
    "read_deadline",
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


class ReadDeadline:
    """One connection's read bound: a single timer, re-armed lazily.

    Each framing phase (:meth:`read`) must complete within ``timeout``
    seconds of its own start.  A phase only stamps its start time; the
    timer is armed when none is pending, and when it fires it either
    finds the current phase overdue (cancels the connection task, which
    :meth:`read` turns into a 408 the way ``asyncio.timeout`` turns its
    cancellation into ``TimeoutError``), re-arms for the current
    phase's own deadline, or — between phases — lets the next phase arm
    it.  Build it on the task that reads; :meth:`close` when the
    connection ends.
    """

    __slots__ = ("timeout", "_loop", "_task", "_handle", "_when",
                 "_started", "_cancelling", "_expired")

    def __init__(self, timeout: float) -> None:
        self.timeout = timeout
        self._loop = asyncio.get_running_loop()
        self._task = asyncio.current_task()
        self._handle: asyncio.TimerHandle | None = None
        self._when = 0.0
        #: Start of the phase being read; None between phases.
        self._started: float | None = None
        self._cancelling = 0
        self._expired = False

    async def read(self, awaitable, what: str):
        """Await one framing phase, converting a stall into a 408."""
        started = self._started = self._loop.time()
        if self._handle is None:
            self._arm(started + self.timeout)
        self._cancelling = self._task.cancelling()
        try:
            return await awaitable
        except asyncio.CancelledError:
            if self._expired:
                self._expired = False
                if self._task.uncancel() <= self._cancelling:
                    raise HttpError(
                        408,
                        f"timed out after {self.timeout:.3g}s reading "
                        f"the {what}",
                    ) from None
            raise
        finally:
            self._started = None

    def close(self) -> None:
        """Disarm the timer (the connection is done reading)."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _arm(self, when: float) -> None:
        self._when = when
        self._handle = self._loop.call_at(when, self._fire)

    def _fire(self) -> None:
        self._handle = None
        if self._started is None:
            return
        due = self._started + self.timeout
        if due <= self._when:
            self._expired = True
            self._task.cancel()
        else:
            self._arm(due)


def read_deadline(timeout: float | None) -> ReadDeadline | None:
    """The calling connection task's read deadline; None when
    ``timeout`` is None or not positive (reads unbounded)."""
    if timeout is None or timeout <= 0:
        return None
    return ReadDeadline(timeout)


def _bounded(awaitable, deadline: ReadDeadline | None, what: str):
    """``awaitable``, under ``deadline`` when there is one."""
    return awaitable if deadline is None else deadline.read(awaitable, what)


async def read_request(
    reader: asyncio.StreamReader,
    max_body: int = MAX_BODY_BYTES,
    deadline: ReadDeadline | None = None,
) -> HttpRequest | None:
    """Parse one request; None on a clean EOF before any bytes.

    ``deadline`` bounds each framing phase (head, then body)
    independently: a connection that goes quiet — or trickles bytes
    slower than a whole section per window — raises
    ``HttpError(408)``.  ``None`` reads without a bound.
    """
    try:
        head = await _bounded(
            reader.readuntil(b"\r\n\r\n"), deadline, "request head"
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
                body = await _bounded(
                    reader.readexactly(length), deadline, "request body"
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

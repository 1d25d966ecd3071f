"""Micro-batching: requests queued together become one engine batch.

Pending requests are flushed as a single
:meth:`~repro.engine.BatchSolver.evaluate_many` call, so wire-level
traffic inherits the engine's batch economics: size sweeps collapse onto
one shared Algorithm 1 Q-grid, repeated keys are solved once, and every
flush produces one :class:`~repro.engine.BatchMetrics`.

At most one flush is in flight (the engine is thread-safe, but
serializing flushes keeps its metrics attribution exact), and the
batcher waits only when there is a reason to:

* **Idle batcher** — the first ``submit`` arms a flush ``window``
  seconds out.  With the default window of 0 it fires on the next loop
  turn, so every request submitted in the same turn shares the flush
  and nothing waits on a timer.  A ``/batch`` hands its leading
  members over in one :meth:`MicroBatcher.submit_many` entry: one
  future for all of them, resolved once with their results.
* **Busy batcher** — while a flush computes, submits only accumulate;
  its completion re-arms the flush for everything pending.  Under load
  the batches grow on their own, one flush at a time.

A positive ``window`` adds that fixed hold before each flush, and an
idle batcher flushes at once when ``max_batch`` requests are pending.

Where a flush runs
------------------
A runner may carry a ``short(requests) -> bool`` attribute.  When it
says a batch is short, the flush runs inside its ``_flush`` task on the
event loop; every other flush — and every flush of a runner that
declares nothing — runs on one dedicated worker thread.  The thread
earns its hop only for long flushes.  The interpreter hands the GIL
between threads every switch interval (``sys.getswitchinterval()``,
5 ms), so while a flush shorter than that computes on the worker the
loop gets no turn it would not get anyway once the flush is done.  A
longer flush on the worker leaves the loop answering health checks and
cache hits meanwhile.  The worker executor is created when a long
flush first needs it: a daemon that never sees one starts no thread.

Resilience
----------
* **Deadlines** — ``submit`` accepts an absolute ``deadline``
  (``time.monotonic()`` instant).  Expiry is judged the moment the
  runner starts: a member whose deadline has passed by then (including
  one that waited behind a computing flush) is dropped — its future
  resolves with :class:`RequestExpiredError` instead of occupying a
  batch slot.  A runner that has started runs to completion: a solve
  is never abandoned midway (the waiting handler's own bounded await
  answers the client).
* **Runner supervision** — a flush whose runner dies with an
  infrastructure error (not a solver error: the engine runs non-strict
  and returns :class:`~repro.engine.FailedResult` envelopes for those)
  is rerun once, minus the members already answered, before the
  failure is relayed to callers.  On the worker path the worker
  executor is rebuilt for the rerun.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, NamedTuple

from ..api import SolveRequest
from ..exceptions import ComputationError

__all__ = ["MicroBatcher", "BatcherClosedError", "RequestExpiredError"]


class BatcherClosedError(ComputationError):
    """The service is shutting down; the request was not evaluated."""


class RequestExpiredError(ComputationError):
    """The request's deadline passed before its runner started."""


class _Member(NamedTuple):
    """One queue entry: a ``submit`` or a ``submit_many``."""

    requests: list[SolveRequest]
    #: Resolves with the one result (``submit``) or the list of them.
    future: asyncio.Future
    #: Absolute ``time.monotonic()`` deadline, or None (unbounded).
    deadline: float | None
    #: ``time.monotonic()`` at ``submit``.
    queued_at: float
    #: Whether ``future`` takes the list (``submit_many``).
    many: bool


class MicroBatcher:
    """Queues ``(request, future, deadline)`` entries and flushes them
    together, one flush at a time.  ``max_batch`` and ``queue_depth``
    count requests, not entries.

    ``runner`` maps a list of requests to their results.  It may carry
    a ``short(requests) -> bool`` attribute, asked on the loop before
    each flush: a short batch runs on the loop, anything else on the
    worker thread (see the module docstring).
    """

    def __init__(
        self,
        runner: Callable[[list[SolveRequest]], list[Any]],
        *,
        window: float = 0.0,
        max_batch: int = 256,
        observer: Callable[[int, float], None] | None = None,
        wait_observer: Callable[[float], None] | None = None,
    ) -> None:
        #: The flush runner; read per flush, as is its ``short``.
        self._runner = runner
        self.window = max(0.0, float(window))
        self.max_batch = max(1, int(max_batch))
        self._observer = observer
        #: Called per served member with its queue wait in seconds
        #: (``submit`` to its runner starting).
        self._wait_observer = wait_observer
        self._pending: list[_Member] = []
        #: Requests in ``_pending``.
        self._pending_requests = 0
        self._timer: asyncio.TimerHandle | None = None
        self._flushing: asyncio.Task | None = None
        self._flush_began: float | None = None
        #: The worker thread, started by the first long flush.
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False
        self.flush_count = 0
        #: Served flushes that ran on the event loop.
        self.loop_flushes = 0
        self.batched_requests = 0
        #: Members dropped at runner start because their deadline passed.
        self.expired_requests = 0
        #: Times the worker executor was rebuilt after a runner death.
        self.worker_respawns = 0

    def _worker(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-service-flush"
            )
        return self._executor

    # ------------------------------------------------------------------

    def submit(
        self,
        request: SolveRequest,
        future: asyncio.Future,
        deadline: float | None = None,
    ) -> None:
        """Queue one request; ``future`` resolves with its result.

        ``deadline`` is an absolute ``time.monotonic()`` instant; a
        member whose deadline has passed when its runner starts is
        dropped (future resolves with :class:`RequestExpiredError`).

        A terminally failing request resolves its future with the
        engine's :class:`~repro.engine.FailedResult` envelope (the
        engine runs non-strict); only infrastructure errors — the
        runner itself raising, twice — surface as future exceptions.
        """
        self._queue(_Member([request], future, deadline, time.monotonic(),
                            False))

    def submit_many(
        self,
        requests: list[SolveRequest],
        future: asyncio.Future,
        deadline: float | None = None,
    ) -> None:
        """Queue several requests as one entry: ``future`` resolves with
        their results, in order, in one step.

        The requests share the deadline and ride in the same flush; a
        ``/batch`` submits its leading members this way, so the loop
        wakes once for them, not once per member.  Otherwise as
        :meth:`submit`.
        """
        self._queue(_Member(requests, future, deadline, time.monotonic(),
                            True))

    def _queue(self, member: _Member) -> None:
        if self._closed:
            member.future.set_exception(
                BatcherClosedError("service is shutting down")
            )
            return
        self._pending.append(member)
        self._pending_requests += len(member.requests)
        self._arm()

    def _arm(self) -> None:
        """Schedule a flush of the queue unless one is computing.

        A computing flush re-arms on completion, so submits made
        meanwhile only accumulate.  An idle batcher flushes ``window``
        seconds after the first submit, or at once when ``max_batch``
        requests are pending.
        """
        if self._closed or self._flushing is not None or not self._pending:
            return
        if self._pending_requests >= self.max_batch:
            self._start_flush()
        elif self._timer is None:
            self._timer = asyncio.get_running_loop().call_later(
                self.window, self._start_flush
            )

    def flush_pending(self) -> None:
        """Flush the queue right now, skipping the window (drain path).

        While a flush computes this does nothing: that flush's
        completion re-arms the queue.
        """
        self._start_flush()

    @property
    def busy(self) -> bool:
        """Whether any request is queued or a flush is computing."""
        return bool(self._pending or self._flushing)

    @property
    def queue_depth(self) -> int:
        """Requests waiting for the next flush (pressure signal)."""
        return self._pending_requests

    @property
    def worker_lag(self) -> float:
        """Age in seconds of the in-flight flush (0.0 if idle).

        The brownout controller reads this as the batch-worker lag: a
        flush that has been computing for a long time means requests
        are piling up behind a slow (or wedged) engine.
        """
        if self._flush_began is None:
            return 0.0
        return time.monotonic() - self._flush_began

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _start_flush(self) -> None:
        self._cancel_timer()
        if self._flushing is not None or not self._pending:
            return
        # Whole entries up to max_batch requests (at least one entry:
        # a larger submit_many is never split).
        taken = size = 0
        for member in self._pending:
            if taken and size + len(member.requests) > self.max_batch:
                break
            taken += 1
            size += len(member.requests)
        batch = self._pending[:taken]
        del self._pending[:taken]
        self._pending_requests -= size
        self._flush_began = time.monotonic()
        self._flushing = asyncio.get_running_loop().create_task(
            self._flush(batch)
        )
        self._flushing.add_done_callback(self._flush_done)

    def _flush_done(self, _task: asyncio.Task) -> None:
        self._flushing = None
        self._flush_began = None
        self._arm()

    # ------------------------------------------------------------------

    def _run(
        self, batch: list[_Member], loop: asyncio.AbstractEventLoop | None
    ) -> tuple[list[_Member], list[Any], float]:
        """Expire, then run: on the worker thread, handing expiry to
        ``loop``, or on the loop itself (``loop`` None), expiring at
        once so that a rerun sees those members answered.

        Expiry is judged here, when the runner starts.  Returns the
        members served, their results and the runner's start instant.
        """
        now = time.monotonic()
        live: list[_Member] = []
        expired: list[_Member] = []
        for member in batch:
            if member.deadline is not None and now >= member.deadline:
                expired.append(member)
            else:
                live.append(member)
        if expired:
            if loop is None:
                self._expire(expired)
            else:
                loop.call_soon_threadsafe(self._expire, expired)
        if not live:
            return live, [], now
        requests = [r for member in live for r in member.requests]
        return live, self._runner(requests), now

    def _expire(self, members: list[_Member]) -> None:
        self.expired_requests += len(members)
        for member in members:
            if not member.future.done():
                member.future.set_exception(
                    RequestExpiredError(
                        "deadline passed before the batch runner started"
                    )
                )

    async def _flush(self, batch: list[_Member]) -> None:
        loop = asyncio.get_running_loop()
        began = time.perf_counter()
        short = getattr(self._runner, "short", None)
        on_loop = short is not None and short(
            [r for member in batch for r in member.requests]
        )
        try:
            served, results, started = await self._attempt(
                batch, loop, on_loop
            )
        except asyncio.CancelledError:  # pragma: no cover - loop teardown
            raise
        except BaseException as first:  # noqa: BLE001 - supervised below
            # The runner itself died (infrastructure, not a solver
            # error).  Supervise: rerun this batch once — minus members
            # already answered (expired at the first start) and, off the
            # loop, on a rebuilt worker executor — before giving up.
            if self._closed:
                self._relay_failure(batch, first)
                return
            if not on_loop:
                self._respawn_executor()
            batch = [member for member in batch if not member.future.done()]
            try:
                served, results, started = await self._attempt(
                    batch, loop, on_loop
                )
            except asyncio.CancelledError:  # pragma: no cover
                raise
            except BaseException as second:  # noqa: BLE001 - relayed
                self._relay_failure(batch, second)
                return
        if not served:
            return
        self.flush_count += 1
        self.batched_requests += len(results)
        if on_loop:
            self.loop_flushes += 1
        if self._observer is not None:
            self._observer(len(results), time.perf_counter() - began)
        at = 0
        for member in served:
            count = len(member.requests)
            if self._wait_observer is not None:
                waited = started - member.queued_at
                for _ in range(count):
                    self._wait_observer(waited)
            if not member.future.done():
                member.future.set_result(
                    results[at:at + count] if member.many else results[at]
                )
            at += count

    async def _attempt(
        self,
        batch: list[_Member],
        loop: asyncio.AbstractEventLoop,
        on_loop: bool,
    ) -> tuple[list[_Member], list[Any], float]:
        """One run of ``batch``: here, or on the worker thread."""
        if on_loop:
            return self._run(batch, None)
        return await loop.run_in_executor(
            self._worker(), self._run, batch, loop
        )

    def _respawn_executor(self) -> None:
        self.worker_respawns += 1
        old, self._executor = self._executor, None
        if old is not None:
            old.shutdown(wait=False)

    @staticmethod
    def _relay_failure(batch: list[_Member], exc: BaseException) -> None:
        for member in batch:
            if not member.future.done():
                member.future.set_exception(exc)

    # ------------------------------------------------------------------

    async def close(self) -> None:
        """Stop accepting work, fail the queue, drain the in-flight flush."""
        self._closed = True
        self._cancel_timer()
        pending, self._pending = self._pending, []
        self._pending_requests = 0
        for member in pending:
            if not member.future.done():
                member.future.set_exception(
                    BatcherClosedError("service is shutting down")
                )
        if self._flushing is not None:
            await asyncio.gather(self._flushing, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=False)

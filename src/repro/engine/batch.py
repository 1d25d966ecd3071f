"""The batched evaluation engine: memoized, grid-sharing, parallel,
fault-tolerant.

:class:`BatchSolver` is the execution layer behind the unified solve
API (:mod:`repro.api`).  It exploits three structural facts about the
model:

1. **Memoization** — requests canonicalize into exact cache keys
   (:mod:`repro.engine.keys`), so identical models are never solved
   twice.  An LRU holds :class:`~repro.api.SolveResult` records (plus a
   smaller memo of full solution objects); an optional
   :class:`~repro.engine.cache.DiskCache` persists results as JSON.
2. **Q-grid reuse** — Algorithm 1 computes the normalization grid
   ``Q(n)`` *for every sub-dimension* ``n <= N`` in one ``O(N1 N2 R)``
   pass, and every measure is a ratio read ``G(N - a_r 1_i)/G(N)`` off
   that grid.  A size sweep therefore needs **one** solve at the
   largest requested dimensions, not one per point;
   :meth:`BatchSolver.evaluate_many` groups batch members that share a
   traffic mix and grid method and serves the whole group from the
   single big grid.  The sub-dimension reads are bit-for-bit identical
   to individual solves (the recurrence at cell ``(m1, m2)`` never
   looks at cells beyond it).
3. **Independence** — cache-miss requests that cannot share a grid are
   embarrassingly parallel; large miss batches fan out over a
   ``ProcessPoolExecutor`` with deterministic (request-order) results.

Fault tolerance
---------------
Long batches must survive partial failure the way the paper's crossbar
survives a blocked call: fail one request, never the fabric.  The
supervision layer (on by default; disable with
``EngineConfig(max_retries=0)`` and no deadline/hedging/chaos) adds:

* **retry with exponential backoff + deterministic jitter** for
  transient failures (``OSError``; jitter is a pure function of the
  cache key and attempt number, so runs are reproducible);
* **per-task deadlines** — an attempt exceeding
  ``EngineConfig.task_deadline`` seconds is abandoned (recorded as a
  ``timeout`` attempt) and retried;
* **worker-crash recovery** — a dead pool worker breaks the whole
  ``ProcessPoolExecutor``; the supervisor respawns the pool and
  requeues *only* the lost tasks (completed results are kept, and
  requeues do not consume the retry budget);
* **hedged duplicates** — with ``hedge_after`` set, a straggling task
  gets a duplicate attempt; the first to finish wins (results are
  identical either way — solves are pure);
* **a terminal per-request** :class:`FailedResult` — a request that
  exhausts its retries comes back as a structured error envelope with
  the full attempt trail instead of poisoning the batch.  Callers that
  want the old throwing behavior pass ``strict=True`` (or set
  ``EngineConfig(strict_batch=True)``).

Every batch records a :class:`BatchMetrics` (timings, hit counts, grid
reuse, retries/timeouts/hedges/losses and the cache circuit-breaker
state) surfaced through :mod:`repro.logging` and kept on
``engine.last_metrics``; cumulative counters live on ``engine.stats``.
Deterministic fault injection for all of the above lives in
:mod:`repro.engine.chaos`.
"""

from __future__ import annotations

import logging
import math
import os
import threading
import time
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from ..api import SolveRequest, SolveResult
from ..core.measures import PerformanceSolution
from ..exceptions import ComputationError, ConfigurationError, CrossbarError
from ..logging import get_logger, kv
from ..methods import SolveMethod
from .breaker import CircuitBreaker
from .cache import DiskCache, LRUCache
from .chaos import CacheFaultInjector, FaultPlan
from .keys import canonical_order, class_params, key_digest

__all__ = [
    "BatchMetrics",
    "BatchSolver",
    "EngineConfig",
    "EngineStats",
    "FailedResult",
    "TaskAttempt",
    "TaskDeadlineError",
    "get_default_engine",
    "set_default_engine",
    "reset_default_engine",
]

logger = get_logger("engine.batch")

#: Environment variable enabling the on-disk result cache by default.
CACHE_DIR_ENV = "REPRO_ENGINE_CACHE_DIR"


class TaskDeadlineError(ComputationError):
    """A supervised task attempt exceeded its wall-clock deadline."""


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of a :class:`BatchSolver`."""

    #: Capacity of the scalar-result LRU.
    lru_size: int = 4096
    #: Capacity of the (heavier) full-solution memo.
    solution_lru_size: int = 128
    #: Directory for the persistent JSON cache; None disables it.
    disk_cache: str | Path | None = None
    #: Raise on corrupt/stale disk entries instead of quarantining.
    strict_cache: bool = False
    #: Worker processes for parallel batches (None: one per CPU).
    processes: int | None = None
    #: Minimum number of non-shareable cache misses in one batch before
    #: a process pool is worth its start-up cost.
    parallel_threshold: int = 8
    #: Requests per pool task; None picks a chunk that gives each
    #: worker a few tasks.  (Only the unsupervised fan-out chunks;
    #: supervision needs per-task granularity.)
    chunk_size: int | None = None

    # --- resilience ------------------------------------------------------
    #: Retries per request for transient failures (timeouts, ``OSError``,
    #: lost workers beyond the free requeue).  0 disables supervision's
    #: retry loop.
    max_retries: int = 2
    #: Wall-clock seconds one task attempt may run before it is
    #: abandoned and retried; None disables deadlines.
    task_deadline: float | None = None
    #: Base of the exponential retry backoff (seconds).
    retry_backoff: float = 0.05
    #: Ceiling of one backoff sleep (seconds).
    backoff_cap: float = 2.0
    #: Launch a duplicate of a still-running task after this many
    #: seconds (parallel batches only); None disables hedging.
    hedge_after: float | None = None
    #: Re-raise the first terminal failure instead of returning a
    #: :class:`FailedResult` for it (the pre-resilience behavior).
    strict_batch: bool = False
    #: Consecutive disk-cache I/O failures before the cache circuit
    #: breaker trips and the engine goes memory-only.
    breaker_threshold: int = 5
    #: Seconds an open breaker waits before letting a probe through.
    breaker_cooldown: float = 30.0
    #: Deterministic fault plan for chaos testing (see
    #: :mod:`repro.engine.chaos`); None in production.
    chaos: FaultPlan | None = None

    @property
    def supervised(self) -> bool:
        """Whether batches run under the fault-tolerance supervisor."""
        return (
            self.max_retries > 0
            or self.task_deadline is not None
            or self.hedge_after is not None
            or self.chaos is not None
        )

    @classmethod
    def from_env(cls) -> "EngineConfig":
        """Default config, honoring ``REPRO_ENGINE_CACHE_DIR``."""
        return cls(disk_cache=os.environ.get(CACHE_DIR_ENV) or None)


class EngineStats:
    """Cumulative, thread-safe cache counters for one engine."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.lookups = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.solves = 0
        self.grid_reads = 0

    def _add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def hit_rate(self) -> float:
        """Fraction of lookups answered from a cache (0 when idle)."""
        with self._lock:
            hits = self.memory_hits + self.disk_hits
            return hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "lookups": self.lookups,
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "solves": self.solves,
                "grid_reads": self.grid_reads,
                "hit_rate": (
                    (self.memory_hits + self.disk_hits) / self.lookups
                    if self.lookups else 0.0
                ),
            }


@dataclass(frozen=True)
class TaskAttempt:
    """One attempt at one supervised task: what happened, how long."""

    attempt: int
    outcome: str  # "ok" | "error" | "timeout" | "lost"
    elapsed: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "elapsed": self.elapsed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class FailedResult:
    """Terminal failure envelope for one request in a batch.

    Returned (in request order, like any :class:`~repro.api.SolveResult`)
    when a request exhausts its retries in non-strict mode, so one bad
    request never poisons the rest of the batch.  ``attempts`` is the
    full forensic trail.
    """

    request: SolveRequest
    error_type: str
    error_message: str
    attempts: tuple[TaskAttempt, ...] = ()

    #: Discriminator: ``getattr(result, "failed", False)`` is True only
    #: for failure envelopes.
    failed = True

    def to_dict(self) -> dict:
        return {
            "request": self.request.to_dict(),
            "error_type": self.error_type,
            "error_message": self.error_message,
            "attempts": [a.to_dict() for a in self.attempts],
        }


@dataclass(frozen=True)
class BatchMetrics:
    """What one :meth:`BatchSolver.evaluate_many` call actually did."""

    requests: int
    memory_hits: int
    disk_hits: int
    #: Number of shared-grid groups and the points they served.
    grid_groups: int
    grid_points: int
    #: Requests solved individually (after cache + grid sharing).
    solved: int
    parallel: bool
    elapsed: float
    # --- resilience --------------------------------------------------
    #: Retry attempts launched (transient errors and timeouts).
    retries: int = 0
    #: Attempts abandoned at the per-task deadline.
    timeouts: int = 0
    #: Hedged duplicates launched, and how many beat the original.
    hedges: int = 0
    hedges_won: int = 0
    #: Requests that ended as a :class:`FailedResult`.
    failed: int = 0
    #: Tasks whose in-flight attempt died with a pool worker, and how
    #: often the pool had to be respawned.
    tasks_lost: int = 0
    pool_respawns: int = 0
    #: Disk-cache circuit breaker: state after the batch and trips
    #: during it ("disabled" when no disk cache is configured).
    breaker_state: str = "disabled"
    breaker_trips: int = 0

    @property
    def hit_rate(self) -> float:
        if not self.requests:
            return 0.0
        return (self.memory_hits + self.disk_hits) / self.requests

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "grid_groups": self.grid_groups,
            "grid_points": self.grid_points,
            "solved": self.solved,
            "parallel": self.parallel,
            "elapsed": self.elapsed,
            "hit_rate": self.hit_rate,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "hedges": self.hedges,
            "hedges_won": self.hedges_won,
            "failed": self.failed,
            "tasks_lost": self.tasks_lost,
            "pool_respawns": self.pool_respawns,
            "breaker_state": self.breaker_state,
            "breaker_trips": self.breaker_trips,
        }


class _ResilienceCounters:
    """Mutable per-batch tallies feeding :class:`BatchMetrics`."""

    __slots__ = (
        "retries", "timeouts", "hedges", "hedges_won", "failed",
        "tasks_lost", "pool_respawns",
    )

    def __init__(self) -> None:
        self.retries = 0
        self.timeouts = 0
        self.hedges = 0
        self.hedges_won = 0
        self.failed = 0
        self.tasks_lost = 0
        self.pool_respawns = 0


def _deterministic_backoff(
    key: str, retry: int, base: float, cap: float
) -> float:
    """Exponential backoff with jitter derived from the cache key.

    The jitter factor in ``[0.5, 1.0]`` is a pure function of
    ``(key, retry)`` — retries de-synchronize across requests without
    any global random state, so a rerun backs off identically.
    """
    if base <= 0.0 or retry < 1:
        return 0.0
    frac = int(key_digest(f"{key}#retry{retry}")[:8], 16) / 0xFFFFFFFF
    return min(cap, base * 2.0 ** (retry - 1) * (0.5 + 0.5 * frac))


def _call_with_deadline(fn, deadline: float, name: str):
    """Run ``fn`` on a daemon thread; abandon it after ``deadline``.

    Python cannot kill a running thread, so on timeout the worker is
    left to finish (or not) in the background — the daemon flag
    guarantees it can never block interpreter exit.
    """
    box: list[tuple[str, Any]] = []

    def runner() -> None:
        try:
            box.append(("ok", fn()))
        except BaseException as exc:  # noqa: BLE001 - relayed to caller
            box.append(("error", exc))

    thread = threading.Thread(
        target=runner, daemon=True, name=f"engine-{name}"
    )
    thread.start()
    thread.join(deadline)
    if not box:
        raise TaskDeadlineError(
            f"attempt exceeded the {deadline:.3g}s deadline "
            "(worker thread abandoned)"
        )
    status, value = box[0]
    if status == "error":
        raise value
    return value


# ----------------------------------------------------------------------
# Method dispatch (shared by the engine and its pool workers)
# ----------------------------------------------------------------------


def _dispatch_solve(request: SolveRequest) -> Any:
    """Run the requested algorithm; returns the raw solution object."""
    dims, classes, method = request.dims, request.classes, request.method
    mode = method.convolution_mode
    if mode is not None:
        from ..core.convolution import solve_convolution

        return solve_convolution(dims, classes, mode=mode)
    if method is SolveMethod.MVA:
        from ..core.mva import solve_mva

        return solve_mva(dims, classes)
    if method is SolveMethod.EXACT:
        from ..core.exact import solve_exact

        return solve_exact(dims, classes)
    if method is SolveMethod.SERIES:
        from ..core.series_solver import solve_series

        return solve_series(dims, classes)
    if method is SolveMethod.BRUTE_FORCE:
        from ..core.model import solve_brute_force_solution

        return solve_brute_force_solution(dims, classes)
    if method is SolveMethod.ROBUST:
        from ..robust.facade import _solve_robust_direct

        return _solve_robust_direct(dims, classes)
    raise ConfigurationError(
        f"method {method.value!r} has no engine dispatch"
    )  # pragma: no cover - enum is exhaustive above


def _measurable(solution: Any) -> tuple[Any, str]:
    """Unwrap container solutions (RobustSolution) to a measure object."""
    inner = getattr(solution, "solution", None)
    if inner is not None and hasattr(solution, "diagnostics"):
        return inner, getattr(solution, "method", "") or "robust"
    return solution, getattr(solution, "method", "")


def _result_from(
    request: SolveRequest, solution: Any, elapsed: float
) -> SolveResult:
    measurable, label = _measurable(solution)
    return SolveResult.from_solution(
        request, measurable, solved_by=label, elapsed=elapsed
    )


def _solve_one(request: SolveRequest) -> SolveResult:
    """Plain uncached solve -> result; the pool-worker entry point."""
    began = time.perf_counter()
    solution = _dispatch_solve(request)
    return _result_from(request, solution, time.perf_counter() - began)


def _supervised_worker(
    request: SolveRequest,
    task_index: int,
    attempt: int,
    chaos: FaultPlan | None,
) -> SolveResult:
    """Pool-worker entry point for supervised batches.

    Applies any planned chaos fault for ``(task_index, attempt)`` first
    (a kill fault hard-exits this worker process), then solves.
    """
    if chaos is not None:
        chaos.apply_task(task_index, attempt, in_worker=True)
    return _solve_one(request)


def sliced_solution(
    solution: PerformanceSolution, dims
) -> PerformanceSolution:
    """A :class:`PerformanceSolution` restricted to a sub-switch.

    Because Algorithm 1's recurrence at cell ``(m1, m2)`` only reads
    cells dominated by it, the sliced grids are bit-for-bit what a
    direct solve at ``dims`` would have produced.
    """
    if not solution.dims.contains(dims):
        raise ConfigurationError(
            f"cannot slice {solution.dims} down to larger dims {dims}"
        )
    n1, n2 = dims.n1, dims.n2
    return PerformanceSolution(
        dims=dims,
        classes=solution.classes,
        h=tuple(grid[: n1 + 1, : n2 + 1] for grid in solution.h),
        log_q=(
            None if solution.log_q is None
            else solution.log_q[: n1 + 1, : n2 + 1]
        ),
        method=solution.method,
        e_smooth={
            r: grid[: n1 + 1, : n2 + 1]
            for r, grid in solution.e_smooth.items()
        },
    )


def _reorder_permutation(
    stored: Sequence, requested: Sequence
) -> list[int] | None:
    """``perm[i]`` = index in ``stored`` matching ``requested[i]``.

    None when the class multisets differ (cannot happen for equal
    canonical keys, but kept defensive).
    """
    if tuple(stored) == tuple(requested):
        return None
    stored_order = canonical_order(stored)
    requested_order = canonical_order(requested)
    perm = [0] * len(requested)
    for k, i in enumerate(requested_order):
        j = stored_order[k]
        if class_params(stored[j]) != class_params(requested[i]):
            raise ComputationError(
                "cache entry class parameters do not match the request "
                "(key collision)"
            )
        perm[i] = j
    return perm


# ----------------------------------------------------------------------
# The pool supervisor
# ----------------------------------------------------------------------


class _Task:
    """Mutable supervision state for one batch member."""

    __slots__ = (
        "index", "request", "key", "attempts", "retries_used",
        "next_attempt", "inflight", "hedged", "queued", "losses",
        "last_error",
    )

    def __init__(self, index: int, request: SolveRequest, key: str) -> None:
        self.index = index
        self.request = request
        self.key = key
        self.attempts: list[TaskAttempt] = []
        self.retries_used = 0
        self.next_attempt = 0
        self.inflight = 0
        self.hedged = False
        self.queued = False
        self.losses = 0
        self.last_error: BaseException | None = None


class _PoolSupervisor:
    """Drives one parallel fan-out with deadlines, retries, hedging and
    pool-respawn recovery.

    The supervisor owns the :class:`ProcessPoolExecutor` for the batch:
    one future per task attempt (no chunking — supervision needs
    per-task granularity).  A broken pool (a worker died) invalidates
    every in-flight future; the supervisor records those attempts as
    ``lost``, respawns the pool, and requeues only the unfinished
    tasks.  Attempts running past the deadline are abandoned — the
    worker process cannot be preempted, but its eventual result is
    discarded and a fresh attempt takes over; since solves are pure,
    whichever attempt wins produces the identical result.
    """

    TICK = 0.05

    def __init__(
        self,
        engine: "BatchSolver",
        misses: list[tuple[int, SolveRequest, str]],
        results: list,
        counters: _ResilienceCounters,
        strict: bool,
        config: "EngineConfig | None" = None,
    ) -> None:
        self.engine = engine
        # Per-call override (e.g. a service deadline budget mapped onto
        # this batch); defaults to the engine's standing config.
        self.config = config if config is not None else engine.config
        self.results = results
        self.counters = counters
        self.strict = strict
        self.tasks = [_Task(i, request, key) for i, request, key in misses]
        self.unfinished = {task.index: task for task in self.tasks}
        self.inflight: dict[Any, tuple[_Task, int, float, bool]] = {}
        self.retry_queue: list[tuple[float, _Task]] = []
        self.workers = min(engine._worker_count(), max(1, len(misses)))
        self.executor: ProcessPoolExecutor | None = None
        self.broke = False

    # ------------------------------------------------------------------

    def run(self) -> None:
        self.executor = ProcessPoolExecutor(max_workers=self.workers)
        try:
            for task in self.tasks:
                self._launch(task)
            while self.unfinished:
                if self.broke:
                    self._respawn()
                self._launch_due_retries()
                if not self.inflight:
                    if not self._sleep_until_retry():
                        break  # pragma: no cover - defensive
                    continue
                done, _ = wait(
                    list(self.inflight), timeout=self.TICK,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    if self._collect(future):
                        self.broke = True
                if self.broke:
                    self._respawn()
                self._enforce_deadlines_and_hedges()
        finally:
            # Non-blocking: abandoned workers drain on their own.
            self.executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------

    def _launch(self, task: _Task, is_hedge: bool = False) -> None:
        attempt = task.next_attempt
        task.next_attempt += 1
        self._submit(task, attempt, is_hedge)

    def _submit(self, task: _Task, attempt: int, is_hedge: bool) -> None:
        try:
            future = self.executor.submit(
                _supervised_worker, task.request, task.index, attempt,
                self.config.chaos,
            )
        except BrokenExecutor:
            # The pool died between detections; the main loop respawns
            # and requeues this task (its inflight count stays 0).
            self.broke = True
            task.next_attempt = max(task.next_attempt - 1, attempt)
            return
        self.inflight[future] = (task, attempt, time.monotonic(), is_hedge)
        task.inflight += 1

    def _collect(self, future) -> bool:
        """Fold one completed future into the task state.

        Returns True when the future failed because the pool broke (the
        caller then respawns).
        """
        task, attempt, started, is_hedge = self.inflight.pop(future)
        elapsed = time.monotonic() - started
        if task.index not in self.unfinished:
            return False  # stale attempt of an already-finished task
        task.inflight -= 1
        try:
            result = future.result()
        except BrokenExecutor:
            # Put the entry back: _respawn records every in-flight
            # attempt as lost uniformly.
            self.inflight[future] = (task, attempt, started, is_hedge)
            task.inflight += 1
            return True
        except CrossbarError as exc:
            self._attempt_failed(
                task, attempt, elapsed, exc, retryable=False
            )
        except OSError as exc:
            self._attempt_failed(task, attempt, elapsed, exc, retryable=True)
        except Exception as exc:  # noqa: BLE001 - unknown worker failure
            self._attempt_failed(
                task, attempt, elapsed, exc, retryable=False
            )
        else:
            task.attempts.append(TaskAttempt(attempt, "ok", elapsed))
            if is_hedge:
                self.counters.hedges_won += 1
            self._finish(task, result)
        return False

    def _finish(self, task: _Task, result: SolveResult) -> None:
        self.engine._store(task.key, result)
        self.results[task.index] = result
        del self.unfinished[task.index]

    def _attempt_failed(
        self,
        task: _Task,
        attempt: int,
        elapsed: float,
        exc: BaseException,
        retryable: bool,
        outcome: str = "error",
    ) -> None:
        detail = f"{type(exc).__name__}: {str(exc)[:120]}"
        task.attempts.append(TaskAttempt(attempt, outcome, elapsed, detail))
        task.last_error = exc
        logger.warning(
            "supervised attempt failed %s",
            kv(task=task.index, attempt=attempt, outcome=outcome,
               detail=detail, retryable=retryable),
        )
        if task.queued:
            return  # a retry is already scheduled
        if retryable and task.retries_used < self.config.max_retries:
            task.retries_used += 1
            self.counters.retries += 1
            delay = _deterministic_backoff(
                task.key, task.retries_used,
                self.config.retry_backoff, self.config.backoff_cap,
            )
            task.queued = True
            self.retry_queue.append((time.monotonic() + delay, task))
        elif task.inflight > 0:
            pass  # a sibling attempt (hedge/abandoned) may still win
        else:
            self._fail(task, exc)

    def _fail(self, task: _Task, exc: BaseException) -> None:
        self.counters.failed += 1
        del self.unfinished[task.index]
        if self.strict:
            raise exc
        self.results[task.index] = FailedResult(
            request=task.request,
            error_type=type(exc).__name__,
            error_message=str(exc),
            attempts=tuple(task.attempts),
        )
        logger.warning(
            "request terminally failed %s",
            kv(task=task.index, error=type(exc).__name__,
               attempts=len(task.attempts)),
        )

    # ------------------------------------------------------------------

    def _respawn(self) -> None:
        """Rebuild a broken pool; requeue exactly the lost tasks."""
        self.broke = False
        self.counters.pool_respawns += 1
        now = time.monotonic()
        lost: set[int] = set()
        for task, attempt, started, _ in self.inflight.values():
            if task.index in self.unfinished:
                task.attempts.append(
                    TaskAttempt(
                        attempt, "lost", now - started,
                        "worker process died; pool respawned",
                    )
                )
                task.losses += 1
                lost.add(task.index)
            task.inflight = 0
        self.inflight.clear()
        self.counters.tasks_lost += len(lost)
        try:
            self.executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - already broken
            pass
        self.executor = ProcessPoolExecutor(max_workers=self.workers)
        logger.warning(
            "process pool respawned %s",
            kv(lost=len(lost), unfinished=len(self.unfinished),
               workers=self.workers),
        )
        for task in list(self.unfinished.values()):
            if task.inflight or task.queued:
                continue
            if task.losses > self.config.max_retries + 1:
                # A task that keeps killing workers is terminal: free
                # requeues must not respawn the pool forever.
                self._fail(
                    task,
                    ComputationError(
                        f"request killed {task.losses} pool workers; "
                        "giving up"
                    ),
                )
                continue
            self._launch(task)

    def _launch_due_retries(self) -> None:
        if not self.retry_queue:
            return
        now = time.monotonic()
        still: list[tuple[float, _Task]] = []
        for ready_at, task in self.retry_queue:
            if task.index not in self.unfinished:
                continue
            if ready_at <= now:
                task.queued = False
                self._launch(task)
            else:
                still.append((ready_at, task))
        self.retry_queue = still

    def _sleep_until_retry(self) -> bool:
        """Nothing in flight: sleep until the earliest queued retry."""
        pending = [
            ready_at for ready_at, task in self.retry_queue
            if task.index in self.unfinished
        ]
        if not pending:
            return False
        delay = max(0.0, min(pending) - time.monotonic())
        time.sleep(min(delay, 0.25))
        return True

    def _enforce_deadlines_and_hedges(self) -> None:
        deadline = self.config.task_deadline
        hedge_after = self.config.hedge_after
        if deadline is None and hedge_after is None:
            return
        now = time.monotonic()
        for future, (task, attempt, started, _) in list(
            self.inflight.items()
        ):
            if task.index not in self.unfinished:
                continue
            age = now - started
            if deadline is not None and age > deadline:
                # Abandon: the worker cannot be preempted, but its
                # eventual result is discarded.
                del self.inflight[future]
                task.inflight -= 1
                self.counters.timeouts += 1
                self._attempt_failed(
                    task, attempt, age,
                    TaskDeadlineError(
                        f"attempt exceeded the {deadline:.3g}s deadline"
                    ),
                    retryable=True, outcome="timeout",
                )
            elif (
                hedge_after is not None
                and not task.hedged
                and not task.queued
                and age > hedge_after
            ):
                task.hedged = True
                self.counters.hedges += 1
                self._launch(task, is_hedge=True)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class BatchSolver:
    """Cached, batched, optionally process-parallel solve engine."""

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig.from_env()
        self._results = LRUCache(self.config.lru_size)
        self._solutions = LRUCache(self.config.solution_lru_size)
        chaos = self.config.chaos
        self.disk = (
            DiskCache(
                self.config.disk_cache,
                strict=self.config.strict_cache,
                breaker=CircuitBreaker(
                    failure_threshold=self.config.breaker_threshold,
                    cooldown=self.config.breaker_cooldown,
                ),
                fault_hook=(
                    CacheFaultInjector(chaos)
                    if chaos is not None and chaos.cache_faults
                    else None
                ),
            )
            if self.config.disk_cache is not None
            else None
        )
        self.stats = EngineStats()
        self.last_metrics: BatchMetrics | None = None

    # ------------------------------------------------------------------
    # Single-request entry points
    # ------------------------------------------------------------------

    def solve(self, request: SolveRequest) -> SolveResult:
        """One request, through every cache layer."""
        key = request.cache_key
        self.stats._add("lookups")
        hit = self._lookup(key, request)
        if hit is not None:
            return hit
        began = time.perf_counter()
        solution = self._solution_memo_or_solve(request, key)
        result = _result_from(
            request, solution, time.perf_counter() - began
        )
        self._store(key, result)
        return result

    def solution_for(self, request: SolveRequest) -> Any:
        """The full solution object (grids and all), memoized.

        This is what the legacy entry points
        (:meth:`CrossbarModel.solve`, ``solve_robust``, the sweep
        helpers) delegate to: they keep returning rich solution objects
        while sharing the engine's memoization — and its transient-error
        retry policy (``max_retries`` with deterministic backoff).
        """
        self.stats._add("lookups")
        key = request.cache_key
        entry = self._solutions.get(key)
        if entry is not None:
            stored_classes, solution = entry
            if stored_classes == request.classes:
                self.stats._add("memory_hits")
                return solution
            if isinstance(solution, PerformanceSolution):
                perm = _reorder_permutation(stored_classes, request.classes)
                self.stats._add("memory_hits")
                if perm is None:
                    return solution
                return replace(
                    solution,
                    classes=request.classes,
                    h=tuple(solution.h[j] for j in perm),
                    e_smooth={
                        i: solution.e_smooth[j]
                        for i, j in enumerate(perm)
                        if j in solution.e_smooth
                    },
                    _concurrency_cache={},
                )
            # Non-grid solution types are cheapest to just re-solve for
            # the new class order (measure indices must line up).
        solution = self._dispatch_with_retries(request)
        self.stats._add("solves")
        self._solutions.put(key, (request.classes, solution))
        return solution

    # ------------------------------------------------------------------
    # Batch evaluation
    # ------------------------------------------------------------------

    def evaluate_many(
        self,
        requests: Sequence[SolveRequest],
        parallel: bool | None = None,
        strict: bool | None = None,
        *,
        task_deadline: float | None = None,
    ) -> list[SolveResult | FailedResult]:
        """Evaluate a batch: cache, share Q-grids, then fan out.

        Results are returned in request order regardless of execution
        order, and are byte-identical whether served serially, in
        parallel, or from cache.  Under the (default) supervisor a
        request that terminally fails comes back as a
        :class:`FailedResult` in its slot while the rest of the batch
        completes; pass ``strict=True`` (or configure
        ``strict_batch=True``) to re-raise the first terminal failure
        instead.

        ``task_deadline`` bounds *this call only*: per-attempt
        wall-clock seconds, combined with any configured
        ``EngineConfig.task_deadline`` by taking the tighter of the
        two.  The serving daemon uses it to map a client's remaining
        ``deadline_ms`` budget onto the batch (cache hits and grid
        reads are unaffected — only fresh solves are bounded).
        """
        requests = list(requests)
        began = time.perf_counter()
        strict_mode = (
            self.config.strict_batch if strict is None else strict
        )
        run_config = self.config
        if task_deadline is not None:
            configured = run_config.task_deadline
            bound = (
                task_deadline if configured is None
                else min(configured, task_deadline)
            )
            # Clamp: an already-blown budget still needs a positive
            # deadline for the attempt machinery to time out cleanly.
            run_config = replace(
                run_config, task_deadline=max(bound, 1e-3)
            )
        counters = _ResilienceCounters()
        breaker = self.disk.breaker if self.disk is not None else None
        trips_before = breaker.trips if breaker is not None else 0
        results: list[SolveResult | FailedResult | None] = (
            [None] * len(requests)
        )
        memory_hits = disk_hits = 0

        misses: list[tuple[int, SolveRequest, str]] = []
        for i, request in enumerate(requests):
            if not isinstance(request, SolveRequest):
                raise ConfigurationError(
                    f"evaluate_many needs SolveRequest items, got "
                    f"{request!r}"
                )
            key = request.cache_key
            self.stats._add("lookups")
            before_disk = self.stats.disk_hits
            hit = self._lookup(key, request)
            if hit is not None:
                if self.stats.disk_hits > before_disk:
                    disk_hits += 1
                else:
                    memory_hits += 1
                results[i] = hit
            else:
                misses.append((i, request, key))

        grid_groups, grid_points, leftover = self._serve_grid_groups(
            misses, results
        )

        use_pool = self._should_parallelize(len(leftover), parallel)
        if use_pool and run_config.supervised:
            _PoolSupervisor(
                self, leftover, results, counters, strict_mode,
                config=run_config,
            ).run()
        elif use_pool:
            self._solve_parallel(leftover, results)
        elif run_config.supervised:
            for i, request, key in leftover:
                results[i] = self._solve_serial_supervised(
                    i, request, key, counters, strict_mode,
                    config=run_config,
                )
        else:
            for i, request, key in leftover:
                began_one = time.perf_counter()
                solution = self._solution_memo_or_solve(request, key)
                result = _result_from(
                    request, solution, time.perf_counter() - began_one
                )
                self._store(key, result)
                results[i] = result

        metrics = BatchMetrics(
            requests=len(requests),
            memory_hits=memory_hits,
            disk_hits=disk_hits,
            grid_groups=grid_groups,
            grid_points=grid_points,
            solved=len(leftover),
            parallel=use_pool,
            elapsed=time.perf_counter() - began,
            retries=counters.retries,
            timeouts=counters.timeouts,
            hedges=counters.hedges,
            hedges_won=counters.hedges_won,
            failed=counters.failed,
            tasks_lost=counters.tasks_lost,
            pool_respawns=counters.pool_respawns,
            breaker_state=(
                breaker.state if breaker is not None else "disabled"
            ),
            breaker_trips=(
                breaker.trips - trips_before if breaker is not None else 0
            ),
        )
        self.last_metrics = metrics
        if logger.isEnabledFor(logging.INFO):
            logger.info("batch evaluated %s", kv(**metrics.to_dict()))
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Cache bookkeeping
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every in-memory entry (the disk cache is left alone)."""
        self._results.clear()
        self._solutions.clear()

    def cached_result(
        self, request: SolveRequest, memory_only: bool = False
    ) -> SolveResult | None:
        """A cache-only lookup: memory then disk, never a solve.

        The brownout ladder's "stale-cache" stage serves exclusively
        from here — under that much pressure the daemon answers what it
        already knows and clears everything else.  Counts as a normal
        lookup in ``engine.stats``; returns None on a miss.

        ``memory_only=True`` skips the disk tier entirely — the serving
        daemon's cache-hot fast path calls this *on the event loop*, so
        it must never block on file I/O.
        """
        if not isinstance(request, SolveRequest):
            raise ConfigurationError(
                f"cached_result needs a SolveRequest, got {request!r}"
            )
        self.stats._add("lookups")
        if memory_only:
            hit = self._results.get(request.cache_key)
            if hit is None:
                return None
            self.stats._add("memory_hits")
            return self._adapt(hit, request)
        return self._lookup(request.cache_key, request)

    def _lookup(self, key: str, request: SolveRequest) -> SolveResult | None:
        hit = self._results.get(key)
        if hit is not None:
            self.stats._add("memory_hits")
            return self._adapt(hit, request)
        if self.disk is not None:
            payload = self.disk.load(key)
            if payload is not None:
                try:
                    result = SolveResult.from_dict(payload)
                except (KeyError, TypeError, ValueError) as exc:
                    if self.config.strict_cache:
                        from .cache import CacheCorruptionError

                        raise CacheCorruptionError(
                            f"disk cache payload for {key!r} does not "
                            f"deserialize: {exc}"
                        ) from exc
                    return None
                self.stats._add("disk_hits")
                self._results.put(key, result)
                return self._adapt(result, request)
        return None

    def _store(self, key: str, result: SolveResult) -> None:
        self.stats._add("solves")
        self._results.put(key, result)
        if self.disk is not None:
            self.disk.store(key, result.to_dict())

    def _adapt(self, hit: SolveResult, request: SolveRequest) -> SolveResult:
        """Re-address a cached result to the incoming request."""
        perm = _reorder_permutation(hit.request.classes, request.classes)
        if perm is not None:
            hit = hit.reordered(perm, request)
        elif hit.request != request:
            hit = replace(hit, request=request)
        return replace(hit, from_cache=True, elapsed=0.0)

    def _solution_memo_or_solve(
        self, request: SolveRequest, key: str
    ) -> Any:
        entry = self._solutions.get(key)
        if entry is not None and entry[0] == request.classes:
            return entry[1]
        solution = _dispatch_solve(request)
        self._solutions.put(key, (request.classes, solution))
        return solution

    def _dispatch_with_retries(self, request: SolveRequest) -> Any:
        """Dispatch with the engine's transient-error retry policy.

        Only ``OSError`` is retried: solver failures
        (:class:`CrossbarError`) are deterministic, so retrying them
        cannot change the outcome.
        """
        last: OSError | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                delay = _deterministic_backoff(
                    request.cache_key, attempt,
                    self.config.retry_backoff, self.config.backoff_cap,
                )
                if delay:
                    time.sleep(delay)
                logger.warning(
                    "retrying solve %s",
                    kv(attempt=attempt, error=str(last)[:80]),
                )
            try:
                return _dispatch_solve(request)
            except OSError as exc:
                last = exc
        raise last

    # ------------------------------------------------------------------
    # Supervised serial solving
    # ------------------------------------------------------------------

    def _solve_serial_supervised(
        self,
        index: int,
        request: SolveRequest,
        key: str,
        counters: _ResilienceCounters,
        strict: bool,
        config: "EngineConfig | None" = None,
    ) -> SolveResult | FailedResult:
        """One task under supervision, in-process.

        Same retry/deadline semantics as the pool supervisor; chaos
        kill faults are simulated (raised) rather than executed, so a
        serial batch survives to supervise them.
        """
        cfg = config if config is not None else self.config
        attempts: list[TaskAttempt] = []
        last_error: BaseException | None = None
        attempt = 0
        retries_used = 0
        while True:
            began = time.perf_counter()
            try:
                result = self._run_serial_attempt(
                    index, request, key, attempt,
                    deadline=cfg.task_deadline,
                )
            except TaskDeadlineError as exc:
                counters.timeouts += 1
                attempts.append(
                    TaskAttempt(
                        attempt, "timeout",
                        time.perf_counter() - began, str(exc),
                    )
                )
                last_error, retryable = exc, True
            except OSError as exc:
                attempts.append(
                    TaskAttempt(
                        attempt, "error", time.perf_counter() - began,
                        f"{type(exc).__name__}: {str(exc)[:120]}",
                    )
                )
                last_error, retryable = exc, True
            except CrossbarError as exc:
                attempts.append(
                    TaskAttempt(
                        attempt, "error", time.perf_counter() - began,
                        f"{type(exc).__name__}: {str(exc)[:120]}",
                    )
                )
                last_error, retryable = exc, False
            else:
                attempts.append(
                    TaskAttempt(attempt, "ok", time.perf_counter() - began)
                )
                return result
            logger.warning(
                "supervised attempt failed %s",
                kv(task=index, attempt=attempt,
                   outcome=attempts[-1].outcome,
                   detail=attempts[-1].detail, retryable=retryable),
            )
            if retryable and retries_used < cfg.max_retries:
                retries_used += 1
                counters.retries += 1
                delay = _deterministic_backoff(
                    key, retries_used, cfg.retry_backoff, cfg.backoff_cap
                )
                if delay:
                    time.sleep(delay)
                attempt += 1
                continue
            counters.failed += 1
            if strict:
                raise last_error
            return FailedResult(
                request=request,
                error_type=type(last_error).__name__,
                error_message=str(last_error),
                attempts=tuple(attempts),
            )

    def _run_serial_attempt(
        self,
        index: int,
        request: SolveRequest,
        key: str,
        attempt: int,
        deadline: float | None = None,
    ) -> SolveResult:
        def attempt_fn() -> SolveResult:
            chaos = self.config.chaos
            if chaos is not None:
                chaos.apply_task(index, attempt, in_worker=False)
            began = time.perf_counter()
            solution = self._solution_memo_or_solve(request, key)
            result = _result_from(
                request, solution, time.perf_counter() - began
            )
            self._store(key, result)
            return result

        if deadline is None:
            deadline = self.config.task_deadline
        if deadline is not None:
            return _call_with_deadline(
                attempt_fn, deadline, name=f"task-{index}"
            )
        return attempt_fn()

    # ------------------------------------------------------------------
    # Q-grid sharing
    # ------------------------------------------------------------------

    def _serve_grid_groups(
        self,
        misses: list[tuple[int, SolveRequest, str]],
        results: list[SolveResult | FailedResult | None],
    ) -> tuple[int, int, list[tuple[int, SolveRequest, str]]]:
        """Serve groups of misses from one shared Algorithm 1 grid.

        Misses sharing (ordered traffic mix, grid method) need a single
        solve at the componentwise-max dimensions; every member is a
        ratio read at its own ``(n1, n2)``.  Returns the group count,
        points served, and the misses left for individual solving.
        """
        groups: dict[tuple, list[tuple[int, SolveRequest, str]]] = {}
        leftover: list[tuple[int, SolveRequest, str]] = []
        # Members decoded from one sweep share their class tuple: render
        # its exact parameters once, not once per member.
        params_of: dict[int, tuple] = {}
        for item in misses:
            _, request, _ = item
            if request.method.is_grid:
                params = params_of.get(id(request.classes))
                if params is None:
                    params = tuple(class_params(c) for c in request.classes)
                    params_of[id(request.classes)] = params
                groups.setdefault((request.method, params), []).append(item)
            else:
                leftover.append(item)

        grid_groups = grid_points = 0
        for members in groups.values():
            if len(members) < 2:
                leftover.extend(members)
                continue
            base_request = members[0][1]
            from ..core.state import SwitchDimensions

            top = SwitchDimensions(
                max(m[1].dims.n1 for m in members),
                max(m[1].dims.n2 for m in members),
            )
            try:
                solution = self.solution_for(base_request.with_dims(top))
            except CrossbarError as exc:
                # E.g. a Bernoulli admissibility guard that only trips
                # at the enlarged dims: solve members individually.
                logger.warning(
                    "grid group fell back to point solves %s",
                    kv(dims=str(top), reason=str(exc)[:80]),
                )
                leftover.extend(members)
                continue
            grid_groups += 1
            began = time.perf_counter()
            points = solution.read_points([m[1].dims for m in members])
            elapsed = (time.perf_counter() - began) / len(members)
            for (i, request, key), measures in zip(members, points):
                result = SolveResult.from_measures(
                    request, *measures, solved_by=solution.method,
                    elapsed=elapsed,
                )
                self._store(key, result)
                results[i] = result
            self.stats._add("grid_reads", len(members))
            grid_points += len(members)
        return grid_groups, grid_points, leftover

    # ------------------------------------------------------------------
    # Parallel fan-out
    # ------------------------------------------------------------------

    def _worker_count(self) -> int:
        if self.config.processes is not None:
            return max(1, self.config.processes)
        return max(1, os.cpu_count() or 1)

    def _should_parallelize(
        self, n_misses: int, parallel: bool | None
    ) -> bool:
        if n_misses < 2:
            return False
        if parallel is not None:
            return parallel and self._worker_count() > 1
        return (
            n_misses >= self.config.parallel_threshold
            and self._worker_count() > 1
        )

    def _solve_parallel(
        self,
        misses: list[tuple[int, SolveRequest, str]],
        results: list[SolveResult | FailedResult | None],
    ) -> None:
        """Unsupervised fan-out (``supervised`` off): plain pool map."""
        workers = min(self._worker_count(), len(misses))
        chunk = self.config.chunk_size or max(
            1, math.ceil(len(misses) / (workers * 4))
        )
        with ProcessPoolExecutor(max_workers=workers) as executor:
            solved = executor.map(
                _solve_one, [m[1] for m in misses], chunksize=chunk
            )
            for (i, _, key), result in zip(misses, solved):
                self._store(key, result)
                results[i] = result


# ----------------------------------------------------------------------
# The process-wide default engine
# ----------------------------------------------------------------------

_default_engine: BatchSolver | None = None
_default_lock = threading.Lock()


def get_default_engine() -> BatchSolver:
    """The shared engine every thin delegate routes through."""
    global _default_engine
    with _default_lock:
        if _default_engine is None:
            _default_engine = BatchSolver()
        return _default_engine


def set_default_engine(engine: BatchSolver) -> BatchSolver:
    """Swap the process-wide engine (returns the previous one)."""
    global _default_engine
    with _default_lock:
        previous, _default_engine = _default_engine, engine
    return previous if previous is not None else engine


def reset_default_engine() -> None:
    """Drop the process-wide engine (a fresh one is built lazily)."""
    global _default_engine
    with _default_lock:
        _default_engine = None

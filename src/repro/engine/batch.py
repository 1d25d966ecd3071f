"""The batched evaluation engine: memoized and grid-sharing.

:class:`BatchSolver` is the execution layer behind the unified solve
API (:mod:`repro.api`).  It exploits three structural facts about the
model:

1. **Memoization** — requests canonicalize into exact cache keys
   (:mod:`repro.engine.keys`), so identical models are never solved
   twice.  An LRU holds :class:`~repro.api.SolveResult` records; an
   optional :class:`~repro.engine.cache.DiskCache` persists them as
   JSON.  Full solution objects (grids and all) are memoized only by
   :meth:`BatchSolver.solution_for`, for the callers that want them;
   the result entry points read that memo but never write it, so a
   grid solved to serve results is dropped once its points are read.
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
3. **One solve per distinct miss** — the misses left over are solved
   serially, in request order; misses equal as requests share a solve.

Failures
--------
The engine follows the paper's loss discipline: a request that cannot
be served is cleared, never re-offered.  Solver errors
(:class:`~repro.exceptions.CrossbarError`) are deterministic, so a
request that raises one comes back as a :class:`FailedResult` in its
slot, never retried, while the rest of the batch completes.
``strict=True`` re-raises the first such error in request order
instead.  Any other exception propagates.

Every batch records a :class:`BatchMetrics` (timings, hit counts, grid
reuse, failures and the cache circuit-breaker state) surfaced through
:mod:`repro.logging` and kept on ``engine.last_metrics``; cumulative
counters live on ``engine.stats``.  Deterministic disk-cache fault
injection lives in :mod:`repro.engine.chaos`.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..api import SolveRequest, SolveResult
from ..core.measures import PerformanceSolution
from ..exceptions import ComputationError, ConfigurationError, CrossbarError
from ..logging import get_logger, kv
from ..methods import SolveMethod
from .breaker import CircuitBreaker
from .cache import DiskCache, LRUCache
from .keys import canonical_order, class_params

if TYPE_CHECKING:  # pragma: no cover
    from .chaos import FaultPlan

__all__ = [
    "BatchMetrics",
    "BatchSolver",
    "EngineConfig",
    "EngineStats",
    "FailedResult",
    "get_default_engine",
    "readdressed",
]

logger = get_logger("engine.batch")

#: Environment variable enabling the on-disk result cache by default.
CACHE_DIR_ENV = "REPRO_ENGINE_CACHE_DIR"

#: :meth:`BatchSolver.kernel_work` counts grid cells of one swept
#: class (0.02 to 0.04 us each on a 2-vCPU host as its speed drifts).
#: On top of its cells, a column step costs the NumPy dispatch of this
#: many, one solve (validation, measure assembly, result build) this
#: many, and each member read off a grid this many.  Sized from
#: ``evaluate_many`` of single solves at n = 1..256, tall (2000 x 60,
#: 8000 x 30) and wide (60 x 2000, 2 x 3000) switches, 64 tiny distinct
#: mixes and 32- and 64-point sweeps, to the largest per-column and
#: per-solve cost seen, so the estimate rarely falls short.
WORK_PER_COLUMN = 512
WORK_PER_SOLVE = 8192
WORK_PER_MEMBER = 512


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of a :class:`BatchSolver`."""

    #: Capacity of the scalar-result LRU.
    lru_size: int = 4096
    #: Capacity of the full-solution memo behind
    #: :meth:`BatchSolver.solution_for` (model solves, sweeps, robust,
    #: validation, multistage, the CLI).  Only ``solution_for`` fills
    #: it; ``solve`` and ``evaluate_many`` read it but never write it.
    #: One Algorithm 1 solution holds ``(R + 1)`` float64 grids of
    #: ``(N1 + 1) x (N2 + 1)`` cells (~0.4 MB at N = 128, R = 2).
    solution_lru_size: int = 128
    #: Directory for the persistent JSON cache; None disables it.
    disk_cache: str | Path | None = None
    #: Raise on corrupt/stale disk entries instead of quarantining.
    strict_cache: bool = False
    #: Consecutive disk-cache I/O failures before the cache circuit
    #: breaker trips and the engine goes memory-only.
    breaker_threshold: int = 5
    #: Seconds an open breaker waits before letting a probe through.
    breaker_cooldown: float = 30.0
    #: Deterministic disk-cache fault plan for chaos testing (see
    #: :mod:`repro.engine.chaos`); None in production.
    chaos: FaultPlan | None = None

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

    def _add(self, **amounts: int) -> None:
        """Add to counters by name, under one lock (a batch counts
        once)."""
        with self._lock:
            for name, amount in amounts.items():
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
class FailedResult:
    """Terminal failure envelope for one request in a batch.

    Returned (in request order, like any :class:`~repro.api.SolveResult`)
    when a request's solver raises a
    :class:`~repro.exceptions.CrossbarError` in non-strict mode, so one
    bad request never poisons the rest of the batch.
    """

    request: SolveRequest
    error_type: str
    error_message: str

    #: Discriminator: ``getattr(result, "failed", False)`` is True only
    #: for failure envelopes.
    failed = True

    def to_dict(self) -> dict:
        return {
            "request": self.request.to_dict(),
            "error_type": self.error_type,
            "error_message": self.error_message,
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
    elapsed: float
    #: Always False: every miss is solved serially.  Kept, like
    #: ``retries``, because ``benchmarks/layers/traced_server.py``
    #: reads both fields by name.
    parallel: bool = False
    #: Always 0: solver errors are deterministic, so the engine never
    #: re-offers a request.
    retries: int = 0
    #: Requests that ended as a :class:`FailedResult`.
    failed: int = 0
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
            "failed": self.failed,
            "breaker_state": self.breaker_state,
            "breaker_trips": self.breaker_trips,
        }


# ----------------------------------------------------------------------
# Method dispatch
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


def readdressed(
    result: SolveResult | FailedResult, request: SolveRequest
) -> SolveResult | FailedResult:
    """``result``, solved for a request with ``request``'s cache key, as
    answered to ``request``: the same object for an equal request with
    the same class names, else a copy carrying ``request`` with its
    per-class measures in ``request``'s class order.

    Class names are outside request equality (``TrafficClass.name`` is
    ``compare=False``) but they are part of the answer, so an equal
    request with other names gets a copy too.
    """
    stored = result.request
    if stored is request or (
        stored == request and _same_names(stored.classes, request.classes)
    ):
        return result
    if isinstance(result, FailedResult):
        return replace(result, request=request)
    perm = _reorder_permutation(result.request.classes, request.classes)
    if perm is None:
        return replace(result, request=request)
    return result.reordered(perm, request)


def _sweep_passes(classes: Sequence, capacity: int) -> int:
    """Whole-sweep passes of one Algorithm 1 solve: one per class with
    ``beta >= 0``, plus the fold passes of the smooth classes.

    A smooth class folds in ``min(capacity // a, sources)`` passes
    (:func:`repro.core.convolution._fold_log`), once into ``log Q``,
    once into its concurrency grid and once into each other smooth
    class's ``Q_rest``.
    """
    smooth = [c for c in classes if c.beta < 0]
    folds = 0
    for cls in smooth:
        passes = capacity // cls.a
        if cls.sources < passes:
            passes = math.ceil(cls.sources)
        folds += passes
    return len(classes) - len(smooth) + folds * (len(smooth) + 1)


def _solve_work(n1: int, n2: int, classes: Sequence) -> int:
    """:meth:`BatchSolver.kernel_work` of one solve at ``n1 x n2``."""
    passes = _sweep_passes(classes, min(n1, n2))
    return WORK_PER_SOLVE + passes * (n2 + 1) * (n1 + 1 + WORK_PER_COLUMN)


def _admissible(n1: int, n2: int, classes: Sequence) -> bool:
    """Whether Algorithm 1's admissibility checks pass at ``n1 x n2``
    (:func:`repro.core.convolution.solve_convolution` validates every
    class that fits the switch)."""
    capacity = min(n1, n2)
    try:
        for cls in classes:
            if cls.a <= capacity:
                cls.validate_for(n1, n2)
    except CrossbarError:
        return False
    return True


def _mix_groups(
    requests: Sequence[SolveRequest],
) -> tuple[list[list[int]], list[int]]:
    """The grid groups of a batch of misses, and the rest.

    Grid-method requests sharing (method, ordered class parameters) can
    be served from one Algorithm 1 grid; returns their index lists, in
    first-seen order, and the indices of the other requests.  Members
    decoded from one sweep share their class tuple: its exact
    parameters are rendered once, not once per member.
    """
    groups: dict[tuple, list[int]] = {}
    rest: list[int] = []
    params_of: dict[int, tuple] = {}
    for i, request in enumerate(requests):
        if request.method.is_grid:
            params = params_of.get(id(request.classes))
            if params is None:
                params = tuple(class_params(c) for c in request.classes)
                params_of[id(request.classes)] = params
            groups.setdefault((request.method, params), []).append(i)
        else:
            rest.append(i)
    return list(groups.values()), rest


def _same_names(stored: Sequence, requested: Sequence) -> bool:
    return stored is requested or all(
        a.name == b.name for a, b in zip(stored, requested)
    )


def _twins(misses: list[tuple[int, SolveRequest, str]]) -> list[int]:
    """``twins[k]``: index of the first miss equal to ``misses[k]`` as a
    request (``k`` itself when none comes before it).

    Equal requests need one solve between them.  The key is part of the
    match, so classes that compare equal but key apart (``0.0`` and
    ``-0.0``) stay apart; another class order is another request and is
    solved on its own.
    """
    first: dict[tuple[str, SolveRequest], int] = {}
    return [
        first.setdefault((key, request), k)
        for k, (_, request, key) in enumerate(misses)
    ]


def _fault_hook(chaos: "FaultPlan | None") -> Any:
    """The disk cache's fault injector for a configured plan, else None.
    The chaos harness is imported only when a plan has faults."""
    if chaos is None or not chaos.faults:
        return None
    from .chaos import CacheFaultInjector

    return CacheFaultInjector(chaos)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class BatchSolver:
    """Cached, batched solve engine."""

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig.from_env()
        self._results = LRUCache(self.config.lru_size)
        self._solutions = LRUCache(self.config.solution_lru_size)
        self.disk = (
            DiskCache(
                self.config.disk_cache,
                strict=self.config.strict_cache,
                breaker=CircuitBreaker(
                    failure_threshold=self.config.breaker_threshold,
                    cooldown=self.config.breaker_cooldown,
                ),
                fault_hook=_fault_hook(self.config.chaos),
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
        """One request, through every cache layer.

        A miss reads a solution :meth:`solution_for` already holds, or
        solves afresh; only the result is kept.
        """
        key = request.cache_key
        hit = self._lookup(key, request)
        if hit is not None:
            return hit
        began = time.perf_counter()
        solution = self._read_or_solve(request)
        result = _result_from(
            request, solution, time.perf_counter() - began
        )
        self._store(key, result)
        self.stats._add(solves=1)
        return result

    def solution_for(self, request: SolveRequest) -> Any:
        """The full solution object (grids and all), memoized.

        This is what the grid-returning entry points
        (:meth:`CrossbarModel.solve`, ``solve_robust``, the sweep
        helpers) delegate to: they keep returning rich solution objects
        while sharing the engine's memoization.  It is the solution
        memo's only writer.
        """
        solution = self._memoized(request)
        if solution is not None:
            self.stats._add(lookups=1, memory_hits=1)
            return solution
        self.stats._add(lookups=1)
        solution = _dispatch_solve(request)
        self.stats._add(solves=1)
        self._solutions.put(request.cache_key, (request.classes, solution))
        return solution

    def _memoized(self, request: SolveRequest) -> Any | None:
        """The solution :meth:`solution_for` holds for ``request``, in
        ``request``'s class order, or None.  Counts and solves nothing."""
        entry = self._solutions.get(request.cache_key)
        if entry is None:
            return None
        stored_classes, solution = entry
        if stored_classes == request.classes:
            return solution
        if not isinstance(solution, PerformanceSolution):
            # Non-grid solution types are cheapest to just re-solve for
            # the new class order (measure indices must line up).
            return None
        perm = _reorder_permutation(stored_classes, request.classes)
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

    def _read_or_solve(self, request: SolveRequest) -> Any:
        """Read-through, never write-back: a memoized solution, or a
        fresh one the caller reads and drops."""
        solution = self._memoized(request)
        return solution if solution is not None else _dispatch_solve(request)

    # ------------------------------------------------------------------
    # Batch evaluation
    # ------------------------------------------------------------------

    def evaluate_many(
        self,
        requests: Sequence[SolveRequest],
        strict: bool = False,
    ) -> list[SolveResult | FailedResult]:
        """Evaluate a batch: cache, share Q-grids, then solve the rest.

        Results are returned in request order, and are byte-identical
        whether solved, read off a shared grid or served from cache.
        Each leftover miss is solved once, serially — misses equal as
        requests share that solve.  Solution objects are read through
        :meth:`solution_for`'s memo but never written back: only
        results are kept.  A request whose solver raises a
        :class:`~repro.exceptions.CrossbarError` comes back as a
        :class:`FailedResult` in its slot while the rest of the batch
        completes; ``strict=True`` re-raises the first such error in
        request order instead.
        """
        requests = list(requests)
        began = time.perf_counter()
        breaker = self.disk.breaker if self.disk is not None else None
        trips_before = breaker.trips if breaker is not None else 0
        results: list[SolveResult | FailedResult | None] = (
            [None] * len(requests)
        )
        tiers = {"memory_hits": 0, "disk_hits": 0}

        misses: list[tuple[int, SolveRequest, str]] = []
        for i, request in enumerate(requests):
            if not isinstance(request, SolveRequest):
                raise ConfigurationError(
                    f"evaluate_many needs SolveRequest items, got "
                    f"{request!r}"
                )
            key = request.cache_key
            hit, tier = self._probe(key, request)
            if hit is not None:
                tiers[tier] += 1
                results[i] = hit
            else:
                misses.append((i, request, key))

        grid_groups, grid_points, leftover = self._serve_grid_groups(
            misses, results
        )
        # Grid-group fallbacks join the tail: restore request order so
        # a strict batch raises its first failure.
        leftover.sort(key=lambda miss: miss[0])
        failed = self._solve_leftover(leftover, strict, results)

        # The batch's counters, under one lock.
        self.stats._add(
            lookups=len(requests),
            solves=len(misses) - failed,
            grid_reads=grid_points,
            **tiers,
        )
        metrics = BatchMetrics(
            requests=len(requests),
            memory_hits=tiers["memory_hits"],
            disk_hits=tiers["disk_hits"],
            grid_groups=grid_groups,
            grid_points=grid_points,
            solved=len(leftover),
            elapsed=time.perf_counter() - began,
            failed=failed,
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

    def _solve_leftover(
        self,
        misses: list[tuple[int, SolveRequest, str]],
        strict: bool,
        results: list[SolveResult | FailedResult | None],
    ) -> int:
        """Solve each miss, store its result and place it in its slot;
        returns the number of :class:`FailedResult` envelopes.

        A miss equal as a request to an earlier one (:func:`_twins`)
        takes that one's result object, carrying its own request when
        that is not the very same object (class names are not part of
        the key).
        """
        failed = 0
        twins = _twins(misses)
        for k, (i, request, key) in enumerate(misses):
            if twins[k] == k:
                result = self._solve_or_fail(request, strict)
            else:
                result = results[misses[twins[k]][0]]
                if result.request is not request:
                    result = replace(result, request=request)
            if isinstance(result, FailedResult):
                failed += 1
            else:
                self._store(key, result)
            results[i] = result
        return failed

    def _solve_or_fail(
        self, request: SolveRequest, strict: bool
    ) -> SolveResult | FailedResult:
        """Solve one batch miss.  A
        :class:`~repro.exceptions.CrossbarError` becomes a
        :class:`FailedResult` (re-raised instead when ``strict``); any
        other exception propagates."""
        began = time.perf_counter()
        try:
            solution = self._read_or_solve(request)
        except CrossbarError as exc:
            if strict:
                raise
            detail = f"{type(exc).__name__}: {str(exc)[:120]}"
            logger.warning(
                "request failed %s",
                kv(error=type(exc).__name__, detail=detail),
            )
            return FailedResult(
                request=request,
                error_type=type(exc).__name__,
                error_message=str(exc),
            )
        return _result_from(request, solution, time.perf_counter() - began)

    def kernel_work(self, requests: Sequence[SolveRequest]) -> int | None:
        """An upper estimate of the Algorithm 1 work
        :meth:`evaluate_many` would do for ``requests``, or None when
        the batch may read or write the disk tier or run a solver
        that is not a grid method.

        Work is counted in grid cells of one swept class.  Each grid
        group :meth:`evaluate_many` would form (:func:`_mix_groups`)
        counts one solve at its componentwise-max dims: ``(n1 + 1) x
        (n2 + 1)`` cells, plus :data:`WORK_PER_COLUMN` per column, per
        sweep class and per fold pass of a smooth class (a whole-grid
        NumPy pass, counted like a sweep class, which overstates it),
        plus :data:`WORK_PER_SOLVE`.  A group whose max dims fail the
        classes' admissibility check falls back to one solve per
        member, and is counted so.  Each member adds
        :data:`WORK_PER_MEMBER`.  Cache hits count as misses.  The
        estimate is O(members): the daemon asks it on the event loop.
        """
        if self.disk is not None:
            return None
        groups, rest = _mix_groups(requests)
        if rest:
            return None
        work = len(requests) * WORK_PER_MEMBER
        for members in groups:
            classes = requests[members[0]].classes
            dims = [requests[i].dims for i in members]
            n1 = max(d.n1 for d in dims)
            n2 = max(d.n2 for d in dims)
            if len(members) == 1 or _admissible(n1, n2, classes):
                work += _solve_work(n1, n2, classes)
            else:
                work += sum(_solve_work(d.n1, d.n2, classes) for d in dims)
        return work

    # ------------------------------------------------------------------
    # Cache bookkeeping
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every in-memory entry (the disk cache is left alone)."""
        self._results.clear()
        self._solutions.clear()

    def cache_entries(self) -> dict[str, int]:
        """Entries held in memory: ``results`` (the result LRU) and
        ``solutions`` (the :meth:`solution_for` memo of full solution
        objects, the heavy one)."""
        return {
            "results": len(self._results),
            "solutions": len(self._solutions),
        }

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
        if memory_only:
            hit = self._results.get(request.cache_key)
            if hit is None:
                self.stats._add(lookups=1)
                return None
            self.stats._add(lookups=1, memory_hits=1)
            return self._served(request.cache_key, hit, request)
        return self._lookup(request.cache_key, request)

    def cached_results(
        self, requests: Sequence[SolveRequest]
    ) -> list[SolveResult | None]:
        """``cached_result(request, memory_only=True)`` for every
        request, in order, counted in ``stats`` once: the daemon's fast
        path for the members of a ``/batch``."""
        found: list[SolveResult | None] = []
        hits = 0
        for request in requests:
            if not isinstance(request, SolveRequest):
                raise ConfigurationError(
                    f"cached_results needs SolveRequest items, got "
                    f"{request!r}"
                )
            key = request.cache_key
            hit = self._results.get(key)
            if hit is not None:
                hit = self._served(key, hit, request)
                hits += 1
            found.append(hit)
        self.stats._add(lookups=len(found), memory_hits=hits)
        return found

    def _lookup(self, key: str, request: SolveRequest) -> SolveResult | None:
        """:meth:`_probe`, counted in ``stats``."""
        hit, tier = self._probe(key, request)
        if hit is None:
            self.stats._add(lookups=1)
        else:
            self.stats._add(lookups=1, **{tier: 1})
        return hit

    def _probe(
        self, key: str, request: SolveRequest
    ) -> tuple[SolveResult | None, str | None]:
        """A cached result for ``request`` and the ``stats`` counter of
        the tier that held it (``"memory_hits"``/``"disk_hits"``), or
        ``(None, None)``.  Counts nothing."""
        hit = self._results.get(key)
        if hit is not None:
            return self._served(key, hit, request), "memory_hits"
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
                    return None, None
                # Stores the served copy: later hits copy nothing.
                return self._served(key, result, request), "disk_hits"
        return None, None

    def _store(self, key: str, result: SolveResult) -> None:
        """Keep ``result`` (the caller counts it in ``stats.solves``)."""
        self._results.put(key, result)
        if self.disk is not None:
            self.disk.store(key, result.to_dict())

    def _served(
        self, key: str, hit: SolveResult, request: SolveRequest
    ) -> SolveResult:
        """A cached result as served to ``request``.

        The LRU holds one served copy per result (``from_cache=True``,
        ``elapsed=0.0``), made on the first hit and swapped in under
        ``key``: a repeat of the stored request gets that same object
        back, with nothing copied.  The store path makes no copy, so a
        result that is never hit (a sweep point) never pays for one.
        Another class order gets a re-addressed copy of it.
        """
        if not hit.from_cache:
            hit = replace(hit, from_cache=True, elapsed=0.0)
            self._results.put(key, hit)
        return readdressed(hit, request)

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
        ratio read at its own ``(n1, n2)``.  The grid is read and
        dropped: only the members' results are stored.  Returns the
        group count, points served, and the misses left for individual
        solving.
        """
        indices, rest = _mix_groups([miss[1] for miss in misses])
        leftover = [misses[k] for k in rest]

        grid_groups = grid_points = 0
        for group in indices:
            members = [misses[k] for k in group]
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
                solution = self._read_or_solve(base_request.with_dims(top))
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
            solved_by = solution.method
            for (i, request, key), measures in zip(members, points):
                result = SolveResult.from_grid_read(
                    request, *measures, solved_by, elapsed
                )
                self._store(key, result)
                results[i] = result
            grid_points += len(members)
        return grid_groups, grid_points, leftover


# ----------------------------------------------------------------------
# The library's default engine
# ----------------------------------------------------------------------

_default_lock = threading.Lock()


@functools.cache
def _build_default_engine() -> BatchSolver:
    return BatchSolver()


def get_default_engine() -> BatchSolver:
    """The engine the library convenience layer routes through.

    Built once, on first use, and never replaced: ``solve`` and
    ``solve_many`` without an engine, the full-solution delegates
    (``CrossbarModel.solve``, sweeps, validation, degraded and
    multistage analysis, pure ``solve_robust``) share its memo.  A
    daemon or a CLI command builds its own engine instead, so its
    counters and cache describe only what it served.
    """
    with _default_lock:
        return _build_default_engine()

"""Resilient solver facade: an ordered fallback chain with diagnostics.

A single numerical hiccup should not kill a whole parameter sweep.
:func:`solve_robust` runs an ordered chain of solution methods —
by default

    MVA -> convolution/log -> convolution/scaled -> series -> exact

— under a wall-clock budget, applies numerical-health checks to each
result (finite, blocking within ``[0, 1]``, non-negative
concurrency), and returns the **first healthy solution** together
with a :class:`SolverDiagnostics` record of every attempt: what ran,
what failed, why, and how long it took.  Callers that want a solution
"no matter which algorithm produced it" call this instead of a
specific solver; callers that want forensics read the diagnostics.

The chain is data: tests (and adventurous users) can pass their own
``chain`` of :class:`SolverSpec` entries to inject failures, reorder
methods, or add new ones.

Budget semantics
----------------
``total_budget`` caps the whole chain: once spent, remaining solvers
are recorded as ``skipped`` (reason ``"time budget exhausted"``).
``solver_budget`` caps each individual attempt; an attempt that
exceeds it is recorded as ``timeout`` and the chain moves on.  Timed
attempts run on a worker thread so the facade can abandon them — the
abandoned thread finishes (or not) in the background, which is the
best pure-Python can do without killing the interpreter; budget users
should treat budgets as scheduling hints, not hard real-time bounds.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import NamedTuple

from ..core.convolution import solve_convolution
from ..core.exact import solve_exact
from ..core.mva import solve_mva
from ..core.series_solver import solve_series
from ..core.state import SwitchDimensions
from ..core.traffic import TrafficClass
from ..exceptions import ComputationError, CrossbarError
from ..logging import get_logger, kv
from ..validation import EXACT_CAPACITY_LIMIT

__all__ = [
    "NoHealthySolutionError",
    "RobustSolution",
    "SolverAttempt",
    "SolverDiagnostics",
    "SolverSpec",
    "check_solution_health",
    "default_chain",
    "solve_robust",
]

logger = get_logger("robust.facade")

#: Attempt outcomes recorded in :class:`SolverAttempt.status`.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_UNHEALTHY = "unhealthy"
STATUS_TIMEOUT = "timeout"
STATUS_SKIPPED = "skipped"


class NoHealthySolutionError(ComputationError):
    """Every solver in the chain failed, timed out, or was rejected.

    Carries the full :class:`SolverDiagnostics` as ``diagnostics`` so
    callers can inspect (or log) exactly what was tried.
    """

    def __init__(self, diagnostics: "SolverDiagnostics") -> None:
        self.diagnostics = diagnostics
        super().__init__(
            "no solver produced a healthy solution:\n"
            + diagnostics.render()
        )


class SolverSpec(NamedTuple):
    """One entry of the fallback chain."""

    name: str
    solve: Callable[[SwitchDimensions, Sequence[TrafficClass]], object]
    #: Optional applicability guard; returns a skip reason or None.
    guard: Callable[[SwitchDimensions, Sequence[TrafficClass]], str | None] | None = None


@dataclass(frozen=True)
class SolverAttempt:
    """Outcome of one solver in the chain."""

    solver: str
    status: str  # one of the STATUS_* constants
    elapsed: float
    detail: str = ""


@dataclass(frozen=True)
class SolverDiagnostics:
    """Every attempt the facade made, in chain order."""

    attempts: tuple[SolverAttempt, ...]
    chosen: str | None
    elapsed: float

    @property
    def attempted(self) -> tuple[str, ...]:
        """Names of solvers that actually ran (not skipped)."""
        return tuple(
            a.solver for a in self.attempts if a.status != STATUS_SKIPPED
        )

    def attempt(self, solver: str) -> SolverAttempt:
        """The recorded attempt for ``solver`` (raises KeyError if absent)."""
        for a in self.attempts:
            if a.solver == solver:
                return a
        raise KeyError(solver)

    def render(self) -> str:
        lines = [
            f"solver chain ({len(self.attempts)} attempts, "
            f"{self.elapsed:.3g}s total):"
        ]
        for a in self.attempts:
            detail = f"  [{a.detail}]" if a.detail else ""
            marker = "*" if a.solver == self.chosen else " "
            lines.append(
                f" {marker} {a.solver:>18}: {a.status:<9} "
                f"{a.elapsed:8.3g}s{detail}"
            )
        lines.append(f"chosen: {self.chosen or 'NONE'}")
        return "\n".join(lines)


def _exact_guard(
    dims: SwitchDimensions, classes: Sequence[TrafficClass]
) -> str | None:
    if dims.capacity > EXACT_CAPACITY_LIMIT:
        return f"capacity {dims.capacity} > {EXACT_CAPACITY_LIMIT}"
    return None


def default_chain() -> tuple[SolverSpec, ...]:
    """The standard fallback order.

    Fastest-but-fussiest first: Algorithm 2 (MVA) is cheapest but has a
    smooth-class stability guard; Algorithm 1 in log then scaled mode
    covers virtually everything; the diagonal series solver is an
    independent formulation; exact rationals are the slow last resort
    (guarded by capacity).
    """
    return (
        SolverSpec("mva", solve_mva),
        SolverSpec(
            "convolution/log",
            lambda dims, classes: solve_convolution(dims, classes, mode="log"),
        ),
        SolverSpec(
            "convolution/scaled",
            lambda dims, classes: solve_convolution(
                dims, classes, mode="scaled"
            ),
        ),
        SolverSpec("series", solve_series),
        SolverSpec("exact", solve_exact, _exact_guard),
    )


def check_solution_health(solution: object, n_classes: int) -> str | None:
    """Numerical-health verdict for a solved model.

    Returns a rejection reason, or None when the solution is healthy:
    every per-class blocking is finite and within ``[0, 1]`` (small
    float fuzz tolerated) and every concurrency is finite and
    non-negative.
    """
    tol = 1e-9
    for r in range(n_classes):
        try:
            blocking = solution.blocking(r)
            concurrency = solution.concurrency(r)
        except CrossbarError as exc:
            return f"measure evaluation failed for class {r}: {exc}"
        if not math.isfinite(blocking):
            return f"blocking[{r}] = {blocking} is not finite"
        if blocking < -tol or blocking > 1.0 + tol:
            return f"blocking[{r}] = {blocking:.6g} outside [0, 1]"
        if not math.isfinite(concurrency):
            return f"concurrency[{r}] = {concurrency} is not finite"
        if concurrency < -tol:
            return f"concurrency[{r}] = {concurrency:.6g} is negative"
    return None


@dataclass(frozen=True)
class RobustSolution:
    """A healthy solution plus the forensic trail that produced it."""

    solution: object
    diagnostics: SolverDiagnostics

    @property
    def method(self) -> str:
        """Name of the chain entry that produced the solution."""
        return self.diagnostics.chosen or ""


def _run_with_timeout(
    spec: SolverSpec,
    dims: SwitchDimensions,
    classes: Sequence[TrafficClass],
    timeout: float | None,
) -> object:
    """Run one solver, abandoning it after ``timeout`` seconds.

    A timed-out solver cannot be killed, only abandoned: the worker
    thread is marked *daemonic* so an abandoned long-running solve can
    never stall interpreter exit (a ``ThreadPoolExecutor`` worker is
    non-daemon and would be joined at shutdown — exactly the hang this
    function exists to prevent).
    """
    if timeout is None or not math.isfinite(timeout):
        return spec.solve(dims, classes)
    box: list[tuple[bool, object]] = []

    def runner() -> None:
        try:
            box.append((True, spec.solve(dims, classes)))
        except BaseException as exc:  # noqa: BLE001 - relayed below
            box.append((False, exc))

    thread = threading.Thread(
        target=runner, daemon=True, name=f"robust-{spec.name}"
    )
    thread.start()
    thread.join(timeout)
    if not box:
        raise FutureTimeoutError(
            f"solver {spec.name!r} exceeded its {timeout:.3g}s budget"
        )
    ok, value = box[0]
    if not ok:
        raise value
    return value


def solve_robust(
    dims: SwitchDimensions,
    classes: Sequence[TrafficClass],
    chain: Sequence[SolverSpec] | None = None,
    total_budget: float | None = None,
    solver_budget: float | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> RobustSolution:
    """Solve with the fallback chain; never return an unhealthy answer.

    With every knob at its default the call is *pure* (a deterministic
    function of ``dims`` and ``classes``), so it is memoized through the
    library's default engine (:func:`repro.engine.get_default_engine`)
    — repeated robust solves of the same model, e.g. across
    availability-weighted degraded scenarios, cost one chain run.
    Custom chains, budgets, or clocks bypass the cache and run
    directly.

    Parameters
    ----------
    dims, classes:
        The model, exactly as for any individual solver.
    chain:
        Fallback order; defaults to :func:`default_chain`.
    total_budget:
        Wall-clock seconds for the whole chain.  Solvers that would
        start after the budget is spent are recorded as skipped.
    solver_budget:
        Wall-clock seconds for each individual attempt.
    clock:
        Injectable monotonic clock (tests use a fake to exercise the
        budget paths deterministically).

    Raises
    ------
    NoHealthySolutionError
        When no solver returns a healthy solution; its ``diagnostics``
        attribute records every attempt.
    """
    pure = (
        chain is None
        and total_budget is None
        and solver_budget is None
        and clock is time.perf_counter
    )
    if pure and classes:
        from ..api import SolveRequest
        from ..engine import get_default_engine
        from ..methods import SolveMethod

        request = SolveRequest(dims, tuple(classes), SolveMethod.ROBUST)
        return get_default_engine().solution_for(request)
    return _solve_robust_impl(
        dims, classes, chain, total_budget, solver_budget, clock
    )


def _solve_robust_direct(
    dims: SwitchDimensions, classes: Sequence[TrafficClass]
) -> RobustSolution:
    """Uncached default-chain run (the engine's dispatch target)."""
    return _solve_robust_impl(dims, classes, None, None, None,
                              time.perf_counter)


def _solve_robust_impl(
    dims: SwitchDimensions,
    classes: Sequence[TrafficClass],
    chain: Sequence[SolverSpec] | None,
    total_budget: float | None,
    solver_budget: float | None,
    clock: Callable[[], float],
) -> RobustSolution:
    classes = tuple(classes)
    specs = tuple(chain) if chain is not None else default_chain()
    if not specs:
        raise ComputationError("solver chain is empty")
    start = clock()
    attempts: list[SolverAttempt] = []

    def record(spec_name: str, status: str, began: float, detail: str) -> None:
        elapsed = max(0.0, clock() - began)
        attempts.append(
            SolverAttempt(
                solver=spec_name, status=status, elapsed=elapsed,
                detail=detail,
            )
        )
        logger.log(
            20 if status == STATUS_OK else 30,  # INFO / WARNING
            "solver attempt %s",
            kv(solver=spec_name, status=status, elapsed=elapsed,
               detail=detail or "-"),
        )

    for spec in specs:
        began = clock()
        if total_budget is not None:
            remaining = total_budget - (began - start)
            if remaining <= 0.0:
                record(spec.name, STATUS_SKIPPED, began,
                       "time budget exhausted")
                continue
        else:
            remaining = None
        if spec.guard is not None:
            reason = spec.guard(dims, classes)
            if reason:
                record(spec.name, STATUS_SKIPPED, began, reason)
                continue
        timeout = solver_budget
        if remaining is not None:
            timeout = remaining if timeout is None else min(timeout, remaining)
        try:
            solution = _run_with_timeout(spec, dims, classes, timeout)
        except FutureTimeoutError:
            record(spec.name, STATUS_TIMEOUT, began,
                   f"exceeded {timeout:.3g}s")
            continue
        except CrossbarError as exc:
            record(spec.name, STATUS_ERROR, began,
                   f"{type(exc).__name__}: {str(exc)[:120]}")
            continue
        reason = check_solution_health(solution, len(classes))
        if reason is not None:
            record(spec.name, STATUS_UNHEALTHY, began, reason)
            continue
        record(spec.name, STATUS_OK, began, "")
        diagnostics = SolverDiagnostics(
            attempts=tuple(attempts),
            chosen=spec.name,
            elapsed=max(0.0, clock() - start),
        )
        return RobustSolution(solution=solution, diagnostics=diagnostics)

    diagnostics = SolverDiagnostics(
        attempts=tuple(attempts), chosen=None,
        elapsed=max(0.0, clock() - start),
    )
    raise NoHealthySolutionError(diagnostics)

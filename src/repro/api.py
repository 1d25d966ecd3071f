"""The unified solve API: typed requests, typed results, one entry point.

Historically the library grew three divergent front doors —
``CrossbarModel.solve`` (returns a :class:`PerformanceSolution`),
``repro.robust.solve_robust`` (returns a :class:`RobustSolution`) and
``repro.experiments.run_sweep`` (returns CSV-ish dicts) — each with its
own spelling of the same inputs.  This module is the single typed entry
point they now all delegate to:

>>> from repro.api import SolveRequest, solve
>>> from repro import TrafficClass
>>> request = SolveRequest.square(8, [TrafficClass.poisson(0.05, name="d")])
>>> result = solve(request)
>>> 0.0 <= result.blocking[0] <= 1.0
True

* :class:`SolveRequest` — a frozen, hashable description of *what* to
  solve: dimensions, traffic mix, method.  Requests canonicalize into
  cache keys, which is what makes the batched engine
  (:mod:`repro.engine`) able to memoize and deduplicate work.
* :class:`SolveResult` — a frozen, JSON-serializable record of every
  scalar measure at the requested dimensions.  Unlike
  :class:`PerformanceSolution` it holds no grids, so it is cheap to
  cache on disk and to ship across process boundaries.
* :func:`solve` / :func:`solve_many` — evaluate requests through the
  process-wide default :class:`~repro.engine.BatchSolver`; batches get
  Q-grid sharing, memoization and optional process parallelism.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from .core.state import SwitchDimensions
from .core.traffic import TrafficClass
from .exceptions import ConfigurationError
from .methods import SolveMethod

if TYPE_CHECKING:  # pragma: no cover
    from .engine.batch import BatchSolver

__all__ = [
    "SolveMethod",
    "SolveRequest",
    "SolveResult",
    "solve",
    "solve_many",
]

#: Bumped whenever the result schema changes; persisted cache entries
#: from other versions are treated as stale.
RESULT_SCHEMA_VERSION = 1


def _coerce_dims(dims: "SwitchDimensions | tuple[int, int] | int") -> SwitchDimensions:
    if isinstance(dims, SwitchDimensions):
        return dims
    if isinstance(dims, int):
        return SwitchDimensions.square(dims)
    if isinstance(dims, tuple) and len(dims) == 2:
        return SwitchDimensions(*dims)
    raise ConfigurationError(
        f"dims must be SwitchDimensions, an int (square) or an (n1, n2) "
        f"tuple, got {dims!r}"
    )


@dataclass(frozen=True)
class SolveRequest:
    """A hashable, immutable description of one solve.

    Parameters
    ----------
    dims:
        Switch dimensions (also accepts an int for a square switch or
        an ``(n1, n2)`` tuple).
    classes:
        The traffic mix; stored as a tuple.
    method:
        A :class:`SolveMethod` (strings and the historical
        ``"convolution/log"`` aliases are coerced).
    """

    dims: SwitchDimensions
    classes: tuple[TrafficClass, ...]
    method: SolveMethod = SolveMethod.CONVOLUTION

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", _coerce_dims(self.dims))
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "method", SolveMethod.coerce(self.method))
        if not self.classes:
            raise ConfigurationError(
                "a solve request needs at least one traffic class"
            )
        for cls in self.classes:
            if not isinstance(cls, TrafficClass):
                raise ConfigurationError(
                    f"classes must be TrafficClass instances, got {cls!r}"
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        n1: int,
        n2: int,
        classes: Sequence[TrafficClass],
        method: SolveMethod | str = SolveMethod.CONVOLUTION,
    ) -> "SolveRequest":
        """Build from plain integers."""
        return cls(SwitchDimensions(n1, n2), tuple(classes), method)

    @classmethod
    def square(
        cls,
        n: int,
        classes: Sequence[TrafficClass],
        method: SolveMethod | str = SolveMethod.CONVOLUTION,
    ) -> "SolveRequest":
        """An ``n x n`` switch (the paper's standard configuration)."""
        return cls(SwitchDimensions.square(n), tuple(classes), method)

    # ------------------------------------------------------------------

    @property
    def cache_key(self) -> str:
        """Canonical key: dims, method, *sorted* traffic-class params.

        Class order does not affect the product-form measures, so two
        requests differing only by class permutation share one key (and
        therefore one cached solve).  Memoized on the (frozen)
        instance: the serving hot path reads it several times per
        request and the canonicalization is not free.  Requests made by
        :meth:`with_dims` and :meth:`with_method` carry the traffic-mix
        part along with the class tuple, so a chain of derived requests
        (a decoded sweep) canonicalizes its mix once, not once per
        point.
        """
        key = self.__dict__.get("_cache_key_memo")
        if key is None:
            from .engine.keys import request_key

            key = request_key(
                self.dims, self.classes, self.method,
                self.__dict__.get("_mix_key_memo"),
            )
            object.__setattr__(self, "_cache_key_memo", key)
        return key

    def _derived(
        self, dims: SwitchDimensions, method: SolveMethod
    ) -> "SolveRequest":
        """This class tuple at ``dims`` under ``method``, with its mix key.

        ``dims`` and ``method`` must already be a
        :class:`SwitchDimensions` and a :class:`SolveMethod`; the class
        tuple was validated when this request was made, so nothing is
        checked again (no ``__post_init__``).  Only the derived request
        keeps the mix key: a request nothing derives from holds no
        second copy of its mix in the engine's caches.
        """
        mix = self.__dict__.get("_mix_key_memo")
        if mix is None:
            from .engine.keys import classes_key

            mix = classes_key(self.classes)
        request = object.__new__(type(self))
        # The fields in __init__'s order, so instances keep one layout.
        setattr_ = object.__setattr__
        setattr_(request, "dims", dims)
        setattr_(request, "classes", self.classes)
        setattr_(request, "method", method)
        setattr_(request, "_mix_key_memo", mix)
        return request

    def with_dims(self, dims: "SwitchDimensions | int") -> "SolveRequest":
        """Same traffic and method on a different switch."""
        return self._derived(_coerce_dims(dims), self.method)

    def with_method(self, method: SolveMethod | str) -> "SolveRequest":
        """Same model solved by a different method."""
        return self._derived(self.dims, SolveMethod.coerce(method))

    def to_dict(self) -> dict:
        """Flat JSON-ready record (``repro.io`` class schema)."""
        from .io import class_to_dict

        return {
            "n1": self.dims.n1,
            "n2": self.dims.n2,
            "method": self.method.value,
            "classes": [class_to_dict(c) for c in self.classes],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "SolveRequest":
        from .io import class_from_dict

        return cls(
            SwitchDimensions(int(record["n1"]), int(record["n2"])),
            tuple(class_from_dict(c) for c in record["classes"]),
            record.get("method", SolveMethod.CONVOLUTION),
        )


@dataclass(frozen=True)
class SolveResult:
    """Every scalar measure of one solved request, JSON-serializable.

    Per-class fields are tuples indexed like ``request.classes``.
    ``elapsed`` and ``from_cache`` are execution metadata and excluded
    from equality, so a cache hit compares equal to the solve that
    produced it.
    """

    request: SolveRequest
    #: Offered blocking ``1 - B_r`` per class (what the figures plot).
    blocking: tuple[float, ...]
    #: Mean concurrent connections ``E_r`` per class (paper §3).
    concurrency: tuple[float, ...]
    #: Fraction of offered requests accepted (call acceptance) per class.
    acceptance: tuple[float, ...]
    #: Completion rate ``mu_r E_r`` per class.
    throughput: tuple[float, ...]
    #: Weighted throughput ``W = sum w_r E_r`` (paper §4).
    revenue: float
    #: Mean occupied input/output pairs ``sum a_r E_r``.
    mean_occupancy: float
    #: ``mean_occupancy / min(N1, N2)``.
    utilization: float
    #: Provenance label of the algorithm that actually ran (the robust
    #: method reports the chain entry that produced the answer).
    solved_by: str = ""
    #: Wall-clock seconds of the producing solve (0 for cache hits).
    elapsed: float = field(default=0.0, compare=False)
    #: True when this result was served from a cache.
    from_cache: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.request.classes)
        for name in ("blocking", "concurrency", "acceptance", "throughput"):
            values = getattr(self, name)
            object.__setattr__(self, name, tuple(map(float, values)))
            if len(values) != n:
                raise ConfigurationError(
                    f"{name} has {len(values)} entries for {n} classes"
                )

    # ------------------------------------------------------------------
    # Derived measures
    # ------------------------------------------------------------------

    @property
    def dims(self) -> SwitchDimensions:
        return self.request.dims

    @property
    def classes(self) -> tuple[TrafficClass, ...]:
        return self.request.classes

    @property
    def non_blocking(self) -> tuple[float, ...]:
        """``B_r`` per class — paper eq. 4."""
        return tuple(1.0 - b for b in self.blocking)

    @property
    def call_congestion(self) -> tuple[float, ...]:
        """``1 - acceptance`` per class."""
        return tuple(1.0 - a for a in self.acceptance)

    @property
    def total_throughput(self) -> float:
        """``sum_r mu_r E_r``."""
        return math.fsum(self.throughput)

    # ------------------------------------------------------------------
    # Construction / serialization
    # ------------------------------------------------------------------

    @classmethod
    def from_solution(
        cls,
        request: SolveRequest,
        solution: Any,
        solved_by: str = "",
        elapsed: float = 0.0,
    ) -> "SolveResult":
        """Extract the scalar measures from any solved-model object.

        ``solution`` needs per-class ``blocking(r)``, ``concurrency(r)``
        and ``call_acceptance(r)`` accessors (all the library's solvers
        provide them); the aggregate measures are recomputed here with
        the same ``fsum`` formulas as :class:`PerformanceSolution`, so
        they agree bit-for-bit.
        """
        indices = range(len(request.classes))
        return cls.from_measures(
            request,
            blocking=tuple(solution.blocking(r) for r in indices),
            concurrency=tuple(solution.concurrency(r) for r in indices),
            acceptance=tuple(solution.call_acceptance(r) for r in indices),
            solved_by=solved_by or getattr(solution, "method", ""),
            elapsed=elapsed,
        )

    @classmethod
    def from_measures(
        cls,
        request: SolveRequest,
        blocking: tuple[float, ...],
        concurrency: tuple[float, ...],
        acceptance: tuple[float, ...],
        solved_by: str = "",
        elapsed: float = 0.0,
    ) -> "SolveResult":
        """Build from the per-class measures; aggregates derived here."""
        return cls(
            request, blocking, concurrency, acceptance,
            *_aggregates(request, concurrency),
            solved_by=solved_by, elapsed=elapsed,
        )

    @classmethod
    def from_grid_read(
        cls,
        request: SolveRequest,
        blocking: tuple[float, ...],
        concurrency: tuple[float, ...],
        acceptance: tuple[float, ...],
        solved_by: str,
        elapsed: float,
    ) -> "SolveResult":
        """:meth:`from_measures` for one point of
        :meth:`PerformanceSolution.read_points`, whose tuples already
        hold one Python float per class: they are stored as given,
        without ``__post_init__``'s conversion and length checks."""
        result = object.__new__(cls)
        # The fields in __init__'s order, so instances keep one layout.
        setattr_ = object.__setattr__
        setattr_(result, "request", request)
        setattr_(result, "blocking", blocking)
        setattr_(result, "concurrency", concurrency)
        setattr_(result, "acceptance", acceptance)
        (throughput, revenue, mean_occupancy,
         utilization) = _aggregates(request, concurrency)
        setattr_(result, "throughput", throughput)
        setattr_(result, "revenue", revenue)
        setattr_(result, "mean_occupancy", mean_occupancy)
        setattr_(result, "utilization", utilization)
        setattr_(result, "solved_by", solved_by)
        setattr_(result, "elapsed", elapsed)
        setattr_(result, "from_cache", False)
        return result

    def reordered(self, permutation: Sequence[int], request: SolveRequest) -> "SolveResult":
        """This result with classes permuted to match ``request``.

        ``permutation[i]`` is the index in *this* result holding the
        measures of ``request.classes[i]``.  Used by the engine when a
        cache hit was stored under a different (equivalent) class order.
        """
        pick = lambda values: tuple(values[j] for j in permutation)  # noqa: E731
        return replace(
            self,
            request=request,
            blocking=pick(self.blocking),
            concurrency=pick(self.concurrency),
            acceptance=pick(self.acceptance),
            throughput=pick(self.throughput),
        )

    def to_dict(self) -> dict:
        """Flat JSON-ready record (round-trips via :meth:`from_dict`)."""
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "request": self.request.to_dict(),
            "blocking": list(self.blocking),
            "concurrency": list(self.concurrency),
            "acceptance": list(self.acceptance),
            "throughput": list(self.throughput),
            "revenue": self.revenue,
            "mean_occupancy": self.mean_occupancy,
            "utilization": self.utilization,
            "solved_by": self.solved_by,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "SolveResult":
        return cls(
            request=SolveRequest.from_dict(record["request"]),
            blocking=tuple(record["blocking"]),
            concurrency=tuple(record["concurrency"]),
            acceptance=tuple(record["acceptance"]),
            throughput=tuple(record["throughput"]),
            revenue=float(record["revenue"]),
            mean_occupancy=float(record["mean_occupancy"]),
            utilization=float(record["utilization"]),
            solved_by=record.get("solved_by", ""),
        )


def _aggregates(
    request: SolveRequest, concurrency: Sequence[float]
) -> tuple[tuple[float, ...], float, float, float]:
    """``(throughput, revenue, mean_occupancy, utilization)`` of the
    per-class concurrencies, with :class:`PerformanceSolution`'s
    ``fsum`` formulas (so they agree bit for bit)."""
    classes = request.classes
    mean_occupancy = math.fsum([c.a * e for c, e in zip(classes, concurrency)])
    capacity = request.dims.capacity
    return (
        tuple([c.mu * e for c, e in zip(classes, concurrency)]),
        math.fsum([c.weight * e for c, e in zip(classes, concurrency)]),
        mean_occupancy,
        mean_occupancy / capacity if capacity else 0.0,
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def solve(
    request: SolveRequest, *, engine: "BatchSolver | None" = None
) -> SolveResult:
    """Solve one request through the (default) batched engine.

    The engine memoizes: repeated calls with an equivalent request are
    served from cache.
    """
    if not isinstance(request, SolveRequest):
        raise ConfigurationError(
            f"solve() needs a SolveRequest, got {request!r}"
        )
    from .engine import get_default_engine

    return (engine or get_default_engine()).solve(request)


def solve_many(
    requests: Sequence[SolveRequest],
    *,
    engine: "BatchSolver | None" = None,
    parallel: bool | None = None,
    strict: bool = False,
) -> list[SolveResult]:
    """Solve a batch of requests with caching, Q-grid reuse and fan-out.

    See :meth:`repro.engine.BatchSolver.evaluate_many` for the batching
    semantics; results come back in request order.  A request whose
    solver raises yields a :class:`repro.engine.FailedResult` in its
    slot (check ``getattr(result, "failed", False)``) while the rest of
    the batch completes; ``strict=True`` re-raises the first failure
    instead.
    """
    from .engine import get_default_engine

    return (engine or get_default_engine()).evaluate_many(
        requests, parallel=parallel, strict=strict
    )

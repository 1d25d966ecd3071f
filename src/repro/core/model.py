"""High-level facade: configure a crossbar and solve it.

:class:`CrossbarModel` bundles the switch dimensions and traffic mix
and dispatches to any of the library's solution methods:

======================  =====================================================
``method``              implementation
======================  =====================================================
``"convolution"``       Algorithm 1 (paper §5) in log domain — the default
``"convolution-scaled"``Algorithm 1 with §6 dynamic scaling (mantissa/exp)
``"convolution-float"`` Algorithm 1 unscaled (raises when it over/underflows)
``"mva"``               Algorithm 2 (paper §5.1), ratio domain
``"exact"``             Algorithm 1 in exact rational arithmetic
``"brute-force"``       direct summation over the state space (eq. 2-3)
======================  =====================================================

Example
-------
>>> from repro import CrossbarModel, TrafficClass
>>> model = CrossbarModel.square(
...     16,
...     [TrafficClass.poisson(0.02, name="data"),
...      TrafficClass.from_moments(0.5, peakedness=2.0, name="video")],
... )
>>> solution = model.solve()
>>> round(solution.blocking(0), 6) >= 0.0
True
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..exceptions import ConfigurationError
from ..methods import SolveMethod
from .measures import PerformanceSolution
from .productform import StateDistribution, solve_brute_force
from .state import SwitchDimensions, state_space_size
from .traffic import TrafficClass

__all__ = ["CrossbarModel", "solve_brute_force_solution"]

#: Methods accepted by :meth:`CrossbarModel.solve` (kept for backward
#: compatibility; the canonical list is :class:`repro.SolveMethod`).
METHODS = (
    SolveMethod.CONVOLUTION.value,
    SolveMethod.CONVOLUTION_SCALED.value,
    SolveMethod.CONVOLUTION_FLOAT.value,
    SolveMethod.MVA.value,
    SolveMethod.EXACT.value,
    SolveMethod.BRUTE_FORCE.value,
)


@dataclass(frozen=True)
class CrossbarModel:
    """An ``N1 x N2`` asynchronous crossbar with a fixed traffic mix."""

    dims: SwitchDimensions
    classes: tuple[TrafficClass, ...]

    def __post_init__(self) -> None:
        if not self.classes:
            raise ConfigurationError(
                "a crossbar model needs at least one traffic class"
            )
        for cls in self.classes:
            if cls.a <= self.dims.capacity:
                cls.validate_for(self.dims.n1, self.dims.n2)

    @classmethod
    def create(
        cls, n1: int, n2: int, classes: Sequence[TrafficClass]
    ) -> "CrossbarModel":
        """Build from plain integers."""
        return cls(SwitchDimensions(n1, n2), tuple(classes))

    @classmethod
    def square(
        cls, n: int, classes: Sequence[TrafficClass]
    ) -> "CrossbarModel":
        """An ``n x n`` switch (the paper's standard configuration)."""
        return cls(SwitchDimensions.square(n), tuple(classes))

    # ------------------------------------------------------------------

    @property
    def state_space_size(self) -> int:
        """Number of states in ``Gamma(N)``."""
        return state_space_size(self.dims, self.classes)

    def solve(
        self, method: SolveMethod | str = SolveMethod.CONVOLUTION
    ) -> PerformanceSolution:
        """Solve for all performance measures.

        See the module docstring for the method table.  All methods
        return the same :class:`PerformanceSolution` interface and agree
        to within floating-point error (the test suite asserts this).

        This is now a thin delegate over the process-wide batched
        engine (:mod:`repro.engine`): repeated solves of an equivalent
        model are served from its memo.
        """
        from ..api import SolveRequest
        from ..engine import get_default_engine

        request = SolveRequest(self.dims, self.classes, method)
        return get_default_engine().solution_for(request)

    def distribution(self) -> StateDistribution:
        """The full stationary distribution (brute-force enumeration).

        Only practical for moderate state spaces; gives access to
        measures the ratio algorithms cannot express (e.g. time
        congestion, the occupancy histogram).
        """
        return solve_brute_force(self.dims, self.classes)

    def with_class(self, new_class: TrafficClass) -> "CrossbarModel":
        """A copy of this model with one more traffic class."""
        return CrossbarModel(self.dims, self.classes + (new_class,))

    def moment_report(self) -> dict:
        """Means, variances, carried peakedness and occupancy moments.

        Convenience wrapper over :mod:`repro.core.moments`; returns a
        JSON-friendly dict with one entry per class plus occupancy
        statistics.
        """
        from .moments import (
            carried_peakedness,
            concurrency_variance,
            factorial_moment,
            occupancy_pmf,
            occupancy_variance,
        )

        per_class = []
        for r, cls in enumerate(self.classes):
            mean = factorial_moment(self.dims, self.classes, r, 1)
            per_class.append(
                {
                    "name": cls.name or f"class-{r}",
                    "mean": mean,
                    "variance": concurrency_variance(
                        self.dims, self.classes, r
                    ),
                    "carried_peakedness": carried_peakedness(
                        self.dims, self.classes, r
                    ),
                    "offered_peakedness": cls.peakedness,
                }
            )
        pmf = occupancy_pmf(self.dims, self.classes)
        return {
            "classes": per_class,
            "occupancy_mean": sum(m * p for m, p in enumerate(pmf)),
            "occupancy_variance": occupancy_variance(
                self.dims, self.classes
            ),
            "occupancy_pmf": pmf,
        }

    def scaled_to(self, n: int) -> "CrossbarModel":
        """Same aggregate ("tilde") traffic on an ``n x n`` switch.

        Re-derives the per-pair parameters so that ``alpha~`` and
        ``beta~`` stay constant — exactly how the paper sweeps system
        size in Figures 1-4.
        """
        new_classes = []
        for cls in self.classes:
            new_classes.append(
                TrafficClass.from_aggregate(
                    cls.aggregate_alpha(self.dims.n2),
                    cls.aggregate_beta(self.dims.n2),
                    n2=n,
                    mu=cls.mu,
                    a=cls.a,
                    weight=cls.weight,
                    name=cls.name,
                )
            )
        return CrossbarModel(SwitchDimensions.square(n), tuple(new_classes))


def solve_brute_force_solution(
    dims: SwitchDimensions, classes: Sequence[TrafficClass]
) -> PerformanceSolution:
    """Brute-force state-space summation as the common solution type.

    The H grids are only filled at the full dimensions (sub-dimension
    queries would need one enumeration each), which is enough for the
    standard measures at ``N``; Poisson concurrency reads H directly
    and bursty concurrency recurses into sub-grids, so those cells are
    filled by solving reduced systems when a bursty class is present.
    """
    import numpy as np

    from .state import permutation

    classes = tuple(classes)
    dist = solve_brute_force(dims, classes)
    h_grids = []
    needs_diagonal = any(c.is_bursty for c in classes)
    for r, cls in enumerate(classes):
        grid = np.zeros((dims.n1 + 1, dims.n2 + 1))
        a = cls.a
        points = [(dims.n1, dims.n2)]
        if needs_diagonal:
            m1, m2 = dims.n1 - a, dims.n2 - a
            while min(m1, m2) >= a:
                points.append((m1, m2))
                m1 -= a
                m2 -= a
        for m1, m2 in points:
            sub = SwitchDimensions(m1, m2)
            sub_dist = (
                dist if (m1, m2) == (dims.n1, dims.n2)
                else solve_brute_force(sub, classes)
            )
            grid[m1, m2] = sub_dist.non_blocking_probability(r) * (
                permutation(m1, a) * permutation(m2, a)
            )
        h_grids.append(grid)
    return PerformanceSolution(
        dims=dims,
        classes=classes,
        h=tuple(h_grids),
        log_q=None,
        method="brute-force",
    )


def _solution_from_distribution(
    model: CrossbarModel, dist: StateDistribution
) -> PerformanceSolution:
    """Backward-compatible wrapper over :func:`solve_brute_force_solution`."""
    del dist  # recomputed; kept only for signature compatibility
    return solve_brute_force_solution(model.dims, model.classes)

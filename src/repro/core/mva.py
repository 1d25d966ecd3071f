"""Algorithm 2: mean-value analysis in the ratio domain.

The paper's Section 5.1 recasts the recurrence of Algorithm 1 purely in
terms of the ratios

    ``F_i(n) = Q(n - 1_i) / Q(n)``        (eq. 12)
    ``H_r(n) = Q(n - a_r I) / Q(n)``      (eq. 13)
    ``D(r, n) = sum_m (beta_r/mu_r)^m Q(n - m a_r I)/Q(n)``  (eq. 17)

so that no quantity ever leaves a moderate numeric range — the
numerical-stability advantage the paper highlights.  The printed
Algorithm 2 (Step 1/2) suffers from typesetting damage, so we re-derive
the recursion from the Algorithm-1 recurrence; the mathematical content
(the ``F/H/L/D`` system of eqs. 14, 18-20) is identical.

Derivation
----------
Divide eq. 10 (written at the point ``n``, entered along axis ``i``) by
``Q(n)``:

    ``n_i = F_i(n) + sum_{r in R1} a_r rho_r H_r(n)
                   + sum_{r in R2} a_r rho_r Dhat(r, n)``

where ``Dhat(r, n) = V(n, r)/Q(n) = H_r(n) (1 + b_r Dhat(r, n - a_r I))``
with ``b_r = beta_r/mu_r`` (this is eq. 19 in the paper's ``D``
normalization).  ``H_r(n)`` telescopes into a product of ``F`` factors
along any monotone lattice path from ``n - a_r I`` to ``n`` (eq. 13);
choosing the path that *ends* with a step along axis ``i`` factors out
the unknown:

    ``H_r(n) = F_i(n) * K_{ri}(n)``       (the paper's ``L`` of eq. 14/20)

with ``K_{ri}(n)`` a product of previously computed ``F`` values.
Substituting back and solving for ``F_i(n)``:

    ``F_i(n) = n_i / (1 + sum_r a_r rho_r K_{ri}(n) c_r(n))``

with ``c_r(n) = 1`` for Poisson classes and
``c_r(n) = 1 + b_r Dhat(r, n - a_r I)`` for BPP classes.  Boundary
values follow from ``Q(n1, 0) = 1/n1!``: ``F_1(n1, 0) = n1`` and
``F_2(0, n2) = n2`` (Step 1 of the paper, after fixing the typos).

Both ``F_1`` and ``F_2`` are filled for every grid point; the identity
``F_1(n) K_{r1}(n) == F_2(n) K_{r2}(n)`` (two paths, one ``H``) is a
built-in consistency check exercised by the test suite.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..exceptions import ComputationError
from .measures import PerformanceSolution
from .state import SwitchDimensions
from .traffic import TrafficClass

__all__ = ["solve_mva", "MvaGrids"]


class MvaGrids:
    """Raw MVA grids (``F_1``, ``F_2``, ``H_r``, ``Dhat_r``) for inspection.

    Grid cells that are never defined (e.g. ``F_1(0, n2)``) hold NaN.
    """

    def __init__(
        self, dims: SwitchDimensions, classes: tuple[TrafficClass, ...]
    ) -> None:
        shape = (dims.n1 + 1, dims.n2 + 1)
        self.dims = dims
        self.classes = classes
        self.f1 = np.full(shape, np.nan)
        self.f2 = np.full(shape, np.nan)
        self.h = [np.zeros(shape) for _ in classes]
        self.dhat = [np.zeros(shape) for _ in classes]

    def consistency_residual(self) -> float:
        """Max relative disagreement between the two ``H`` factorizations.

        ``H_r(n)`` can be built from a path ending along axis 1 or along
        axis 2; both must give the same value.  Returns the worst
        relative difference over the grid (0 for a perfect solve).
        """
        worst = 0.0
        n1, n2 = self.dims.n1, self.dims.n2
        for r, cls in enumerate(self.classes):
            a = cls.a
            for m1 in range(a, n1 + 1):
                for m2 in range(a, n2 + 1):
                    via1 = self.f1[m1, m2] * _k_product(self, r, m1, m2, axis=1)
                    via2 = self.f2[m1, m2] * _k_product(self, r, m1, m2, axis=2)
                    scale = max(abs(via1), abs(via2), 1e-300)
                    worst = max(worst, abs(via1 - via2) / scale)
        return worst


def _f1(grids: MvaGrids, m1: int, m2: int) -> float:
    """``F_1`` with the ``Q(n1, 0) = 1/n1!`` boundary built in."""
    if m2 == 0:
        return float(m1)
    return float(grids.f1[m1, m2])


def _f2(grids: MvaGrids, m1: int, m2: int) -> float:
    """``F_2`` with the ``Q(0, n2) = 1/n2!`` boundary built in."""
    if m1 == 0:
        return float(m2)
    return float(grids.f2[m1, m2])


def _k_product(grids: MvaGrids, r: int, n1: int, n2: int, axis: int) -> float:
    """The known part ``K_{r,axis}(n)`` of ``H_r(n) = F_axis(n) K``.

    ``axis == 1``: path runs ``(n1-a, n2-a) -> (n1-a, n2) -> (n1, n2)``;
    the final step contributes ``F_1(n1, n2)`` which is excluded here.
    ``axis == 2``: the transposed path, excluding ``F_2(n1, n2)``.
    """
    a = grids.classes[r].a
    prod = 1.0
    if axis == 1:
        for m in range(1, a + 1):  # up axis 2 at column n1-a
            prod *= _f2(grids, n1 - a, n2 - a + m)
        for m in range(1, a):  # up axis 1 at row n2, stop before (n1, n2)
            prod *= _f1(grids, n1 - a + m, n2)
    else:
        for m in range(1, a + 1):  # up axis 1 at row n2-a
            prod *= _f1(grids, n1 - a + m, n2 - a)
        for m in range(1, a):  # up axis 2 at column n1
            prod *= _f2(grids, n1, n2 - a + m)
    return prod


def _check_smooth_stability(
    dims: SwitchDimensions, cls: TrafficClass
) -> None:
    """Reject configurations where the ``D`` chain loses all precision.

    For smooth (Bernoulli) classes the paper's ``D`` recursion (eq. 19
    territory; our ``Dhat``) amplifies floating-point error by roughly
    ``|beta/mu| * N1 * N2`` per chain step.  When the accumulated
    amplification over the ``capacity/a`` chain steps exceeds float64
    precision, Algorithm 2 silently produces garbage — so we refuse and
    point at Algorithm 1, whose smooth-class *fold* is unconditionally
    stable (see :mod:`repro.core.convolution`).  This is a documented
    limitation of the paper's ratio-domain algorithm, not of the model.
    """
    if cls.beta >= 0:
        return
    amplification = abs(cls.b) * dims.n1 * dims.n2
    if amplification <= 1.0:
        return
    depth = dims.capacity // cls.a
    if depth * math.log(amplification) > 25.0:
        raise ComputationError(
            f"Algorithm 2 (MVA) is numerically unstable for smooth "
            f"class {cls.name or '?'} on a {dims.n1}x{dims.n2} switch "
            f"(error amplification ~ {amplification:.3g} per chain "
            f"step over {depth} steps); use solve_convolution(), whose "
            f"smooth-class fold is stable"
        )


def solve_mva(
    dims: SwitchDimensions, classes: Sequence[TrafficClass]
) -> PerformanceSolution:
    """Solve the model with Algorithm 2 (mean value analysis).

    Complexity ``O(N1 N2 R a_max)`` time, ``O(N1 N2 R)`` space — the
    space overhead relative to Algorithm 1 is what the paper trades for
    numerical stability.  Returns the same
    :class:`~repro.core.measures.PerformanceSolution` interface as
    Algorithm 1 (without ``log Q``, which ratios cannot reconstruct),
    with the raw :class:`MvaGrids` attached as ``solution.grids``.

    Runs the column-vectorized kernel
    :func:`repro.core.kernels.solve_mva_numpy`; the scalar grid loop it
    replaces is kept as the oracle :func:`repro.verify.reference.solve_mva`.
    """
    from .kernels import solve_mva_numpy

    return solve_mva_numpy(dims, classes)

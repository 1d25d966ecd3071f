"""Performance measures computed from normalization-ratio grids.

Both fast algorithms (Algorithm 1 / :mod:`repro.core.convolution` and
Algorithm 2 / :mod:`repro.core.mva`) reduce the model to the same
intermediate object: the grid of ratios

    ``H_r(n1, n2) = Q((n1, n2) - a_r I) / Q((n1, n2))``

for every class ``r`` and every sub-switch ``(n1, n2) <= (N1, N2)``.
Every measure in the paper is a function of these ratios:

* non-blocking probability (paper eq. 4 / Algorithm 1 Step 3):
  ``B_r(N) = H_r(N) / (P(N1, a_r) P(N2, a_r))``;
* concurrency (Section 3): ``E_r(N) = rho_r H_r(N)`` for Poisson
  classes and ``E_r(N) = H_r(N) (rho_r + (beta_r/mu_r) E_r(N - a_r I))``
  for BPP classes (a recursion down the diagonal of the grid);
* revenue / weighted throughput (Section 4):
  ``W(N) = sum_r w_r E_r(N)``.

This module holds :class:`PerformanceSolution`, the shared result type.

.. note::
   The paper's Section 3 prints binomial-coefficient prefactors for
   ``E_r``; the form consistent with the model's ``Psi`` function uses
   falling factorials ``P(n, a)`` instead (they agree for ``a_r = 1``,
   which covers all of the paper's numeric examples).  See DESIGN.md
   §2; the test suite proves the permutation form against brute-force
   state sums for ``a_r > 1``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError
from .state import SwitchDimensions, permutation
from .traffic import TrafficClass

__all__ = ["PerformanceSolution"]


@dataclass
class PerformanceSolution:
    """Solved crossbar model: measure queries over all sub-dimensions.

    Parameters
    ----------
    dims:
        The switch the model was solved for.
    classes:
        The traffic mix.
    h:
        One ``(N1+1) x (N2+1)`` array per class;
        ``h[r][m1, m2] = Q((m1,m2) - a_r I)/Q((m1,m2))`` and 0 where the
        class does not fit.
    log_q:
        Optional grid of ``log Q(m1, m2)`` (only Algorithm 1 in log
        mode produces it); enables :meth:`log_g`.
    method:
        Provenance label (``"convolution"``, ``"mva"``, ...).
    """

    dims: SwitchDimensions
    classes: tuple[TrafficClass, ...]
    h: tuple[np.ndarray, ...]
    log_q: np.ndarray | None = None
    method: str = ""
    #: Precomputed concurrency grids for smooth (beta < 0) classes.
    #: The diagonal E recursion is numerically unstable for them (its
    #: bracket ``rho + b E`` cancels), so solvers that can evaluate the
    #: stable positive sum store the result here; ``concurrency`` uses
    #: it when available.
    e_smooth: dict[int, np.ndarray] = field(default_factory=dict)
    _concurrency_cache: dict[tuple[int, int, int], float] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if len(self.h) != len(self.classes):
            raise ConfigurationError(
                f"{len(self.h)} H grids for {len(self.classes)} classes"
            )
        shape = (self.dims.n1 + 1, self.dims.n2 + 1)
        for grid in self.h:
            if grid.shape != shape:
                raise ConfigurationError(
                    f"H grid shape {grid.shape} != expected {shape}"
                )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _resolve(self, at: SwitchDimensions | None) -> SwitchDimensions:
        if at is None:
            return self.dims
        if not self.dims.contains(at):
            raise ConfigurationError(
                f"requested dims {at} exceed solved grid {self.dims}"
            )
        return at

    def h_ratio(self, r: int, at: SwitchDimensions | None = None) -> float:
        """``Q(at - a_r I)/Q(at)`` straight from the grid."""
        at = self._resolve(at)
        return float(self.h[r][at.n1, at.n2])

    # ------------------------------------------------------------------
    # Paper measures
    # ------------------------------------------------------------------

    def non_blocking(self, r: int, at: SwitchDimensions | None = None) -> float:
        """``B_r = G(at - a_r I)/G(at)`` — paper eq. 4.

        The probability that a class-``r`` request addressed to a
        specific set of ``a_r`` inputs and ``a_r`` outputs finds all of
        them idle.  Zero when the class cannot fit at all.
        """
        at = self._resolve(at)
        a = self.classes[r].a
        denom = permutation(at.n1, a) * permutation(at.n2, a)
        if denom == 0:
            return 0.0
        return self.h_ratio(r, at) / denom

    def blocking(self, r: int, at: SwitchDimensions | None = None) -> float:
        """``1 - B_r`` — what the paper's figures plot."""
        return 1.0 - self.non_blocking(r, at)

    def concurrency(self, r: int, at: SwitchDimensions | None = None) -> float:
        """Mean concurrent class-``r`` connections ``E_r`` (Section 3).

        Poisson classes: ``E_r = rho_r H_r(at)``.
        BPP classes: ``E_r(at) = H_r(at) (rho_r + b_r E_r(at - a_r I))``
        evaluated by recursion down the grid diagonal
        (``E_r(0) = 0``).
        """
        at = self._resolve(at)
        cls = self.classes[r]
        if cls.is_poisson:
            return cls.rho * self.h_ratio(r, at)
        grid = self.e_smooth.get(r)
        if grid is not None:
            value = float(grid[at.n1, at.n2])
            if not math.isnan(value):
                return value
        return self._bursty_concurrency(r, at.n1, at.n2)

    def _bursty_concurrency(self, r: int, m1: int, m2: int) -> float:
        cls = self.classes[r]
        if min(m1, m2) < cls.a:
            return 0.0
        key = (r, m1, m2)
        cached = self._concurrency_cache.get(key)
        if cached is not None:
            return cached
        inner = self._bursty_concurrency(r, m1 - cls.a, m2 - cls.a)
        value = float(self.h[r][m1, m2]) * (cls.rho + cls.b * inner)
        self._concurrency_cache[key] = value
        return value

    def concurrencies(self, at: SwitchDimensions | None = None) -> list[float]:
        """``E_r`` for every class."""
        return [self.concurrency(r, at) for r in range(len(self.classes))]

    def throughput(self, r: int, at: SwitchDimensions | None = None) -> float:
        """Completion rate of class ``r``: ``mu_r E_r``."""
        return self.classes[r].mu * self.concurrency(r, at)

    def total_throughput(self, at: SwitchDimensions | None = None) -> float:
        """``sum_r mu_r E_r`` — the revenue with unit gamma-weights."""
        return math.fsum(
            self.throughput(r, at) for r in range(len(self.classes))
        )

    def revenue(self, at: SwitchDimensions | None = None) -> float:
        """Weighted throughput ``W = sum_r w_r E_r`` (paper Section 4)."""
        return math.fsum(
            cls.weight * self.concurrency(r, at)
            for r, cls in enumerate(self.classes)
        )

    def mean_occupancy(self, at: SwitchDimensions | None = None) -> float:
        """Mean occupied input/output pairs ``E[k.A] = sum_r a_r E_r``."""
        return math.fsum(
            cls.a * self.concurrency(r, at)
            for r, cls in enumerate(self.classes)
        )

    def utilization(self, at: SwitchDimensions | None = None) -> float:
        """``E[k.A] / min(N1, N2)`` — fraction of the limiting side in use."""
        at = self._resolve(at)
        if at.capacity == 0:
            return 0.0
        return self.mean_occupancy(at) / at.capacity

    def call_acceptance(self, r: int, at: SwitchDimensions | None = None) -> float:
        """Fraction of *offered* class-``r`` requests accepted.

        For Poisson classes this equals ``B_r`` (PASTA).  For BPP
        classes offered requests are modulated by the state, and the
        stationary flow balance gives the closed form

            ``mu_r E_r / (P(N1,a) P(N2,a) (alpha_r + beta_r E_r))``

        which is what a discrete-event simulator measures.
        """
        at = self._resolve(at)
        cls = self.classes[r]
        if cls.is_poisson:
            return self.non_blocking(r, at)
        full = permutation(at.n1, cls.a) * permutation(at.n2, cls.a)
        if full == 0:
            return 0.0
        e = self.concurrency(r, at)
        offered = cls.alpha + cls.beta * e
        if offered <= 0.0:
            return 1.0
        return cls.mu * e / (full * offered)

    def read_points(
        self, points: Sequence[SwitchDimensions]
    ) -> list[tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]]:
        """``(blocking, concurrency, call_acceptance)`` tuples per point.

        The batched form of the three per-class accessors for a whole
        size sweep served from this grid: each class's ``H`` (and
        ``e_smooth``) cells at every point come from one fancy index,
        then the accessors' own scalar float operations run per point,
        so every value is bit-for-bit what :meth:`blocking`,
        :meth:`concurrency` and :meth:`call_acceptance` return there.
        """
        for at in points:
            self._resolve(at)
        rows = [at.n1 for at in points]
        cols = [at.n2 for at in points]
        blocking, concurrencies, acceptances = [], [], []
        for r, cls in enumerate(self.classes):
            h = self.h[r][rows, cols].tolist()
            full = [
                permutation(at.n1, cls.a) * permutation(at.n2, cls.a)
                for at in points
            ]
            non_blocking = [
                0.0 if denom == 0 else hr / denom
                for hr, denom in zip(h, full)
            ]
            if cls.is_poisson:
                rho = cls.rho
                concurrency = [rho * hr for hr in h]
                acceptance = non_blocking
            else:
                grid = self.e_smooth.get(r)
                smooth = (
                    grid[rows, cols].tolist() if grid is not None
                    else [math.nan] * len(points)
                )
                concurrency = [
                    self._bursty_concurrency(r, at.n1, at.n2)
                    if math.isnan(value) else value
                    for value, at in zip(smooth, points)
                ]
                acceptance = []
                for e, denom in zip(concurrency, full):
                    if denom == 0:
                        acceptance.append(0.0)
                        continue
                    offered = cls.alpha + cls.beta * e
                    acceptance.append(
                        1.0 if offered <= 0.0
                        else cls.mu * e / (denom * offered)
                    )
            blocking.append([1.0 - b for b in non_blocking])
            concurrencies.append(concurrency)
            acceptances.append(acceptance)
        # Per-class columns -> per-point tuples.
        return list(zip(
            zip(*blocking), zip(*concurrencies), zip(*acceptances)
        ))

    def call_congestion(self, r: int, at: SwitchDimensions | None = None) -> float:
        """``1 - call_acceptance`` — blocking experienced by arrivals."""
        return 1.0 - self.call_acceptance(r, at)

    # ------------------------------------------------------------------
    # Normalization access
    # ------------------------------------------------------------------

    def log_g(self, at: SwitchDimensions | None = None) -> float:
        """``log G(at)`` (requires the solver to have kept ``log Q``)."""
        if self.log_q is None:
            raise ConfigurationError(
                f"log G not available from method '{self.method}' "
                "(only Algorithm 1 in log mode records it)"
            )
        at = self._resolve(at)
        return (
            float(self.log_q[at.n1, at.n2])
            + math.lgamma(at.n1 + 1)
            + math.lgamma(at.n2 + 1)
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> str:
        """Multi-line human-readable report of all per-class measures."""
        lines = [
            f"Crossbar {self.dims} ({self.method or 'solved'}), "
            f"{len(self.classes)} classes:"
        ]
        for r, cls in enumerate(self.classes):
            lines.append(
                f"  [{r}] {cls.name or cls.kind:>10s}  a={cls.a}  "
                f"B={self.blocking(r):.6g}  E={self.concurrency(r):.6g}  "
                f"X={self.throughput(r):.6g}"
            )
        lines.append(
            f"  utilization={self.utilization():.6g}  "
            f"W={self.revenue():.6g}"
        )
        return "\n".join(lines)

"""The pure-python reference solvers: the oracle for the NumPy kernels.

Production solves run the whole-column NumPy kernels of
:mod:`repro.core.kernels`.  The scalar implementations below are the
algorithms as the paper writes them — Algorithm 1's sweeps (eqs. 8-10)
through the generic signed-log helpers (:mod:`repro.core.logspace`) or
per-cell mantissa/exponent bookkeeping, and Algorithm 2's ratio system
(eqs. 12-20) as a scalar grid loop.  They are easy to audit against
the paper and 5-20x slower, so they serve only as the oracle that the
kernels are tested against:

* ``sweep_log`` and ``sweep_float`` must equal the kernels bit for
  bit (including the float-mode overflow boundary);
* ``sweep_scaled`` and ``solve_mva`` must agree within the method's
  registered tolerance (1e-9 and 1e-8).

The module mirrors the production API — :func:`log_q_grid`,
:func:`solve_convolution` and :func:`solve_mva` take the same
arguments as their :mod:`repro.core` namesakes and share their input
validation, smooth-class folds and measure assembly — so a test can
run the same workload through either (the differential verifier's
``reference/<method>`` entries, the kernel-edge golden rebuild).
Solutions from this module record ``solution.kernel == "python"``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..core import convolution
from ..core.logspace import NEG_INF, signed_log_add, signed_log_scale
from ..core.measures import PerformanceSolution
from ..core.mva import MvaGrids, _check_smooth_stability, _k_product
from ..core.state import SwitchDimensions
from ..core.traffic import TrafficClass
from ..exceptions import (
    ComputationError,
    ConfigurationError,
    OverflowInRecursionError,
)

__all__ = [
    "log_q_grid",
    "solve_convolution",
    "solve_mva",
    "sweep_float",
    "sweep_log",
    "sweep_scaled",
]


def _shift(column: np.ndarray, a: int, fill: float) -> np.ndarray:
    """Return ``out[n1] = column[n1 - a]`` with ``fill`` for ``n1 < a``."""
    out = np.full_like(column, fill)
    if a == 0:
        return column.copy()
    if a <= column.shape[0]:
        out[a:] = column[:-a]
    return out


# ----------------------------------------------------------------------
# Log-domain sweep (robust default)
# ----------------------------------------------------------------------


def sweep_log(
    dims: SwitchDimensions, classes: Sequence[TrafficClass]
) -> np.ndarray:
    n1, n2 = dims.n1, dims.n2
    lq = np.full((n1 + 1, n2 + 1), NEG_INF)
    lq[:, 0] = -np.array([math.lgamma(m + 1) for m in range(n1 + 1)])

    bursty = [r for r, c in enumerate(classes) if c.is_bursty]
    lv = {r: np.full((n1 + 1, n2 + 1), NEG_INF) for r in bursty}
    sv = {r: np.zeros((n1 + 1, n2 + 1), dtype=int) for r in bursty}

    for col in range(1, n2 + 1):
        acc_l = lq[:, col - 1].copy()
        acc_s = (acc_l > NEG_INF).astype(int)
        for r, cls in enumerate(classes):
            a = cls.a
            if col >= a:
                src = _shift(lq[:, col - a], a, NEG_INF)
            else:
                src = np.full(n1 + 1, NEG_INF)
            src_sign = (src > NEG_INF).astype(int)
            if cls.is_poisson:
                term_l, term_s = src, src_sign
            else:
                if col >= a:
                    prev_l = _shift(lv[r][:, col - a], a, NEG_INF)
                    prev_s = _shift(
                        sv[r][:, col - a].astype(float), a, 0.0
                    ).astype(int)
                else:
                    prev_l = np.full(n1 + 1, NEG_INF)
                    prev_s = np.zeros(n1 + 1, dtype=int)
                scaled_l, scaled_s = signed_log_scale(prev_l, prev_s, cls.b)
                v_l, v_s = signed_log_add(src, src_sign, scaled_l, scaled_s)
                lv[r][:, col] = v_l
                sv[r][:, col] = v_s
                term_l, term_s = v_l, v_s
            factor = cls.a * cls.rho
            if factor > 0.0:
                term_l, term_s = signed_log_scale(term_l, term_s, factor)
                acc_l, acc_s = signed_log_add(acc_l, acc_s, term_l, term_s)
        if np.any(acc_s <= 0):
            raise ComputationError(
                "Q recursion produced a non-positive value at column "
                f"n2={col}; the Bernoulli parameters likely admit a "
                "negative arrival rate inside the state space"
            )
        lq[:, col] = acc_l - math.log(col)
    return lq


# ----------------------------------------------------------------------
# Mantissa/exponent sweep (paper Section 6 dynamic scaling)
# ----------------------------------------------------------------------


def sweep_scaled(
    dims: SwitchDimensions, classes: Sequence[TrafficClass]
) -> np.ndarray:
    """Dynamic-scaling sweep; returns the grid of ``log Q``.

    Each cell is ``man * 2**ex`` with ``man`` float64 and ``ex`` a wide
    integer exponent.  Sums align terms to the largest exponent via
    ``ldexp`` (terms more than ~1000 binary orders smaller vanish,
    which is far below float64 resolution anyway).
    """
    n1, n2 = dims.n1, dims.n2
    man = np.zeros((n1 + 1, n2 + 1))
    ex = np.zeros((n1 + 1, n2 + 1), dtype=np.int64)
    for m in range(n1 + 1):
        lg = -math.lgamma(m + 1)
        e = int(math.floor(lg / math.log(2.0)))
        man[m, 0] = math.exp(lg - e * math.log(2.0))
        ex[m, 0] = e

    bursty = [r for r, c in enumerate(classes) if c.is_bursty]
    vman = {r: np.zeros((n1 + 1, n2 + 1)) for r in bursty}
    vex = {r: np.zeros((n1 + 1, n2 + 1), dtype=np.int64) for r in bursty}

    def add_terms(
        terms: list[tuple[np.ndarray, np.ndarray]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sum (mantissa, exponent) arrays; re-normalize the result."""
        # Zero terms carry exponent 0 (frexp's convention) and must not
        # set the alignment: next to a cell below 2**-1060 they would
        # clip its shift and inflate it.
        low = np.iinfo(np.int64).min
        top = np.full_like(terms[0][1], low)
        for m, e in terms:
            np.maximum(top, np.where(m != 0.0, e, low), out=top)
        top[top == low] = 0  # every term zero
        total = np.zeros_like(terms[0][0])
        for m, e in terms:
            shift = np.clip(e - top, -1060, 0)
            total += np.ldexp(m, shift.astype(np.int64))
        out_man, out_ex = np.frexp(total)
        out_ex = out_ex.astype(np.int64) + top
        out_ex[total == 0.0] = 0
        return out_man, out_ex

    for col in range(1, n2 + 1):
        terms = [(man[:, col - 1].copy(), ex[:, col - 1].copy())]
        for r, cls in enumerate(classes):
            a = cls.a
            if col >= a:
                src_m = _shift(man[:, col - a], a, 0.0)
                src_e = _shift(
                    ex[:, col - a].astype(float), a, 0.0
                ).astype(np.int64)
            else:
                src_m = np.zeros(n1 + 1)
                src_e = np.zeros(n1 + 1, dtype=np.int64)
            if cls.is_poisson:
                term_m, term_e = src_m, src_e
            else:
                if col >= a:
                    pm = _shift(vman[r][:, col - a], a, 0.0) * cls.b
                    pe = _shift(
                        vex[r][:, col - a].astype(float), a, 0.0
                    ).astype(np.int64)
                else:
                    pm = np.zeros(n1 + 1)
                    pe = np.zeros(n1 + 1, dtype=np.int64)
                term_m, term_e = add_terms([(src_m, src_e), (pm, pe)])
                vman[r][:, col] = term_m
                vex[r][:, col] = term_e
            factor = cls.a * cls.rho
            if factor > 0.0:
                terms.append((term_m * factor, term_e))
        total_m, total_e = add_terms(terms)
        if np.any(total_m <= 0.0):
            raise ComputationError(
                f"Q recursion produced a non-positive value at column n2={col}"
            )
        man[:, col] = total_m / col
        ex[:, col] = total_e

    with np.errstate(divide="ignore"):
        lq = np.where(
            man > 0.0,
            np.log(np.maximum(man, 1e-320)) + ex * math.log(2.0),
            NEG_INF,
        )
    return lq


# ----------------------------------------------------------------------
# Raw float sweep (no scaling; ablation baseline)
# ----------------------------------------------------------------------


def sweep_float(
    dims: SwitchDimensions, classes: Sequence[TrafficClass]
) -> np.ndarray:
    n1, n2 = dims.n1, dims.n2
    q = np.zeros((n1 + 1, n2 + 1))
    for m in range(n1 + 1):
        lg = -math.lgamma(m + 1)
        if lg < math.log(5e-324):
            raise OverflowInRecursionError(
                f"Q({m}, 0) = 1/{m}! underflows float64; "
                "use mode='scaled' or mode='log'"
            )
        q[m, 0] = math.exp(lg)
    bursty = [r for r, c in enumerate(classes) if c.is_bursty]
    v = {r: np.zeros((n1 + 1, n2 + 1)) for r in bursty}

    for col in range(1, n2 + 1):
        total = q[:, col - 1].copy()
        for r, cls in enumerate(classes):
            a = cls.a
            src = _shift(q[:, col - a], a, 0.0) if col >= a else np.zeros(n1 + 1)
            if cls.is_poisson:
                term = src
            else:
                prev = (
                    _shift(v[r][:, col - a], a, 0.0)
                    if col >= a
                    else np.zeros(n1 + 1)
                )
                term = src + cls.b * prev
                v[r][:, col] = term
            total += cls.a * cls.rho * term
        total /= col
        if not np.all(np.isfinite(total)):
            raise OverflowInRecursionError(
                f"unscaled Algorithm 1 overflowed at column n2={col}"
            )
        if np.any(total[: min(col, n1) + 1] == 0.0):
            raise OverflowInRecursionError(
                f"unscaled Algorithm 1 underflowed to zero at column n2={col}; "
                "use mode='scaled' or mode='log'"
            )
        q[:, col] = total

    with np.errstate(divide="ignore"):
        return np.where(q > 0.0, np.log(np.where(q > 0.0, q, 1.0)), NEG_INF)


# ----------------------------------------------------------------------
# Solvers mirroring the production API
# ----------------------------------------------------------------------

_SWEEPS = {"log": sweep_log, "scaled": sweep_scaled, "float": sweep_float}


def log_q_grid(
    dims: SwitchDimensions,
    classes: Sequence[TrafficClass],
    mode: str = "log",
) -> np.ndarray:
    """:func:`repro.core.convolution.log_q_grid` on the reference sweeps."""
    lq, fold = convolution._sweep_and_fold(dims, classes, mode, _SWEEPS.get)
    for cls in classes:
        if cls.beta < 0:
            lq = fold(lq, dims, cls)
    return lq


def solve_convolution(
    dims: SwitchDimensions,
    classes: Sequence[TrafficClass],
    mode: str = "log",
) -> PerformanceSolution:
    """:func:`repro.core.convolution.solve_convolution` on the reference
    sweeps; same label (``convolution/<mode>``), ``kernel == "python"``."""
    classes = tuple(classes)
    base, fold = convolution._sweep_and_fold(dims, classes, mode, _SWEEPS.get)
    solution = convolution._assemble(dims, classes, mode, base, fold)
    solution.kernel = "python"
    return solution


def solve_mva(
    dims: SwitchDimensions, classes: Sequence[TrafficClass]
) -> PerformanceSolution:
    """Algorithm 2 as a scalar grid loop (see :mod:`repro.core.mva`).

    Fills ``F_1`` and ``F_2`` point by point, each from its own axis
    factorization of ``H_r``, so the ``F_1 K_{r1} == F_2 K_{r2}``
    identity (:meth:`MvaGrids.consistency_residual`) is a genuine check
    of the result.
    """
    classes = tuple(classes)
    if not classes:
        raise ConfigurationError("at least one traffic class is required")
    for cls in classes:
        if cls.a <= dims.capacity:
            cls.validate_for(dims.n1, dims.n2)
        _check_smooth_stability(dims, cls)

    grids = MvaGrids(dims, classes)
    n1, n2 = dims.n1, dims.n2

    # Boundaries: only the empty state fits when either side is 0.
    for m1 in range(1, n1 + 1):
        grids.f1[m1, 0] = m1
    for m2 in range(1, n2 + 1):
        grids.f2[0, m2] = m2

    for m2 in range(1, n2 + 1):
        for m1 in range(1, n1 + 1):
            denom1 = 1.0
            denom2 = 1.0
            fits = []
            for r, cls in enumerate(classes):
                if m1 < cls.a or m2 < cls.a:
                    fits.append(False)
                    continue
                fits.append(True)
                if cls.is_poisson:
                    c = 1.0
                else:
                    c = 1.0 + cls.b * grids.dhat[r][m1 - cls.a, m2 - cls.a]
                load = cls.a * cls.rho * c
                denom1 += load * _k_product(grids, r, m1, m2, axis=1)
                denom2 += load * _k_product(grids, r, m1, m2, axis=2)
            if denom1 <= 0.0 or denom2 <= 0.0:
                raise ComputationError(
                    f"MVA denominator non-positive at ({m1}, {m2}); "
                    "Bernoulli parameters admit negative arrival rates"
                )
            grids.f1[m1, m2] = m1 / denom1
            grids.f2[m1, m2] = m2 / denom2
            for r, cls in enumerate(classes):
                if not fits[r]:
                    continue
                h = grids.f1[m1, m2] * _k_product(grids, r, m1, m2, axis=1)
                grids.h[r][m1, m2] = h
                grids.dhat[r][m1, m2] = h * (
                    1.0 + cls.b * grids.dhat[r][m1 - cls.a, m2 - cls.a]
                )

    solution = PerformanceSolution(
        dims=dims,
        classes=classes,
        h=tuple(np.array(g) for g in grids.h),
        log_q=None,
        method="mva",
    )
    solution.grids = grids  # expose raw grids for diagnostics/tests
    solution.kernel = "python"
    return solution

"""Vectorized NumPy kernels for the Algorithm 1/2 hot loops.

These are the production sweeps: every :func:`solve_convolution
<repro.core.convolution.solve_convolution>` and :func:`solve_mva
<repro.core.mva.solve_mva>` call runs them, and every solution records
``solution.kernel == "numpy"``.  Each kernel computes its grid with
whole-column NumPy array operations and a near-minimal number of ufunc
dispatches per column.  The scalar pure-python sweeps they replaced
live on in :mod:`repro.verify.reference` as the differential oracle
that the equivalence suite compares them with.

``sweep_log``
    Byte-identical restructuring of the reference log sweep.  The
    sweep only ever sees classes with ``beta >= 0`` (smooth classes are
    folded in afterwards — see the convolution module's stability note),
    so every signed-log term is non-negative and the generic masked
    ``signed_log_add`` collapses to the max/min log-add
    ``top + log(1 + exp(low - top))`` with ``top = max(x, y)`` and
    ``low = min(x, y)``: seven ufunc calls performing the reference's
    own float64 arithmetic (``exp(0) == 1.0`` exactly, and IEEE
    addition commutes).  A class of bandwidth ``a`` adds only zeros to
    the rows below ``a``, so only ``acc[a:]`` is accumulated and the
    rows below keep the reference's copied bytes.  ``V`` is written in
    place from views of the grids, with no shifted copies.  The
    resulting ``log Q`` grid is byte-for-byte equal to the oracle's —
    the sign of a zero included — which the equivalence suite asserts
    with ``tobytes()``.
``sweep_float``
    The raw unscaled recurrence with preallocated buffers and in-place
    ufuncs, preserving the reference operation order exactly (bitwise
    equal output, same ``OverflowInRecursionError`` boundaries).
``sweep_scaled``
    A re-derivation of the Section 6 dynamic-scaling sweep in plain
    linear arithmetic: each ``Q`` column is renormalized to unit
    maximum with the running scale carried as one ``log`` offset per
    column (instead of a per-cell mantissa/exponent pair), and each
    ``V`` column is kept at the scale of the ``Q`` column it was built
    from, with scalar cross-scale weights realigning every term.  It is
    *not* bitwise equal to the reference — it is tolerance-equivalent
    (well inside the method's 1e-9 differential tolerance).  If the
    sweep leaves float64's range anyway (a renormalized column
    underflowing to exact zero, or a ``V`` chain overflowing — the
    ``1/n1!`` cliff around ``n1 >~ 170`` or extreme dynamic range),
    the kernel falls back to :func:`sweep_log`, which has no such cliff;
    :func:`scaled_fallback_count` counts the fallbacks taken.
``solve_mva_numpy``
    Algorithm 2 with the ``m1`` axis vectorized.  The axis-2 ratio
    ``F_2(m1, m2)`` only references *previous* columns, so a whole
    column is computed at once; the same-column coupling of ``F_1`` is
    broken with the telescoping identity
    ``F_1(m1, m2) = F_1(m1, m2-1) F_2(m1, m2) / F_2(m1-1, m2)``.
    Tolerance-equivalent to the scalar reference (1e-8).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..exceptions import (
    ComputationError,
    ConfigurationError,
    OverflowInRecursionError,
)
from .logspace import NEG_INF
from .state import SwitchDimensions
from .traffic import TrafficClass

__all__ = [
    "sweep_log",
    "sweep_scaled",
    "sweep_float",
    "solve_mva_numpy",
    "scaled_fallback_count",
]

#: Counter of log-sweep fallbacks taken by :func:`sweep_scaled`
#: (diagnostic; read through :func:`scaled_fallback_count`).  It is
#: the one module-level name under ``core/`` and ``engine/`` reassigned
#: after import, and the only process-wide figure a daemon exports
#: (``repro_kernel_scaled_fallbacks``); it stays while the layered
#: benchmark's tracer (``benchmarks/layers``) reads it.
_SCALED_FALLBACKS = 0


def scaled_fallback_count() -> int:
    """How many times ``sweep_scaled`` fell back to ``sweep_log``."""
    return _SCALED_FALLBACKS


# ----------------------------------------------------------------------
# Log-domain sweep (bitwise-identical to the reference log sweep)
# ----------------------------------------------------------------------


def sweep_log(
    dims: SwitchDimensions,
    classes: Sequence[TrafficClass],
    collect_v: bool = False,
):
    """NumPy column sweep of the log-domain recurrence (eqs. 8-10).

    ``classes`` must already exclude smooth (``beta < 0``) classes —
    the caller folds those separately — so every term is non-negative
    and the reference's ``signed_log_add`` of two non-zero terms is
    ``top + log(exp(x - top) + exp(y - top))``.  One of the two
    exponentials is ``exp(0) == 1.0`` exactly and IEEE addition
    commutes, so the kernel's ``top + log(1 + exp(low - top))`` with
    ``top = max(x, y)``, ``low = min(x, y)`` is the same float64
    arithmetic.

    A class of bandwidth ``a`` has only zero terms in the rows below
    ``a``, where the reference copies the other operand; the kernel
    leaves those rows untouched, so the copied accumulator keeps its
    exact bytes — the sign of ``log Q(0, 1) = -0.0`` included.  In rows
    ``>= a`` the ``Q`` source is finite, so the only zero operand left
    is ``b V(n - aI)`` at the ``V`` boundary, where ``exp(-inf) = 0``
    and ``log(1) = 0`` give the copied value (up to the sign of a zero
    ``V`` cell, which ``V + log(a rho)`` erases before it reaches
    ``Q``).  The ``log Q`` grid therefore equals the reference byte
    for byte, and the equivalence suite compares ``tobytes()``.

    With ``collect_v=True`` returns ``(lq, lv)`` where ``lv`` maps the
    index of each bursty class to its full ``log V(n, r)`` grid (eq. 9)
    for direct pointwise verification of the auxiliary recursion.
    """
    n1, n2 = dims.n1, dims.n2
    rows = n1 + 1
    # Transposed working layout: row ``col`` of ``lq_t`` is the grid
    # column ``n2 = col``, contiguous in memory for the inner ufuncs.
    lq_t = np.full((n2 + 1, rows), NEG_INF)
    lq_t[0] = -np.array([math.lgamma(m + 1) for m in range(rows)])
    lv_t = {
        r: np.full((n2 + 1, rows), NEG_INF)
        for r, c in enumerate(classes)
        if c.is_bursty
    }

    # Scalar operands are 0-d arrays: NumPy dispatches a Python float
    # operand markedly slower.  The logs are ``np.log`` of the factors,
    # as in ``signed_log_scale``, and ``math.log`` of the column.
    one = np.array(1.0)
    log_cols = np.array([math.log(col) for col in range(1, n2 + 1)])
    top_buf, low_buf, work_buf = np.empty((3, rows))
    steps = []
    for r, cls in enumerate(classes):
        a = cls.a
        if a >= rows:
            # Every term of the class is zero: its V grid stays -inf
            # and it adds nothing to any accumulator.
            continue
        factor = a * cls.rho
        # A zero-rate class adds nothing (the reference's factor == 0
        # guard), but its V chain still advances.
        log_factor = np.array(np.log(factor)) if factor > 0.0 else None
        # Column views of the rows a class reaches: ``q_head[col - a]``
        # is ``Q(n - aI)`` for rows ``n1 >= a`` of column ``col``, and
        # ``acc_tail[col]`` (``v_tail[col]``) is that column's rows
        # ``>= a`` of Q (V), written in place.
        m = rows - a
        lv = lv_t.get(r)
        v_step = None
        if lv is not None:
            v_step = (np.array(np.log(cls.b)), lv[:, :m], lv[:, a:])
        steps.append(
            (a, log_factor, v_step, lq_t[:, :m], lq_t[:, a:],
             top_buf[:m], low_buf[:m], work_buf[:m])
        )

    def logadd(x, y, out, top, low):
        # out = log(exp(x) + exp(y)), both operands finite or y = -inf.
        np.maximum(x, y, out=top)
        np.minimum(x, y, out=low)
        np.subtract(low, top, out=low)
        np.exp(low, out=low)
        np.add(low, one, out=low)
        np.log(low, out=low)
        np.add(top, low, out=out)

    with np.errstate(invalid="ignore", divide="ignore"):
        for col in range(1, n2 + 1):
            acc = lq_t[col]
            np.copyto(acc, lq_t[col - 1])
            for a, log_factor, v_step, q_head, acc_tail, top, low, work in (
                steps
            ):
                if col < a:
                    continue  # every source term is zero
                term = q = q_head[col - a]
                if v_step is not None:
                    # eq. 9: V(n) = Q(n - aI) + b V(n - aI), in place.
                    log_b, v_head, v_tail = v_step
                    term = v_tail[col]
                    np.add(v_head[col - a], log_b, out=work)
                    logadd(q, work, term, top, low)
                if log_factor is None:
                    continue
                np.add(term, log_factor, out=work)
                tail = acc_tail[col]
                logadd(tail, work, tail, top, low)
            np.subtract(acc, log_cols[col - 1, ...], out=acc)
    # Sweep classes have beta >= 0, so every term is non-negative and Q
    # stays strictly positive; a non-finite cell means the parameters
    # admit a negative rate (the reference's per-column sign check).
    if not np.isfinite(lq_t).all():
        raise ComputationError(
            "Q recursion produced a non-positive value; the Bernoulli "
            "parameters likely admit a negative arrival rate inside "
            "the state space"
        )
    lq = np.ascontiguousarray(lq_t.T)
    if collect_v:
        return lq, {r: np.ascontiguousarray(g.T) for r, g in lv_t.items()}
    return lq


# ----------------------------------------------------------------------
# Raw float sweep (bitwise-identical to the reference float sweep)
# ----------------------------------------------------------------------


def sweep_float(
    dims: SwitchDimensions, classes: Sequence[TrafficClass]
) -> np.ndarray:
    """Buffer-reusing restructuring of the unscaled float sweep.

    Performs the reference's float64 operations in the same order (the
    shifts, the ``src + b * prev`` V update, the ``(a rho) * term``
    accumulate, the ``/= col`` normalization), so the output grid and
    the ``OverflowInRecursionError`` boundaries are bitwise identical.
    """
    n1, n2 = dims.n1, dims.n2
    rows = n1 + 1
    q_t = np.zeros((n2 + 1, rows))
    for m in range(rows):
        lg = -math.lgamma(m + 1)
        if lg < math.log(5e-324):
            raise OverflowInRecursionError(
                f"Q({m}, 0) = 1/{m}! underflows float64; "
                "use mode='scaled' or mode='log'"
            )
        q_t[0, m] = math.exp(lg)
    consts = [
        (r, c.a, c.is_poisson, c.a * c.rho, c.b) for r, c in enumerate(classes)
    ]
    v_t = {r: np.zeros((n2 + 1, rows)) for r, a, p, f, b in consts if not p}

    total = np.empty(rows)
    src = np.zeros(rows)
    prev = np.empty(rows)
    term = np.empty(rows)

    for col in range(1, n2 + 1):
        np.copyto(total, q_t[col - 1])
        for r, a, is_poisson, factor, b in consts:
            if col >= a and a < rows:
                src[:a] = 0.0
                np.copyto(src[a:], q_t[col - a][: rows - a])
            else:
                src.fill(0.0)
            if is_poisson:
                t = src
            else:
                if col >= a and a < rows:
                    prev[:a] = 0.0
                    np.copyto(prev[a:], v_t[r][col - a][: rows - a])
                else:
                    prev.fill(0.0)
                np.multiply(prev, b, out=prev)
                np.add(src, prev, out=prev)
                v_t[r][col] = prev
                t = prev
            np.multiply(t, factor, out=term)
            total += term
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
        q_t[col] = total

    q = np.ascontiguousarray(q_t.T)
    with np.errstate(divide="ignore"):
        return np.where(q > 0.0, np.log(np.where(q > 0.0, q, 1.0)), NEG_INF)


# ----------------------------------------------------------------------
# Dynamic-scaling sweep (fast linear re-derivation with fallback)
# ----------------------------------------------------------------------


class _ScaledKernelFallback(Exception):
    """Internal: the fast sweep ran out of float64 range."""


def _sweep_scaled_fast(
    dims: SwitchDimensions, classes: Sequence[TrafficClass]
) -> np.ndarray:
    n1, n2 = dims.n1, dims.n2
    rows = n1 + 1
    # qn_t[col] = Q(:, col) / exp(scale[col]), renormalized to unit
    # maximum — the Section 6 "re-choose omega every step" idea with
    # one scalar log offset per column instead of per-cell exponents.
    # V columns are kept at the scale of the Q column they were built
    # from (scale[col - a]); scalar weights realign every cross-column
    # term, so the inner loop is pure multiply-accumulate.
    qn_t = np.zeros((n2 + 1, rows))
    scale = np.zeros(n2 + 1)
    qn_t[0] = np.exp(-np.array([math.lgamma(m + 1) for m in range(rows)]))
    if qn_t[0, n1] == 0.0:
        # 1/n1! spans more than float64 within one column: the cell
        # magnitudes cannot share a single scale.  Log-sweep territory.
        raise _ScaledKernelFallback
    # Classes with a zero arrival rate contribute nothing (their V
    # chain only feeds terms that are multiplied by the zero factor).
    consts = [
        (r, c.a, c.is_poisson, c.a * c.rho, c.b)
        for r, c in enumerate(classes)
        if c.a * c.rho > 0.0 and c.a < rows
    ]
    vn_t = {r: np.zeros((n2 + 1, rows)) for r, a, p, f, b in consts if not p}

    total = np.empty(rows)
    src = np.zeros(rows)

    for col in range(1, n2 + 1):
        np.copyto(total, qn_t[col - 1])
        for r, a, is_poisson, factor, b in consts:
            if col < a:
                continue  # all source terms are zero and V stays zero
            # Q terms from column col-a live at scale[col-a]; realign
            # them to the accumulator's scale[col-1].
            weight = factor * math.exp(scale[col - a] - scale[col - 1])
            if is_poisson:
                src[:a] = 0.0
                np.multiply(qn_t[col - a][: rows - a], weight, out=src[a:])
                total += src
            else:
                vcol = vn_t[r][col]
                if col >= 2 * a:
                    # b * V(n - aI, col - a): stored at scale[col - 2a].
                    wv = b * math.exp(scale[col - 2 * a] - scale[col - a])
                    np.multiply(vn_t[r][col - a][: rows - a], wv, out=vcol[a:])
                    vcol[a:] += qn_t[col - a][: rows - a]
                else:
                    np.copyto(vcol[a:], qn_t[col - a][: rows - a])
                np.multiply(vcol, weight, out=src)
                total += src
        peak = float(total.max())
        if not math.isfinite(peak) or peak <= 0.0:
            raise _ScaledKernelFallback
        np.multiply(total, 1.0 / peak, out=qn_t[col])
        scale[col] = scale[col - 1] + (math.log(peak) - math.log(col))
    for r, g in vn_t.items():
        if not np.isfinite(g).all():
            raise _ScaledKernelFallback  # a V chain left float64 range
    # Q is strictly positive at every grid point (the empty state always
    # fits), so an exact zero anywhere means a column's dynamic range
    # exceeded float64 mid-sweep — detected once here, after which the
    # caller re-runs the log sweep from scratch.
    if np.any(qn_t == 0.0):
        raise _ScaledKernelFallback

    with np.errstate(divide="ignore"):
        lq_t = np.log(qn_t)
    lq_t += scale[:, np.newaxis]
    return np.ascontiguousarray(lq_t.T)


def sweep_scaled(
    dims: SwitchDimensions, classes: Sequence[TrafficClass]
) -> np.ndarray:
    """Fast dynamic-scaling sweep; falls back to ``sweep_log`` on under/overflow.

    The fallback (columns whose cells span more than float64's range,
    e.g. ``n1 >~ 170``, or a ``V`` chain overflowing under extreme
    dynamic range) re-runs the sweep in the log domain, which carries
    no scale and so cannot leave float64's range.  The count of
    fallbacks taken is exposed through :func:`scaled_fallback_count`.
    """
    try:
        return _sweep_scaled_fast(dims, classes)
    except _ScaledKernelFallback:
        global _SCALED_FALLBACKS
        _SCALED_FALLBACKS += 1
        return sweep_log(dims, classes)


# ----------------------------------------------------------------------
# Algorithm 2 (MVA) with the m1 axis vectorized
# ----------------------------------------------------------------------


def solve_mva_numpy(dims: SwitchDimensions, classes: Sequence[TrafficClass]):
    """Column-vectorized mean value analysis (Algorithm 2).

    The axis-2 factorization ``H_r = F_2 K_{r2}`` only references
    previously completed columns, so ``F_2``, ``H_r`` and ``Dhat_r``
    are computed one whole column at a time; ``F_1`` is recovered per
    column from the telescoping ratio identity (see module docstring).
    Returns a :class:`~repro.core.measures.PerformanceSolution` with
    the raw :class:`~repro.core.mva.MvaGrids` attached as
    ``solution.grids``.
    """
    from .measures import PerformanceSolution
    from .mva import MvaGrids, _check_smooth_stability

    classes = tuple(classes)
    if not classes:
        raise ConfigurationError("at least one traffic class is required")
    for cls in classes:
        if cls.a <= dims.capacity:
            cls.validate_for(dims.n1, dims.n2)
        _check_smooth_stability(dims, cls)

    n1, n2 = dims.n1, dims.n2
    rows = n1 + 1
    # Transposed working grids: row ``col`` is grid column ``n2 = col``.
    f1_t = np.full((n2 + 1, rows), np.nan)
    f2_t = np.full((n2 + 1, rows), np.nan)
    # F_i at the m=0 boundary (only the empty state fits): F_1(m1, 0) = m1.
    f1_base = np.arange(rows, dtype=float)
    f1_t[0, 1:] = f1_base[1:]
    f2_t[1:, 0] = np.arange(1, n2 + 1, dtype=float)

    consts = [
        (r, c.a, c.is_poisson, c.a * c.rho, c.b) for r, c in enumerate(classes)
    ]
    h_t = [np.zeros((n2 + 1, rows)) for _ in classes]
    dhat_t = [np.zeros((n2 + 1, rows)) for _ in classes]
    k2 = [np.zeros(rows) for _ in classes]
    cvec = [np.ones(rows) for _ in classes]

    denom2 = np.empty(rows)
    work = np.empty(rows)

    for col in range(1, n2 + 1):
        denom2.fill(1.0)
        fits = []
        for r, a, is_poisson, load, b in consts:
            if col < a or a > n1:
                continue
            fits.append(r)
            f1_prev = f1_t[col - a] if col > a else f1_base
            # K_{r2}(m1, col) = prod_{m=1..a} F_1(m1-a+m, col-a)
            #                 * prod_{m=1..a-1} F_2(m1, col-a+m)
            # (paper eq. 14/20, the axis-2 lattice path); rows < a are
            # outside the class's feasible wedge and zeroed so they
            # contribute nothing anywhere below.
            k2_r = k2[r]
            k2_r[:a] = 0.0
            k2_r[a:] = f1_prev[1 : rows - a + 1]  # m = 1 term
            for m in range(2, a + 1):
                k2_r[a:] *= f1_prev[m : rows - a + m]
            for m in range(1, a):
                k2_r[a:] *= f2_t[col - a + m][a:]
            if is_poisson:
                np.multiply(k2_r, load, out=work)
            else:
                c_r = cvec[r]
                np.multiply(dhat_t[r][col - a][: rows - a], b, out=c_r[a:])
                c_r[a:] += 1.0
                np.multiply(c_r, load, out=work)
                work *= k2_r
            denom2 += work
        if not np.all(np.isfinite(denom2)) or np.any(denom2 <= 0.0):
            raise ComputationError(
                f"MVA denominator non-positive at column n2={col}; "
                "Bernoulli parameters admit negative arrival rates"
            )
        f2col = f2_t[col]
        np.divide(col, denom2, out=f2col)  # row 0 is col/1 == the boundary
        # F_1(m1, col) = F_1(m1, col-1) * F_2(m1, col) / F_2(m1-1, col):
        # both F_2 factors are now known, breaking the same-column
        # dependency that forces the reference into a scalar m1 loop.
        f1_prev_col = f1_t[col - 1] if col > 1 else f1_base
        np.multiply(f1_prev_col[1:], f2col[1:], out=f1_t[col][1:])
        f1_t[col][1:] /= f2col[:-1]
        for r, a, is_poisson, load, b in consts:
            if r not in fits:
                continue
            h_col = h_t[r][col]
            np.multiply(f2col, k2[r], out=h_col)
            if is_poisson:
                dhat_t[r][col] = h_col
            else:
                np.multiply(h_col, cvec[r], out=dhat_t[r][col])

    grids = MvaGrids(dims, classes)
    grids.f1 = np.ascontiguousarray(f1_t.T)
    grids.f2 = np.ascontiguousarray(f2_t.T)
    grids.h = [np.ascontiguousarray(g.T) for g in h_t]
    grids.dhat = [np.ascontiguousarray(g.T) for g in dhat_t]

    solution = PerformanceSolution(
        dims=dims,
        classes=classes,
        h=tuple(grids.h),
        log_q=None,
        method="mva",
    )
    solution.grids = grids  # expose raw grids for diagnostics/tests
    solution.kernel = "numpy"
    return solution

"""Algorithm 1: recursive computation of the normalization function.

The paper computes performance measures from the scaled normalization
function ``Q(N) = G(N)/(N1! N2!)`` via the recurrence (eqs. 8-10)

    ``Q(n) = [ Q(n - 1_i)
               + sum_{r in R1} a_r rho_r Q(n - a_r I)
               + sum_{r in R2} a_r rho_r V(n, r) ] / n_i``

with the auxiliary recursion (eq. 9)

    ``V(n, r) = Q(n - a_r I) + (beta_r/mu_r) V(n - a_r I, r)``

sweeping the ``(n1, n2)`` grid column by column in ``n2``.  ``Q`` of
any point with a negative coordinate is zero and ``Q(n1, 0) = 1/n1!``
(only the empty state fits).  Complexity is ``O(N1 N2 R)`` exactly as
the paper states.

Every sweep runs on the whole-column NumPy kernels of
:mod:`repro.core.kernels` (bitwise identical to the scalar reference
sweeps for the ``log`` and ``float`` modes, tolerance-equivalent for
``scaled``); this module validates the inputs, picks the kernel for
the numeric mode, folds smooth classes in and assembles the measures.
The scalar sweeps, which follow the paper line by line, are kept in
:mod:`repro.verify.reference` as the oracle the kernels are tested
against.

Three numeric modes are provided:

``"log"`` (default)
    ``Q`` is carried as ``log Q`` with signed-log arithmetic for the
    alternating ``V`` sums of smooth (Bernoulli) classes.  Immune to
    overflow/underflow for any system size.
``"scaled"``
    The paper's Section 6 *dynamic scaling*, implemented at its logical
    limit: every cell carries a float64 mantissa and an integer binary
    exponent, i.e. the scaling factor ``omega`` is re-chosen on every
    step so neither overflow nor underflow can ever occur.  Since the
    measures only use ratios ``Q(N - a_r I)/Q(N)``, the scale factors
    cancel (Section 6's argument).
``"float"``
    The raw unscaled recurrence in float64, exactly as Algorithm 1
    reads before Section 6.  ``Q ~ 1/(n1! n2!)`` underflows around
    ``n1 + n2 ~ 300``, at which point this mode raises
    :class:`~repro.exceptions.OverflowInRecursionError` — the failure
    that motivates dynamic scaling (reproduced by
    ``benchmarks/bench_scaling.py``).

Stability note (beyond the paper).  For *smooth* (Bernoulli,
``beta < 0``) classes the ``V`` recursion is an **alternating** series
whose terms grow roughly like ``|beta/mu| * (N1-k)(N2-k)`` per step; as
soon as that factor exceeds one, the sum cancels catastrophically and
every floating-point representation (including the log domain) loses
all precision within a few chain steps.  The paper's own examples stay
in the stable regime (``|b| N^2 << 1``), but e.g. a 2-source smooth
class on a 32x32 switch is far outside it.  This module therefore
removes Bernoulli classes from the sweep entirely and *folds* them in
afterwards through the exact positive-term identity

    ``Q(N) = sum_k Phi_r(k) Q_rest(N - a_r k I)``

(``Phi_r(k) = |b|^k C(S, k) >= 0`` terminates at the source count
``S``), which is unconditionally stable.  Poisson and Pascal classes
have non-negative ``V`` terms and keep the paper's ``O(N1 N2 R)``
recursion.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..exceptions import ConfigurationError, OverflowInRecursionError
from . import kernels
from .logspace import NEG_INF
from .measures import PerformanceSolution
from .state import SwitchDimensions
from .traffic import TrafficClass

__all__ = ["solve_convolution", "log_q_grid"]


def _validate(dims: SwitchDimensions, classes: Sequence[TrafficClass]) -> None:
    if not classes:
        raise ConfigurationError("at least one traffic class is required")
    for cls in classes:
        if cls.a <= dims.capacity:
            cls.validate_for(dims.n1, dims.n2)


# ----------------------------------------------------------------------
# Smooth-class folding (stability fix; see module docstring)
# ----------------------------------------------------------------------


def _fold_log(
    lq: np.ndarray, dims: SwitchDimensions, cls: TrafficClass
) -> np.ndarray:
    """Fold one smooth class into a log-domain grid (positive terms)."""
    from .productform import log_phi

    a = cls.a
    out = lq.copy()  # k = 0 term (log Phi(0) = 0)
    k = 1
    while k * a <= dims.capacity:
        logphi = log_phi(cls, k)
        if logphi == NEG_INF:
            break
        shift = k * a
        term = np.full_like(lq, NEG_INF)
        term[shift:, shift:] = lq[:-shift, :-shift] + logphi
        out = np.logaddexp(out, term)
        k += 1
    return out


def _fold_float(
    lq: np.ndarray, dims: SwitchDimensions, cls: TrafficClass
) -> np.ndarray:
    """Float-domain fold for mode='float' (keeps its raw-float spirit)."""
    from .productform import log_phi

    with np.errstate(over="raise"):
        q = np.where(lq > NEG_INF, np.exp(lq), 0.0)
        out = q.copy()
        a = cls.a
        k = 1
        while k * a <= dims.capacity:
            logphi = log_phi(cls, k)
            if logphi == NEG_INF:
                break
            shift = k * a
            out[shift:, shift:] += q[:-shift, :-shift] * math.exp(logphi)
            k += 1
    if not np.all(np.isfinite(out)):
        raise OverflowInRecursionError(
            "unscaled fold of a smooth class overflowed; use "
            "mode='scaled' or mode='log'"
        )
    with np.errstate(divide="ignore"):
        return np.where(out > 0.0, np.log(np.where(out > 0.0, out, 1.0)), NEG_INF)


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


_FOLDS = {"log": _fold_log, "scaled": _fold_log, "float": _fold_float}

#: The solution label of each mode: one shared string per mode, so the
#: results a serving process caches do not each hold their own copy.
_LABELS = {mode: f"convolution/{mode}" for mode in _FOLDS}


def _numpy_sweep(mode: str):
    """The production kernel for ``mode`` (looked up per call)."""
    return {
        "log": kernels.sweep_log,
        "scaled": kernels.sweep_scaled,
        "float": kernels.sweep_float,
    }[mode]


def _sweep_and_fold(
    dims: SwitchDimensions,
    classes: Sequence[TrafficClass],
    mode: str,
    sweep_for,
):
    """Validate, then sweep the ``beta >= 0`` classes.

    Returns ``(base, fold)``: the swept ``log Q`` grid without the
    smooth classes, and the fold that adds them.  ``sweep_for`` maps a
    mode to its sweep; :mod:`repro.verify.reference` passes the scalar
    oracle sweeps here.
    """
    _validate(dims, classes)
    if mode not in _FOLDS:
        raise ConfigurationError(
            f"unknown mode {mode!r}; expected one of {tuple(_FOLDS)}"
        )
    base = sweep_for(mode)(dims, [c for c in classes if c.beta >= 0])
    return base, _FOLDS[mode]


def log_q_grid(
    dims: SwitchDimensions,
    classes: Sequence[TrafficClass],
    mode: str = "log",
) -> np.ndarray:
    """Grid of ``log Q(n1, n2)`` for ``0 <= n1 <= N1, 0 <= n2 <= N2``.

    Smooth (Bernoulli) classes are folded in through the positive-term
    identity rather than the alternating ``V`` recursion — see the
    module docstring's stability note.
    """
    lq, fold = _sweep_and_fold(dims, classes, mode, _numpy_sweep)
    for cls in classes:
        if cls.beta < 0:
            lq = fold(lq, dims, cls)
    return lq


def _smooth_concurrency_grid(
    lq: np.ndarray,
    lq_rest: np.ndarray,
    dims: SwitchDimensions,
    cls: TrafficClass,
) -> np.ndarray:
    """Stable concurrency grid for one smooth class.

    The recursive ``E_r(N) = H_r(N)(rho + b E_r(N - a I))`` inherits
    the alternating-series instability for ``beta < 0`` (the bracket
    cancels), so smooth-class concurrency is evaluated by the direct
    positive sum

        ``E_r(N) = sum_k k Phi_r(k) Q_rest(N - a k I) / Q(N)``

    where ``Q_rest`` excludes class ``r``.
    """
    from .productform import log_phi

    a = cls.a
    acc = np.full_like(lq, NEG_INF)
    k = 1
    while k * a <= dims.capacity:
        logphi = log_phi(cls, k)
        if logphi == NEG_INF:
            break
        shift = k * a
        term = np.full_like(lq, NEG_INF)
        term[shift:, shift:] = (
            lq_rest[:-shift, :-shift] + logphi + math.log(k)
        )
        acc = np.logaddexp(acc, term)
        k += 1
    with np.errstate(invalid="ignore"):
        grid = np.exp(acc - lq)
    grid[~np.isfinite(grid)] = 0.0
    return grid


def solve_convolution(
    dims: SwitchDimensions,
    classes: Sequence[TrafficClass],
    mode: str = "log",
) -> PerformanceSolution:
    """Solve the model with Algorithm 1 and return all measures.

    Parameters
    ----------
    dims, classes:
        The switch and its traffic mix.
    mode:
        ``"log"`` (default), ``"scaled"`` (Section 6 dynamic scaling),
        or ``"float"`` (raw recurrence — raises on overflow/underflow).

    The solution is labelled ``convolution/<mode>`` and records the
    kernel that swept it as ``solution.kernel`` (``"numpy"``).
    """
    classes = tuple(classes)
    base, fold = _sweep_and_fold(dims, classes, mode, _numpy_sweep)
    solution = _assemble(dims, classes, mode, base, fold)
    solution.kernel = "numpy"
    return solution


def _assemble(
    dims: SwitchDimensions,
    classes: tuple[TrafficClass, ...],
    mode: str,
    base: np.ndarray,
    fold,
) -> PerformanceSolution:
    """Fold smooth classes into ``base`` and build the solution."""
    fold_classes = [(r, c) for r, c in enumerate(classes) if c.beta < 0]
    lq = base
    for _, cls in fold_classes:
        lq = fold(lq, dims, cls)

    h_grids = []
    for cls in classes:
        a = cls.a
        h = np.zeros((dims.n1 + 1, dims.n2 + 1))
        if a <= dims.n1 and a <= dims.n2:
            h[a:, a:] = np.exp(lq[:-a, :-a] - lq[a:, a:])
            h[a:, a:][~np.isfinite(h[a:, a:])] = 0.0
        h_grids.append(h)

    # Stable concurrency grids for smooth classes (see helper).
    e_smooth: dict[int, np.ndarray] = {}
    for r, cls in fold_classes:
        lq_rest = base
        for other_r, other in fold_classes:
            if other_r != r:
                lq_rest = fold(lq_rest, dims, other)
        e_smooth[r] = _smooth_concurrency_grid(lq, lq_rest, dims, cls)

    return PerformanceSolution(
        dims=dims,
        classes=classes,
        h=tuple(h_grids),
        log_q=lq,
        method=_LABELS[mode],
        e_smooth=e_smooth,
    )

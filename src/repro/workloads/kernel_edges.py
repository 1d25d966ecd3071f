"""Kernel-boundary golden cases for the equivalence suite.

The production NumPy kernels (:mod:`repro.core.kernels`) promise
bitwise identity (``log``/``float`` modes) or tolerance equivalence
(``scaled``, with a log-sweep fallback) against the pure-python oracle
(:mod:`repro.verify.reference`).  The places where that promise is
most at risk are the numeric *edges*:

* the ``Q(n1, 0) = 1/n1!`` base row (byte-exact in every mode),
* the float-mode :class:`~repro.exceptions.OverflowInRecursionError`
  boundary (``1/n1!`` leaves float64 around ``n1 ~ 178``),
* the scaled kernel's fall-back region (a renormalized column
  underflowing to exact zero — same factorial cliff),
* zero-burstiness (Poisson-only) and bursty mixes, max-grid sizes,
  and the empty class set (rejected identically by kernel and oracle).

:func:`kernel_edges_record` probes all of these along one shared size
grid and returns a corpus-schema record (``{"x": ..., "curves": ...}``)
that :mod:`tools.refresh_golden` stamps into
``tests/golden/kernel_edges.json``.  The record is built from direct
solver calls (no engine, no cache) on a pluggable solver module, so
rebuilding it on the production solvers and on the oracle is a genuine
end-to-end regression check: ``log`` curves must match the snapshot
bitwise, ``scaled`` curves within the corpus drift tolerance.
"""

from __future__ import annotations

import math

from ..core import convolution
from ..core.state import SwitchDimensions
from ..core.traffic import TrafficClass
from ..exceptions import ConfigurationError, OverflowInRecursionError

__all__ = ["PROBE_SIZES", "kernel_edges_record"]

#: Sizes spanning tiny grids, the benchmark range, and the factorial
#: cliff where ``1/n!`` leaves float64 (between 171 and 200).
PROBE_SIZES = (1, 2, 8, 32, 64, 171, 178, 200)

#: Blocking-curve solves are capped at this side length — the curves
#: probe kernel agreement, not large-grid latency.
_SOLVE_CAP = 48

#: One Poisson class (zero burstiness) and one bursty Pascal class.
_POISSON = (TrafficClass.poisson(0.05, name="poisson"),)
_MIXED = (
    TrafficClass.poisson(0.05, name="poisson"),
    TrafficClass(alpha=0.02, beta=0.01, mu=1.0, a=2, name="pascal"),
)


def _float_mode_raises(n: int, solvers) -> float:
    try:
        solvers.log_q_grid(SwitchDimensions(n, 2), _POISSON, mode="float")
        return 0.0
    except OverflowInRecursionError:
        return 1.0


def _empty_classes_rejected(n: int, solvers) -> float:
    for mode in ("log", "scaled", "float"):
        try:
            solvers.log_q_grid(SwitchDimensions(n, 2), (), mode=mode)
            return 0.0  # pragma: no cover - would be a regression
        except ConfigurationError:
            continue
    return 1.0


def kernel_edges_record(solvers=convolution) -> dict:
    """The kernel-boundary corpus record.

    ``solvers`` is any module exposing ``log_q_grid`` and
    ``solve_convolution``: the production :mod:`repro.core.convolution`
    (how the stored golden snapshot is generated) or the oracle
    :mod:`repro.verify.reference`, which re-derives the same record on
    the pure-python sweeps.
    """
    curves: dict[str, list[float]] = {
        "base_row_logq": [],
        "float_mode_raises": [],
        "scaled_fallback_boundary": [],
        "empty_classes_rejected": [],
        "log_blocking_poisson": [],
        "log_blocking_mixed": [],
        "scaled_blocking_mixed": [],
    }
    for n in PROBE_SIZES:
        # Q(n1, 0) = 1/n1! base row, read from the solved log grid.
        lq = solvers.log_q_grid(SwitchDimensions(n, 1), _POISSON, mode="log")
        curves["base_row_logq"].append(float(lq[n, 0]))
        curves["float_mode_raises"].append(_float_mode_raises(n, solvers))
        # Where the scaled fast path must hand back to the log sweep:
        # the unit-max renormalized base row holds exp(-lgamma(n+1)),
        # which underflows to exact zero past the factorial cliff.
        curves["scaled_fallback_boundary"].append(
            1.0 if math.exp(-math.lgamma(n + 1)) == 0.0 else 0.0
        )
        curves["empty_classes_rejected"].append(
            _empty_classes_rejected(n, solvers)
        )
        m = min(n, _SOLVE_CAP)
        dims = SwitchDimensions(m, m)
        poisson = solvers.solve_convolution(dims, _POISSON, mode="log")
        curves["log_blocking_poisson"].append(float(poisson.blocking(0)))
        mixed = solvers.solve_convolution(dims, _MIXED, mode="log")
        curves["log_blocking_mixed"].append(float(mixed.blocking(1)))
        # Uncapped scaled solve: sizes past the cliff exercise the
        # scaled kernel's log-sweep fallback end to end.
        scaled = solvers.solve_convolution(
            SwitchDimensions(n, n), _MIXED, mode="scaled"
        )
        curves["scaled_blocking_mixed"].append(float(scaled.blocking(1)))
    record = {
        "x": [float(n) for n in PROBE_SIZES],
        "curves": curves,
    }
    for values in record["curves"].values():
        for v in values:
            if not math.isfinite(v):
                raise ValueError(
                    f"non-finite value {v!r} in kernel_edges record"
                )
    return record

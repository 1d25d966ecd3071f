"""The shared :class:`SolveMethod` enum: one name per solution method.

Before this module existed the method names were stringly typed and
duplicated across :mod:`repro.core.model` (``METHODS``), the CLI
(``--method`` choices) and the robust facade (chain entry names), with
nothing keeping them in sync.  ``SolveMethod`` is the single source of
truth.  It is **str-valued**, so every place that round-trips method
names through JSON, argparse or log lines keeps working unchanged:

>>> SolveMethod.MVA == "mva"
True
>>> SolveMethod("convolution-scaled") is SolveMethod.CONVOLUTION_SCALED
True

:meth:`SolveMethod.coerce` additionally accepts the historical
slash-spelled aliases used by the robust facade's diagnostics
(``"convolution/log"``, ``"convolution/scaled"``, ``"convolution/float"``).
"""

from __future__ import annotations

from enum import Enum

from .exceptions import ConfigurationError

__all__ = ["SolveMethod"]


class SolveMethod(str, Enum):
    """Every solution method the library can dispatch to by name."""

    #: Algorithm 1 (paper §5) in the log domain — the default.
    CONVOLUTION = "convolution"
    #: Algorithm 1 with §6 dynamic scaling (mantissa/exponent pairs).
    CONVOLUTION_SCALED = "convolution-scaled"
    #: Algorithm 1 unscaled (raises when it over/underflows).
    CONVOLUTION_FLOAT = "convolution-float"
    #: Algorithm 2 (paper §5.1), ratio domain.
    MVA = "mva"
    #: Algorithm 1 in exact rational arithmetic.
    EXACT = "exact"
    #: Direct summation over the state space (eq. 2-3).
    BRUTE_FORCE = "brute-force"
    #: Diagonal occupancy-series solver (measures at full dims only).
    SERIES = "series"
    #: The resilient fallback chain (:func:`repro.robust.solve_robust`).
    ROBUST = "robust"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def convolution_mode(self) -> str | None:
        """The ``solve_convolution`` mode for Algorithm 1 members, else None."""
        return _CONVOLUTION_MODES.get(self)

    @property
    def rel_tolerance(self) -> float:
        """Relative accuracy this method is trusted to on its measures.

        Used by the differential verifier (:mod:`repro.verify`) to set
        pairwise comparison tolerances: two methods must agree to
        ``max(rel_tolerance_a, rel_tolerance_b)`` (plus a small ULP
        floor).  The figures are empirical — tight enough to catch a
        real defect (an off-by-one in a recursion shifts measures by
        orders of magnitude more), loose enough that legitimate
        round-off across numeric domains never fires.
        """
        return _REL_TOLERANCES[self]

    @property
    def is_grid(self) -> bool:
        """True when the method produces a full sub-dimension ratio grid.

        Grid methods answer every measure at every sub-switch
        ``(m1, m2) <= (N1, N2)`` from one solve — the property the
        batched engine exploits to serve whole size sweeps from a
        single Algorithm 1 pass.
        """
        return self in _GRID_METHODS

    @classmethod
    def coerce(cls, value: "SolveMethod | str") -> "SolveMethod":
        """Normalize a method name (enum member, value, or alias).

        Raises :class:`~repro.exceptions.ConfigurationError` on unknown
        names, listing the accepted values.
        """
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            pass
        alias = _ALIASES.get(value)
        if alias is not None:
            return alias
        raise ConfigurationError(
            f"unknown method {value!r}; expected one of "
            f"{tuple(m.value for m in cls)}"
        )


_CONVOLUTION_MODES = {
    SolveMethod.CONVOLUTION: "log",
    SolveMethod.CONVOLUTION_SCALED: "scaled",
    SolveMethod.CONVOLUTION_FLOAT: "float",
}

#: Methods whose solution exposes measures at every sub-dimension.
#: ``convolution-float`` is excluded on purpose: enlarging the grid can
#: push the unscaled recurrence into the very under/overflow it exists
#: to demonstrate, so batching must not change the dims it runs at.
_GRID_METHODS = frozenset(
    {SolveMethod.CONVOLUTION, SolveMethod.CONVOLUTION_SCALED}
)

#: Per-method relative tolerances for differential comparison.  The
#: exact solver evaluates in rational arithmetic and only rounds once
#: at the end; brute force and the convolution modes accumulate
#: float64 round-off over the state space / grid sweep; MVA and the
#: series solver work in ratio/series domains with somewhat larger
#: constants; the CTMC goes through a sparse linear solve.
_REL_TOLERANCES = {
    SolveMethod.CONVOLUTION: 1e-9,
    SolveMethod.CONVOLUTION_SCALED: 1e-9,
    SolveMethod.CONVOLUTION_FLOAT: 1e-9,
    SolveMethod.MVA: 1e-8,
    SolveMethod.EXACT: 1e-12,
    SolveMethod.BRUTE_FORCE: 1e-9,
    SolveMethod.SERIES: 1e-8,
    SolveMethod.ROBUST: 1e-8,
}

#: Historical spellings (robust-facade chain names) still accepted.
_ALIASES = {
    "convolution/log": SolveMethod.CONVOLUTION,
    "convolution/scaled": SolveMethod.CONVOLUTION_SCALED,
    "convolution/float": SolveMethod.CONVOLUTION_FLOAT,
}
